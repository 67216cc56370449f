"""The XOR-tree matchers against the re-walking matchers they replaced.

The rotation scheduler's gather matcher (``passes._match_gathers``) and
the tape compiler's fusion matcher (``tape._find_fusable_trees``) read
every tree's leaves off one bottom-up summary per ADD
(``passes.fold_xor_trees``) and expand only the trees they take.  The
matchers kept here as the oracle walked every ADD they had not consumed
with :func:`~repro.ir.passes.collect_xor_tree` instead.  On random XOR
forests and on the naive and staged lowerings of the ten frozen models
both must match the same roots with the same terms, in the same order,
over the same interiors — and the new ones must expand no node twice.

The scheduler's re-emission is held to the one it replaced too: emit
only what the rewritten graph reaches, and get node for node what
re-emitting everything and then dropping the dead gave.
"""

import json
from pathlib import Path
from typing import Dict, List, Tuple

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.compiler import CopseCompiler
from repro.fhe.backend import fold_balanced
from repro.fhe.params import EncryptionParams
from repro.forest.serialize import loads_forest
from repro.ir import passes, tape
from repro.ir.builder import IrBuilder
from repro.ir.nodes import IrGraph, IrOp, roll_payload
from repro.ir.passes import (
    _match_gathers,
    _use_counts,
    collect_xor_tree,
    dead_code_elimination,
    schedule_rotations,
)
from repro.ir.plan import lower_batched_inference
from repro.ir.tape import _MIN_FUSED_PRODUCTS, _find_fusable_trees
from repro.serve import plan_layout
from tests.conftest import bare_emission

MODELS_DIR = Path(__file__).resolve().parents[2] / "perf" / "models"
MANIFEST = json.loads((MODELS_DIR / "MANIFEST.json").read_text())


# ---------------------------------------------------------------------------
# The oracle: one collect_xor_tree walk per unconsumed ADD
# ---------------------------------------------------------------------------


def _oracle_gather_tree(graph, root, uses, pinned):
    leaves, interior = collect_xor_tree(graph, root, uses, pinned)
    if len(leaves) < 2:
        return None
    source = None
    terms: List[Tuple[int, bytes]] = []
    for leaf in leaves:
        node = graph.node(leaf)
        if node.op is not IrOp.CONST_MULT or uses[leaf] != 1:
            return None
        value, const = node.args
        mask = graph.node(const)
        if mask.op is not IrOp.CONST_PT:
            return None
        rot = graph.node(value)
        if rot.op is IrOp.ROTATE:
            if uses[value] != 1:
                return None
            src, amount = rot.args[0], rot.attr[0]
        else:
            src, amount = value, 0
        if not graph.node(src).is_cipher:
            return None
        if source is None:
            source = src
        elif source != src:
            return None
        terms.append((amount, mask.attr))
    return source, terms, interior


def oracle_match_gathers(graph, uses, pinned):
    """root -> (source, pivot, [(amount, mask_payload), ...])."""
    matched: Dict[int, Tuple[int, int, List[Tuple[int, bytes]]]] = {}
    consumed: set = set()
    for node in reversed(graph.nodes):
        if node.op is not IrOp.ADD or node.node_id in consumed:
            continue
        hit = _oracle_gather_tree(graph, node.node_id, uses, pinned)
        if hit is None:
            continue
        source, terms, interior = hit
        if len({a for a, _ in terms}) < 2:
            continue
        matched[node.node_id] = (source, min(a for a, _ in terms), terms)
        consumed.update(interior)
    return matched


def oracle_find_fusable_trees(graph, uses, pinned):
    matched: Dict[int, List[Tuple[int, int, object]]] = {}
    folded: set = set()

    def foldable_rotate(nid):
        node = graph.node(nid)
        return (
            node.op is IrOp.ROTATE
            and uses[nid] == 1
            and nid not in pinned
            and node.is_cipher
            and graph.node(node.args[0]).is_cipher
        )

    def leaf_term(nid, unrotated):
        node = graph.node(nid)
        if (
            node.op not in (IrOp.MULTIPLY, IrOp.CONST_MULT)
            or uses[nid] != 1
            or nid in pinned
            or not node.is_cipher
        ):
            return None
        absorbed = [nid]
        if node.op is IrOp.CONST_MULT:
            value, const = node.args
            if graph.node(const).op is not IrOp.CONST_PT:
                return None
            operand: object = ("const", const)
        else:
            a, b = node.args
            if not (graph.node(a).is_cipher and graph.node(b).is_cipher):
                return None
            value, operand = a, ("cipher", b)
            if not foldable_rotate(a) and (
                foldable_rotate(b) or (unrotated and uses[b] < uses[a])
            ):
                value, operand = b, ("cipher", a)
        amount = 0
        if foldable_rotate(value):
            rot = graph.node(value)
            absorbed.append(value)
            value, amount = rot.args[0], rot.attr[0]
        return amount, value, operand, absorbed

    for root in reversed(graph.nodes):
        rid = root.node_id
        if root.op is not IrOp.ADD or rid in folded or not root.is_cipher:
            continue
        leaves, interior = collect_xor_tree(graph, rid, uses, pinned)
        hits = [leaf_term(leaf, True) for leaf in leaves]
        if any(hit is not None and hit[0] for hit in hits):
            hits = [leaf_term(leaf, False) for leaf in leaves]
        terms = []
        absorbed_all: List[int] = []
        products = 0
        ok = True
        for leaf, hit in zip(leaves, hits):
            if hit is None:
                if not graph.node(leaf).is_cipher:
                    ok = False
                    break
                terms.append((0, leaf, None))
                continue
            amount, value, operand, absorbed = hit
            terms.append((amount, value, operand))
            absorbed_all.extend(absorbed)
            products += 1
        if not ok or products < _MIN_FUSED_PRODUCTS:
            continue
        matched[rid] = terms
        folded.update(interior)
        folded.update(absorbed_all)
    return matched, folded


def oracle_schedule_rotations(graph: IrGraph) -> IrGraph:
    """Re-emit every node, rewritten gathers included, then drop the dead."""
    uses = _use_counts(graph)
    pinned = set(graph.outputs.values()) | set(graph.inputs.values())
    matched = oracle_match_gathers(graph, uses, pinned)
    b = IrBuilder()
    remap: List[int] = []
    for node in graph.nodes:
        hit = matched.get(node.node_id)
        if hit is None:
            remap.append(b.copy(node, tuple(remap[a] for a in node.args)))
            continue
        source, pivot, terms = hit
        parts = [
            b.and_(
                b.rotate(remap[source], amount - pivot),
                b.const_packed(roll_payload(mask, pivot)),
            )
            for amount, mask in terms
        ]
        remap.append(b.rotate(fold_balanced(parts, b.xor), pivot))
    out = b.graph
    out.outputs = {name: remap[nid] for name, nid in graph.outputs.items()}
    out.inputs = {name: remap[nid] for name, nid in graph.inputs.items()}
    return dead_code_elimination(out)


# ---------------------------------------------------------------------------
# Checks
# ---------------------------------------------------------------------------


class _Visits:
    """Counts the nodes the matchers' tree expansions visit."""

    def __init__(self, monkeypatch):
        self.count = 0

        def counted(graph, root, uses, pinned):
            leaves, interior = collect_xor_tree(graph, root, uses, pinned)
            self.count += 1 + len(leaves) + len(interior)
            return leaves, interior

        monkeypatch.setattr(passes, "collect_xor_tree", counted)
        monkeypatch.setattr(tape, "collect_xor_tree", counted)


def check_matchers(graph: IrGraph, visits: _Visits) -> None:
    uses = _use_counts(graph)
    pinned = set(graph.outputs.values()) | set(graph.inputs.values())

    expected = oracle_match_gathers(graph, uses, pinned)
    visits.count = 0
    assert _match_gathers(graph, uses, pinned) == expected
    # A taken tree's interior is consumed, and its leaves are single-use:
    # the expansions are disjoint, so together they are at most the graph
    # (the summaries are one more walk over it).
    assert visits.count <= graph.num_nodes

    visits.count = 0
    assert _find_fusable_trees(graph, uses, pinned) == (
        oracle_find_fusable_trees(graph, uses, pinned)
    )
    assert visits.count <= graph.num_nodes


def same_graph(a: IrGraph, b: IrGraph) -> bool:
    return (a.nodes, a.outputs, a.inputs) == (b.nodes, b.outputs, b.inputs)


# ---------------------------------------------------------------------------
# Random XOR forests
# ---------------------------------------------------------------------------

WIDTH = 8


@st.composite
def xor_forests(draw):
    """A bare graph (duplicates allowed) of masked gathers, Halevi-Shoup
    style products and plain noise, with random sharing and pins."""
    g = IrGraph()
    cipher = [g.add(IrOp.INPUT_CT, (), ("x0",), WIDTH)]
    g.mark_input("x0", cipher[0])
    if draw(st.booleans()):
        g.mark_input("x1", g.add(IrOp.INPUT_CT, (), ("x1",), WIDTH))
        cipher.append(g.inputs["x1"])
    plain = g.add(IrOp.INPUT_PT, (), ("p",), WIDTH, is_cipher=False)
    g.mark_input("p", plain)
    masks = [
        g.add(IrOp.CONST_PT, (), bytes(draw(st.lists(
            st.integers(0, 1), min_size=WIDTH, max_size=WIDTH))), WIDTH,
            is_cipher=False)
        for _ in range(draw(st.integers(1, 3)))
    ]
    values = list(cipher)
    pick = lambda pool: pool[draw(st.integers(0, len(pool) - 1))]  # noqa: E731

    def term(source):
        kind = draw(st.sampled_from(["gather", "gather", "mul", "bare", "plain"]))
        amount = draw(st.integers(0, WIDTH - 1))
        value = source
        if amount or draw(st.booleans()):
            value = g.add(IrOp.ROTATE, (source,), (amount,), WIDTH)
        if kind == "gather":
            return g.add(IrOp.CONST_MULT, (value, pick(masks)), (), WIDTH)
        if kind == "mul":
            other = pick(values)
            args = (value, other) if draw(st.booleans()) else (other, value)
            return g.add(IrOp.MULTIPLY, args, (), WIDTH)
        if kind == "plain":
            return g.add(IrOp.ROTATE, (plain,), (amount,), WIDTH)
        return value

    for _ in range(draw(st.integers(1, 6))):
        source = pick(values)
        parts = [term(source) for _ in range(draw(st.integers(1, 6)))]
        if draw(st.booleans()):
            root = fold_balanced(
                parts, lambda a, b: g.add(IrOp.ADD, (a, b), (), WIDTH))
        else:
            root = parts[0]
            for part in parts[1:]:
                root = g.add(IrOp.ADD, (root, part), (), WIDTH)
        values.append(root)
        # Share or pin a random node now and then: a second use or an
        # output makes an interior XOR a leaf, a leaf a non-gather.
        for _ in range(draw(st.integers(0, 2))):
            values.append(draw(st.integers(0, g.num_nodes - 1)))
    g.mark_output("out", values[-1])
    for index in range(draw(st.integers(0, 3))):
        g.mark_output(f"pin{index}", draw(st.integers(0, g.num_nodes - 1)))
    return g


@settings(
    max_examples=300, deadline=None, derandomize=True,
    suppress_health_check=[HealthCheck.too_slow,
                           HealthCheck.function_scoped_fixture],
)
@given(graph=xor_forests())
def test_random_xor_forests_match_the_oracle(graph, monkeypatch):
    check_matchers(graph, _Visits(monkeypatch))


# ---------------------------------------------------------------------------
# The ten frozen models
# ---------------------------------------------------------------------------


def _lowerings(name: str):
    forest = loads_forest((MODELS_DIR / f"{name}.txt").read_text())
    compiled = CopseCompiler(
        precision=int(MANIFEST[name]["precision"])
    ).compile(forest)
    layout = plan_layout(compiled, EncryptionParams.paper_defaults())
    return [
        lower_batched_inference(compiled, layout, encrypted_model=encrypted).graph
        for encrypted in (True, False)
    ]


@pytest.mark.parametrize("name", sorted(MANIFEST))
def test_frozen_lowerings_match_the_oracle(name, monkeypatch):
    staged = _lowerings(name)
    with bare_emission():
        naive = _lowerings(name)
    visits = _Visits(monkeypatch)
    for graph in staged + naive:
        check_matchers(graph, visits)
        scheduled = dead_code_elimination(schedule_rotations(graph))
        check_matchers(scheduled, visits)
    for graph in staged:
        scheduled = schedule_rotations(graph)
        assert dead_code_elimination(scheduled) is scheduled
        assert same_graph(scheduled, oracle_schedule_rotations(graph))

