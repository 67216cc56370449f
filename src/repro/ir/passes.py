"""Optimizer passes and analyses over IR graphs.

All passes are pure graph-to-graph functions; ``optimize`` is the
standard pipeline (rotation fusion -> CSE -> DCE) iterated to a fixed
point.  Staging itself needs little of it:
:class:`~repro.ir.builder.IrBuilder` shares and fuses as it emits, so a
lowering is finished by :func:`dead_code_elimination` alone, and
``optimize`` is for graphs built through bare :meth:`IrGraph.add`.

* **fuse_rotations** — ``rot(rot(x, a), b)`` becomes ``rot(x, a+b mod w)``
  and zero rotations disappear (HElib would pay two key switches for the
  nested form);
* **common_subexpression_elimination** — nodes with identical
  ``(op, args, attr)`` merge; commutative ops were argument-ordered by
  the builder, so ``a XOR b`` and ``b XOR a`` share a key.  It is the
  specification of the builder's hash-consing, which is what shares
  COPSE's cross-level work at emission: every level matrix extends the
  same rotated branch vectors, and the per-level extensions are one set
  from the start;
* **dead_code_elimination** — drops everything unreachable from outputs;
* **schedule_rotations** — the baby-step/giant-step-style rotation
  scheduler for masked gathers (not part of ``optimize``; the tape
  compiler of :mod:`repro.ir.tape` runs it).  A masked gather combines
  several rotations of one vector under plaintext selection masks:
  ``out = XOR_m rot(v, a_m) & mask_m``.  The pass re-expresses every such
  group against a shared *pivot* ``p = min(a_m)``::

      out = rot( XOR_m rot(v, a_m - p) & rot(mask_m, -p),  p )

  Rotating a plaintext mask is free, so only the *residual* rotations
  ``rot(v, a_m - p)`` and one pivot rotation per group cost anything —
  and the residuals are translation-invariant: every per-shift gather of
  the same source produces the same residual set ``{0, w, 2w, ...}``,
  which the pass's shared re-emission merges across all of them.  The
  per-(level, diagonal) gather rotations of the batched lowering
  collapse from one rotation per (shift, segment) pair to one per shift
  plus a handful of shared residuals — strictly fewer rotations at
  identical bits and unchanged multiplicative depth.

Analyses: ``analyze_counts`` (ops by kind, the Section 6 work measure),
``analyze_depth`` (multiplicative depth) — both read off one
``analyze_profile`` walk — and ``analyze_cost`` (simulated ms
under a :class:`~repro.fhe.costmodel.CostModel`).
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from repro.fhe.backend import fold_balanced
from repro.fhe.costmodel import CostModel
from repro.fhe.tracker import OpKind
from repro.ir.builder import IrBuilder
from repro.ir.nodes import COUNTED_OPS, IrGraph, IrNode, IrOp, roll_payload


def _rebuild(graph: IrGraph, remap, nodes: List[IrNode]) -> IrGraph:
    out = IrGraph(nodes=nodes)
    out.outputs = {name: remap[nid] for name, nid in graph.outputs.items()}
    out.inputs = {name: remap[nid] for name, nid in graph.inputs.items()}
    return out


def fuse_rotations(graph: IrGraph) -> IrGraph:
    """Collapse rotation chains and drop zero rotations."""
    remap: Dict[int, int] = {}
    nodes: List[IrNode] = []

    def emit(op, args, attr, width, is_cipher) -> int:
        node_id = len(nodes)
        nodes.append(IrNode(node_id, op, tuple(args), attr, width, is_cipher))
        return node_id

    for node in graph.nodes:
        args = tuple(remap[a] for a in node.args)
        if node.op is IrOp.ROTATE:
            amount = node.attr[0]
            target = args[0]
            # Walk through any rotation already emitted.
            while nodes[target].op is IrOp.ROTATE:
                amount += nodes[target].attr[0]
                target = nodes[target].args[0]
            amount %= nodes[target].width if nodes[target].width else 1
            if amount == 0:
                remap[node.node_id] = target
                continue
            remap[node.node_id] = emit(
                IrOp.ROTATE, (target,), (amount,), node.width, node.is_cipher
            )
            continue
        remap[node.node_id] = emit(
            node.op, args, node.attr, node.width, node.is_cipher
        )
    return _rebuild(graph, remap, nodes)


def common_subexpression_elimination(graph: IrGraph) -> IrGraph:
    """Merge semantically identical nodes (hash-consing)."""
    remap: Dict[int, int] = {}
    seen: Dict[tuple, int] = {}
    nodes: List[IrNode] = []
    for node in graph.nodes:
        args = tuple(remap[a] for a in node.args)
        key = (node.op, args, node.attr)
        # Distinct named inputs must stay distinct even though their key
        # includes the name (attr), so this is safe for inputs too.
        if key in seen:
            remap[node.node_id] = seen[key]
            continue
        node_id = len(nodes)
        nodes.append(
            IrNode(node_id, node.op, args, node.attr, node.width, node.is_cipher)
        )
        seen[key] = node_id
        remap[node.node_id] = node_id
    return _rebuild(graph, remap, nodes)


def dead_code_elimination(graph: IrGraph) -> IrGraph:
    """Drop nodes unreachable from the outputs (inputs are kept: they are
    part of the graph's interface even if unused).

    Returns ``graph`` itself when nothing is dead, and reuses every
    ``IrNode`` whose id and arguments did not move.
    """
    old = graph.nodes
    live = [False] * len(old)
    for nid in graph.outputs.values():
        live[nid] = True
    for nid in graph.inputs.values():
        live[nid] = True
    for node in reversed(old):
        if live[node.node_id]:
            for a in node.args:
                live[a] = True
    if all(live):
        return graph
    remap: Dict[int, int] = {}
    nodes: List[IrNode] = []
    for node in old:
        nid = node.node_id
        if not live[nid]:
            continue
        new_id = len(nodes)
        if new_id == nid:
            nodes.append(node)  # nothing before it was dropped
        else:
            args = tuple(map(remap.__getitem__, node.args))
            nodes.append(
                IrNode(new_id, node.op, args, node.attr, node.width,
                       node.is_cipher)
            )
        remap[nid] = new_id
    return _rebuild(graph, remap, nodes)


def _use_counts(graph: IrGraph) -> List[int]:
    uses = [0] * graph.num_nodes
    for node in graph.nodes:
        for a in node.args:
            uses[a] += 1
    return uses


def collect_xor_tree(
    graph: IrGraph, root: int, uses: List[int], pinned
) -> Tuple[List[int], List[int]]:
    """Expand the maximal XOR-accumulation tree rooted at ADD ``root``.

    Interior nodes are ADDs that are single-use and unobservable (not
    pinned as a graph input/output); everything else is a leaf.
    Returns ``(leaves, interior)`` with leaves in the tree's
    left-to-right order, so rewrites are deterministic.  With
    :func:`fold_xor_trees`, the definition of a tree the rotation
    scheduler and the tape compiler's kernel fuser share: the scheduler
    rewrites gathers into exactly the shape the fuser then matches.
    """
    nodes = graph.nodes
    leaves: List[int] = []
    interior: List[int] = []
    stack = [(root, True)]
    while stack:
        nid, is_root = stack.pop()
        node = nodes[nid]
        if node.op is IrOp.ADD and (
            is_root or (uses[nid] == 1 and nid not in pinned)
        ):
            if not is_root:
                interior.append(nid)
            # Reversed so the left argument pops first (pre-order).
            for a in reversed(node.args):
                stack.append((a, False))
            continue
        leaves.append(nid)
    return leaves, interior


def fold_xor_trees(graph: IrGraph, uses, pinned, leaf, join) -> list:
    """One forward walk: ``out[n]`` of (binary) ADD ``n`` folds ``join``
    over ``leaf(l)`` for exactly the leaves ``l`` :func:`collect_xor_tree`
    returns for ``n``, in order; ``None`` absorbs, and is every other
    node's entry.  A matcher then expands only the trees it takes."""
    nodes = graph.nodes
    out: list = [None] * len(nodes)
    for node in nodes:
        if node.op is IrOp.ADD:
            left, right = [
                out[a] if nodes[a].op is IrOp.ADD and uses[a] == 1
                and a not in pinned else leaf(a) for a in node.args
            ]
            out[node.node_id] = left and right and join(left, right)
    return out


def _match_gathers(graph: IrGraph, uses, pinned) -> Dict[int, tuple]:
    """Masked-gather trees worth scheduling, taken from the highest root
    down: root -> ``(source, pivot, [(amount, mask_payload), ...])``.  A
    gather's XOR tree has only single-use ``CONST_MULT(rot(v, a), mask)``
    leaves over one ciphertext source ``v``; it is worth it when its
    amounts differ."""
    nodes = graph.nodes

    def term(nid: int):
        """A gather leaf's ``(source, amount, amount, mask_payload)``."""
        node = nodes[nid]
        if node.op is not IrOp.CONST_MULT or uses[nid] != 1:
            return None
        value, const = node.args
        mask = nodes[const]
        if mask.op is not IrOp.CONST_PT:
            return None
        rot = nodes[value]
        if rot.op is IrOp.ROTATE:
            # The rotation must feed this gather exclusively, or the
            # rewrite would duplicate work another consumer still pays.
            if uses[value] != 1:
                return None
            src, amount = rot.args[0], rot.attr[0]
        else:
            src, amount = value, 0
        if not nodes[src].is_cipher:
            return None
        return src, amount, amount, mask.attr

    def join(left, right):
        """(source, least amount, greatest amount) of a one-source tree."""
        if left[0] == right[0]:
            return left[0], min(left[1], right[1]), max(left[2], right[2])

    trees = fold_xor_trees(graph, uses, pinned, term, join)
    matched: Dict[int, tuple] = {}
    consumed: set = set()
    for nid in range(len(nodes) - 1, -1, -1):
        tree = trees[nid]
        if tree is None or tree[1] == tree[2] or nid in consumed:
            continue  # not a gather, or one shared amount
        leaves, interior = collect_xor_tree(graph, nid, uses, pinned)
        matched[nid] = (*tree[:2], [term(leaf)[2:] for leaf in leaves])
        consumed.update(interior)
    return matched


def schedule_rotations(graph: IrGraph) -> IrGraph:
    """Regroup masked-gather rotations around shared pivots (see module
    docstring).

    The result is re-emitted through one :class:`IrBuilder`, so it is
    shared and rotation-fused like a fresh build.  Only what it reaches is
    emitted, by one reverse liveness walk over the input: a rewritten
    gather reads just its source (with pivot 0 it is rewritten into its
    own nodes), and an old mask a rolled mask asks for stays.  On a
    lowering, :func:`dead_code_elimination` afterwards finds nothing.
    """
    uses = _use_counts(graph)
    pinned = set(graph.outputs.values()) | set(graph.inputs.values())
    matched = _match_gathers(graph, uses, pinned)
    rolled = {
        roll_payload(mask_payload, pivot)
        for _, pivot, terms in matched.values() for _, mask_payload in terms
    }
    live = [nid in pinned for nid in range(graph.num_nodes)]
    for node in reversed(graph.nodes):
        nid = node.node_id
        hit = matched.get(nid)
        if live[nid]:
            for a in (hit[0],) if hit and hit[1] else node.args:
                live[a] = True
        elif node.op is IrOp.CONST_PT and node.attr in rolled:
            live[nid] = True
    # Re-emit through a shared builder: the residual rotations and rolled
    # masks of different groups merge as they are emitted.
    b = IrBuilder()
    remap: List[int] = []
    for node in graph.nodes:
        hit = matched.get(node.node_id)
        if not live[node.node_id]:
            remap.append(-1)
            continue
        if hit is None:
            remap.append(b.copy(node, tuple(map(remap.__getitem__, node.args))))
            continue
        source, pivot, terms = hit
        src = remap[source]
        parts = [
            # rot(mask, -pivot): free at compile time for plaintext.
            b.and_(
                b.rotate(src, amount - pivot),
                b.const_packed(roll_payload(mask_payload, pivot)),
            )
            for amount, mask_payload in terms
        ]
        remap.append(b.rotate(fold_balanced(parts, b.xor), pivot))
    return _rebuild(graph, remap, b.graph.nodes)


def optimize(graph: IrGraph, max_iterations: int = 8) -> IrGraph:
    """Run fuse -> CSE -> DCE until a round drops no node."""
    current = graph
    for _ in range(max_iterations):
        before = current.num_nodes
        current = dead_code_elimination(
            common_subexpression_elimination(fuse_rotations(current))
        )
        if current.num_nodes == before:
            break
    return current


# ---------------------------------------------------------------------------
# Analyses
# ---------------------------------------------------------------------------

#: How IR ops map to the tracker's primitive kinds for costing.  EXTEND
#: and TRUNCATE mirror the context's accounting: extension costs a
#: rotation, truncation is free.
_COST_KIND = {
    IrOp.ADD: OpKind.ADD,
    IrOp.CONST_ADD: OpKind.CONST_ADD,
    IrOp.MULTIPLY: OpKind.MULTIPLY,
    IrOp.CONST_MULT: OpKind.CONST_MULT,
    IrOp.ROTATE: OpKind.ROTATE,
    IrOp.EXTEND: OpKind.ROTATE,
}


def analyze_profile(graph: IrGraph) -> Tuple[Dict[IrOp, int], int]:
    """``(analyze_counts, analyze_depth)`` of ``graph`` in one walk."""
    counts: Dict[IrOp, int] = {}
    depth = [0] * graph.num_nodes
    best = 0
    for node in graph.nodes:
        op = node.op
        d = 0
        for a in node.args:
            if depth[a] > d:
                d = depth[a]
        if op is IrOp.MULTIPLY:
            d += 1
            if d > best:
                best = d
        depth[node.node_id] = d
        if node.is_cipher and op in COUNTED_OPS:
            counts[op] = counts.get(op, 0) + 1
    return counts, best


def analyze_counts(graph: IrGraph) -> Dict[IrOp, int]:
    """Operation counts by kind (ciphertext operations only)."""
    return analyze_profile(graph)[0]


def analyze_depth(graph: IrGraph) -> int:
    """Multiplicative depth of the graph."""
    return analyze_profile(graph)[1]


def cost_of_counts(counts: Dict[IrOp, int], cost_model: CostModel) -> float:
    """Simulated sequential ms of an op-count profile (see analyze_cost).

    Exposed separately so cached analyses (an
    :class:`~repro.ir.plan.InferencePlan` stores the counts of graphs it
    no longer holds) can be costed without the graph.
    """
    total = 0.0
    for op, count in counts.items():
        kind = _COST_KIND.get(op)
        if kind is not None:
            total += cost_model.cost_of(kind) * count
    return total


def analyze_cost(graph: IrGraph, cost_model: CostModel) -> float:
    """Simulated sequential milliseconds of the ciphertext operations."""
    return cost_of_counts(analyze_counts(graph), cost_model)
