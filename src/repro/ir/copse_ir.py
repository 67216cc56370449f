"""Staging a compiled COPSE model into one IR inference graph.

``build_inference_graph`` emits the whole of Algorithm 1 — SecComp,
reshuffle product, level products with masks, accumulation — as a single
graph.  The emission is written as a direct transliteration of the
algorithm: each level matrix rotates and extends the branch vector
itself.  The builder's hash-consing shares that work as it is emitted,
and so recovers and surpasses the hand-written runtime's sharing:

* the per-level rotations of the branch vector are one set (the runtime
  shares these by hand), and
* so are the per-level *cyclic extensions* of those rotated vectors —
  which the hand-written runtime recomputes per level — saving
  ``(d - 1) * b`` rotations.

:mod:`repro.ir.plan` builds on this emission: ``lower_inference`` wraps
the graph, the emission tally and its binding spec into a cached
:class:`~repro.ir.plan.InferencePlan`, the unit the live servers execute
with ``engine="plan"`` — the input-name templates below are the shared
contract between the two modules.  End-to-end IR inference is
:func:`repro.core.runtime.secure_inference` with ``engine="plan"``
(pass ``plan=lower_inference(...)`` to stage once per model, or
``optimize_graph=False`` to run the graph as emitted).
"""

from __future__ import annotations

from typing import List, Optional, Sequence

from repro.errors import CompileError
from repro.core.compiler import CompiledModel
from repro.core.seccomp import SECCOMP_VARIANTS, VARIANT_ALOUFI
from repro.ir.builder import IrBuilder
from repro.ir.nodes import IrGraph

#: Input-name templates shared by the graph builder and the binder.
FEATURE_PLANE = "feat_plane_{i}"
THRESHOLD_PLANE = "thresh_plane_{i}"
RESHUFFLE_DIAG = "reshuffle_diag_{i}"
LEVEL_DIAG = "level{level}_diag_{i}"
LEVEL_MASK = "level{level}_mask"
NOT_ONE = "not_one"
OUTPUT_LABELS = "labels"


def is_query_input(name: str) -> bool:
    """True for the inputs a query supplies (feature planes and the
    Aloufi all-ones helper); every other input is a per-model constant."""
    return name == NOT_ONE or name.startswith(FEATURE_PLANE.format(i=""))


def build_inference_graph(
    model: CompiledModel,
    encrypted_model: bool = True,
    variant: str = VARIANT_ALOUFI,
) -> IrGraph:
    """Emit Algorithm 1 for ``model`` as an IR graph: shared and
    rotation-fused as built, possibly with dead nodes."""
    return _emit_inference(model, encrypted_model, variant).build()


def _emit_inference(
    model: CompiledModel,
    encrypted_model: bool = True,
    variant: str = VARIANT_ALOUFI,
) -> IrBuilder:
    """:func:`build_inference_graph`'s builder, with its emission tally."""
    if variant not in SECCOMP_VARIANTS:
        raise CompileError(f"unknown SecComp variant {variant!r}")
    b = IrBuilder()
    p = model.precision
    q = model.quantized_branching
    branches_n = model.branching
    labels_n = model.num_labels
    d = model.max_depth

    x_planes = [b.input_ct(FEATURE_PLANE.format(i=i), q) for i in range(p)]

    def model_vector(name: str, bits) -> int:
        if encrypted_model:
            return b.input_ct(name, len(bits))
        return b.const(bits)

    y_planes = [
        model_vector(THRESHOLD_PLANE.format(i=i), model.threshold_planes[i])
        for i in range(p)
    ]
    not_one = None
    if variant == VARIANT_ALOUFI:
        not_one = b.input_ct(NOT_ONE, q)

    decisions = _emit_seccomp(b, x_planes, y_planes, variant, not_one)

    reshuffle_diags = [
        model_vector(RESHUFFLE_DIAG.format(i=i), model.reshuffle.diagonal(i))
        for i in range(q)
    ]
    branches = _emit_matvec(b, reshuffle_diags, branches_n, q, decisions)

    level_results: List[int] = []
    for level in range(d):
        matrix = model.level_matrices[level]
        diags = [
            model_vector(
                LEVEL_DIAG.format(level=level, i=i), matrix.diagonal(i)
            )
            for i in range(branches_n)
        ]
        product = _emit_matvec(b, diags, labels_n, branches_n, branches)
        mask = model_vector(
            LEVEL_MASK.format(level=level), model.level_masks[level]
        )
        level_results.append(b.xor(product, mask))

    b.output(OUTPUT_LABELS, b.and_all(level_results))
    return b


def _emit_seccomp(
    b: IrBuilder,
    x_planes: Sequence[int],
    y_planes: Sequence[int],
    variant: str,
    not_one: Optional[int],
) -> int:
    p = len(x_planes)
    diffs = [b.xor(x_planes[i], y_planes[i]) for i in range(p)]
    eqs = [b.negate(diff) for diff in diffs]

    if variant == VARIANT_ALOUFI:
        assert not_one is not None
        not_xs = [b.xor(x_planes[i], not_one) for i in range(p)]
        lts = [b.and_(not_xs[i], y_planes[i]) for i in range(p)]
        prefixes = _uniform_scan(b, eqs, not_one)
        terms = [lts[0]] + [
            b.and_(lts[i], prefixes[i]) for i in range(1, p)
        ]
        return _or_tree(b, terms)

    lts = [
        b.xor(y_planes[i], b.and_(x_planes[i], y_planes[i]))
        for i in range(p)
    ]
    prefixes = _triangle_scan(b, eqs)
    terms = [lts[0]] + [b.and_(lts[i], prefixes[i]) for i in range(1, p)]
    return b.xor_all(terms)


def _uniform_scan(b: IrBuilder, eqs: Sequence[int], not_one: int) -> List[int]:
    p = len(eqs)
    scan = list(eqs)
    offset = 1
    while offset < p:
        scan = [
            b.and_(scan[i], scan[i - offset] if i >= offset else not_one)
            for i in range(p)
        ]
        offset *= 2
    return [scan[0]] + scan[: p - 1]


def _triangle_scan(b: IrBuilder, eqs: Sequence[int]) -> List[int]:
    p = len(eqs)
    scan = list(eqs)
    offset = 1
    while offset < p:
        nxt = list(scan)
        for i in range(offset, p):
            nxt[i] = b.and_(scan[i], scan[i - offset])
        scan = nxt
        offset *= 2
    return [scan[0]] + scan[: p - 1]


def _or_tree(b: IrBuilder, terms: Sequence[int]) -> int:
    layer = list(terms)
    while len(layer) > 1:
        nxt = []
        for i in range(0, len(layer) - 1, 2):
            x, y = layer[i], layer[i + 1]
            nxt.append(b.xor(b.xor(x, y), b.and_(x, y)))
        if len(layer) % 2 == 1:
            nxt.append(layer[-1])
        layer = nxt
    return layer[0]


def _emit_matvec(
    b: IrBuilder, diagonals: Sequence[int], rows: int, cols: int, vector: int
) -> int:
    products = []
    for i, diagonal in enumerate(diagonals):
        rotated = b.rotate(vector, i) if i else vector
        if rows > cols:
            rotated = b.extend(rotated, rows)
        elif rows < cols:
            rotated = b.truncate(rotated, rows)
        products.append(b.and_(diagonal, rotated))
    return b.xor_all(products)
