"""Compiled inference plans: the optimizer as a load-bearing layer.

``lower_inference`` / ``lower_batched_inference`` stage a compiled COPSE
model's *entire* live pipeline — SecComp bit-plane comparison, reshuffle
matmul, level products, label accumulation — into one
:class:`~repro.ir.nodes.IrGraph`, and wrap it in an
:class:`InferencePlan`: the optimized graph, its input-binding spec, and
the raw-vs-optimized analyses (op counts, multiplicative depth, and
cost-model milliseconds).  Staging is one pass: the
:class:`~repro.ir.builder.IrBuilder` shares and fuses as it emits, so
only dead code elimination is left to run, and the *raw* analyses are
its emission tally — the profile of one node per combinator call —
without a naive graph ever being built.

A plan is compiled **once per model** and executed per query (or per
batch): :class:`~repro.serve.registry.ModelRegistry` caches a batched
plan next to the encrypted model ciphertexts, and
:class:`~repro.core.runtime.CopseServer` /
:class:`~repro.serve.batched_runtime.BatchedCopseServer` select it with
``engine="plan"``.  The batched lowering asks for the block-local
masked gathers of :mod:`repro.serve.batched_runtime` once per (level,
diagonal), as the algorithm reads; a gather already emitted is replayed
from the builder's memo, so every level shares one set — what the
batched runtime schedules by hand — while the raw tally still counts
each request (the regression guard in ``tests/bench/test_plan_baseline.py``
holds both).

This module deliberately imports nothing from :mod:`repro.serve`: the
batch geometry is consumed duck-typed (``stride`` / ``capacity`` / the
per-stage widths), keeping the dependency arrow serve -> ir.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.errors import CompileError, RuntimeProtocolError
from repro.core.compiler import CompiledModel
from repro.core.engines import PHASE_PLAN
from repro.core.seccomp import SECCOMP_VARIANTS, VARIANT_ALOUFI
from repro.fhe.ciphertext import Ciphertext
from repro.fhe.context import FheContext, Vector
from repro.fhe.costmodel import CostModel
from repro.ir.builder import IrBuilder
from repro.ir.copse_ir import (
    FEATURE_PLANE,
    LEVEL_DIAG,
    LEVEL_MASK,
    NOT_ONE,
    OUTPUT_LABELS,
    RESHUFFLE_DIAG,
    THRESHOLD_PLANE,
    _emit_inference,
    _emit_seccomp,
)
from repro.ir.executor import execute
from repro.ir.nodes import IrGraph, IrOp, pack_const
from repro.ir.passes import (
    analyze_profile,
    cost_of_counts,
    dead_code_elimination,
)

__all__ = [
    "GraphProfile",
    "InferencePlan",
    "bind_model_query",
    "bind_query_inputs",
    "build_batched_inference_graph",
    "gather_segments",
    "lower_batched_inference",
    "lower_inference",
    "tile_blocks",
]


def bind_query_inputs(
    ctx: FheContext, input_widths: Dict[str, int], query
) -> Dict[str, Vector]:
    """The inputs a query supplies: its feature planes and, for the
    Aloufi variant, the all-ones helper encrypted under its public key
    (the query's share of :func:`bind_model_query`)."""
    bindings: Dict[str, Vector] = {
        name: plane
        for name, plane in zip(_plane_names(len(query.planes)), query.planes)
        if name in input_widths
    }
    if NOT_ONE in input_widths:
        if query.public_key is None:
            raise RuntimeProtocolError(
                "the Aloufi SecComp variant needs the query's public "
                "key to encrypt the all-ones helper"
            )
        # This runs once per ciphertext on every engine: the bulk
        # encrypt adopts the one cached row instead of copying a fresh
        # ``np.ones``.
        ones = _ones_row(input_widths[NOT_ONE])
        encrypt_many = getattr(ctx, "encrypt_many", None)
        bindings[NOT_ONE] = (
            encrypt_many(ones, query.public_key)[0]
            if encrypt_many is not None
            else ctx.encrypt(ones[0], query.public_key)
        )
    return bindings


@lru_cache(maxsize=64)
def _plane_names(count: int) -> Tuple[str, ...]:
    """The input names of ``count`` feature planes, in order."""
    return tuple(FEATURE_PLANE.format(i=i) for i in range(count))


@lru_cache(maxsize=64)
def _ones_row(width: int) -> np.ndarray:
    """A read-only ``(1, width)`` block of ones, shared by every helper
    encryption of that width."""
    row = np.ones((1, width), dtype=np.uint8)
    row.flags.writeable = False
    return row


def check_model_bundle(encrypted_model: bool,
                       model_fingerprint: Optional[str], model) -> None:
    """Refuse a runtime model bundle the program was not lowered for:
    the opposite encryption, or another model's fingerprint (None
    ``model``: nothing to check)."""
    if model is None:
        return
    if model.is_encrypted != encrypted_model:
        raise RuntimeProtocolError(
            f"plan was lowered for an "
            f"{'encrypted' if encrypted_model else 'plaintext'} "
            f"model but received the opposite"
        )
    if model_fingerprint is not None:
        # Fail closed: a bundle without a fingerprint (hand-built, not
        # via ModelOwner/build_batched_model) cannot prove it is the
        # model this program was lowered for.
        model_fp = getattr(model, "fingerprint", None)
        if model_fp != model_fingerprint:
            raise RuntimeProtocolError(
                f"plan was lowered for model {model_fingerprint} "
                f"but received model {model_fp}; lower a plan for this "
                f"model (or register it, which does)"
            )


def bind_model_query(
    ctx: FheContext,
    input_widths: Dict[str, int],
    encrypted_model: bool,
    model_fingerprint: Optional[str],
    model,
    query,
) -> Dict[str, Vector]:
    """Bind a runtime model bundle + encrypted query onto named inputs.

    The single source of the binding rules shared by
    :meth:`InferencePlan.bindings_for` and the compiled tape of
    :mod:`repro.ir.tape`: model structures bind only for encrypted-model
    lowerings (plaintext-model programs baked them in as constants), the
    Aloufi all-ones helper is encrypted under the query's public key,
    inputs the optimizer eliminated are skipped, and a bundle that
    cannot prove — via :meth:`CompiledModel.fingerprint` — that it is
    the model the program was lowered for is refused (fail closed).
    """
    check_model_bundle(encrypted_model, model_fingerprint, model)
    bindings = bind_query_inputs(ctx, input_widths, query)
    if encrypted_model:
        for i, vec in enumerate(model.threshold_planes):
            bindings[THRESHOLD_PLANE.format(i=i)] = vec
        for i, vec in enumerate(model.reshuffle_diagonals):
            bindings[RESHUFFLE_DIAG.format(i=i)] = vec
        for level, diagonals in enumerate(model.level_diagonals):
            for i, vec in enumerate(diagonals):
                bindings[LEVEL_DIAG.format(level=level, i=i)] = vec
        for level, mask in enumerate(model.level_masks):
            bindings[LEVEL_MASK.format(level=level)] = mask
    return {
        name: value
        for name, value in bindings.items()
        if name in input_widths
    }


# ---------------------------------------------------------------------------
# Analyses snapshot
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class GraphProfile:
    """Static analyses of one graph (kept after the graph is dropped)."""

    num_nodes: int
    depth: int
    counts: Dict[IrOp, int] = field(default_factory=dict)

    @classmethod
    def of(cls, graph: IrGraph) -> "GraphProfile":
        counts, depth = analyze_profile(graph)
        return cls(num_nodes=graph.num_nodes, depth=depth, counts=counts)

    @classmethod
    def emitted(cls, builder: IrBuilder) -> "GraphProfile":
        """The profile of every combinator call ``builder`` was asked
        for: :meth:`of` the graph a build that never shares would make."""
        nodes, counts, depth = builder.emitted()
        return cls(num_nodes=nodes, depth=depth, counts=counts)

    def count(self, op: IrOp) -> int:
        return self.counts.get(op, 0)

    @property
    def rotations(self) -> int:
        """Rotation work: ROTATE plus EXTEND (an extension costs one)."""
        return self.count(IrOp.ROTATE) + self.count(IrOp.EXTEND)

    @property
    def multiplies(self) -> int:
        return self.count(IrOp.MULTIPLY)

    def cost_ms(self, cost_model: CostModel) -> float:
        """Simulated sequential ms of the profiled ciphertext operations."""
        return cost_of_counts(self.counts, cost_model)


# ---------------------------------------------------------------------------
# The plan object
# ---------------------------------------------------------------------------


@dataclass
class InferencePlan:
    """An optimized, executable lowering of one model's inference pipeline.

    ``graph`` is the (optimized) IR; ``raw`` profiles the naive emission
    (one node per combinator call, tallied by the builder) and
    ``optimized`` the graph itself, so callers can report what sharing
    bought without re-lowering.  The input-binding spec is
    the graph's named-input table: :meth:`bindings_for` maps a runtime
    model bundle (:class:`~repro.core.runtime.EncryptedModel` or the
    batched equivalent — both expose ``threshold_planes`` /
    ``reshuffle_diagonals`` / ``level_diagonals`` / ``level_masks``) and
    an :class:`~repro.core.runtime.EncryptedQuery` onto those names.
    """

    graph: IrGraph
    variant: str
    encrypted_model: bool
    raw: GraphProfile
    optimized: GraphProfile
    #: Total slot width of one execution (stride * capacity for batched
    #: plans, the per-query width otherwise).
    width: int = 0
    #: None for single-query plans; (stride, capacity) for batched ones.
    batch_shape: Optional[Tuple[int, int]] = None
    #: :meth:`CompiledModel.fingerprint` of the lowered model; checked
    #: against the runtime bundle at bind time so a cached plan never
    #: silently serves a different (even shape-identical) model.
    model_fingerprint: Optional[str] = None

    @property
    def batched(self) -> bool:
        return self.batch_shape is not None

    @property
    def input_names(self) -> List[str]:
        """The binding spec: every named input the plan may consume."""
        return sorted(self.graph.inputs)

    @property
    def input_widths(self) -> Dict[str, int]:
        """Declared width of every named input (the binding spec)."""
        return {
            name: self.graph.node(nid).width
            for name, nid in self.graph.inputs.items()
        }

    @property
    def rotations_saved(self) -> int:
        return self.raw.rotations - self.optimized.rotations

    def cost_ms(self, cost_model: CostModel) -> float:
        return self.optimized.cost_ms(cost_model)

    def speedup(self, cost_model: CostModel) -> float:
        opt = self.optimized.cost_ms(cost_model)
        if opt <= 0:
            return float("inf")
        return self.raw.cost_ms(cost_model) / opt

    def describe(self) -> str:
        shape = (
            f"batched {self.batch_shape[1]}x{self.batch_shape[0]}"
            if self.batched
            else "single-query"
        )
        return (
            f"plan[{shape}, {self.variant}, "
            f"{'encrypted' if self.encrypted_model else 'plaintext'} model]: "
            f"nodes {self.raw.num_nodes}->{self.optimized.num_nodes}, "
            f"rotations {self.raw.rotations}->{self.optimized.rotations}, "
            f"depth {self.optimized.depth}"
        )

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------

    def bindings_for(self, ctx: FheContext, model, query) -> Dict[str, Vector]:
        """Bind a runtime model bundle and encrypted query to the graph.

        Model structures lower to named inputs only under
        ``encrypted_model=True``; a plaintext-model plan baked them in as
        constants, so only the query planes (and the Aloufi all-ones
        helper) bind.  Inputs the optimizer eliminated are skipped.
        """
        return bind_model_query(
            ctx,
            self.input_widths,
            self.encrypted_model,
            self.model_fingerprint,
            model,
            query,
        )

    def run(
        self,
        ctx: FheContext,
        model,
        query,
        phase: Optional[str] = PHASE_PLAN,
    ) -> Ciphertext:
        """Execute the plan; returns the encrypted label bitvector.

        Everything — including the Aloufi all-ones helper encryption —
        records under ``phase`` so per-engine stats stay comparable with
        the eager path (whose helper lands in its comparison phase).
        """
        if phase is not None:
            with ctx.tracker.phase(phase):
                return self._run(ctx, model, query)
        return self._run(ctx, model, query)

    def _run(self, ctx: FheContext, model, query) -> Ciphertext:
        bindings = self.bindings_for(ctx, model, query)
        outputs = execute(self.graph, ctx, bindings, phase=None)
        result = outputs[OUTPUT_LABELS]
        if not isinstance(result, Ciphertext):  # pragma: no cover
            raise RuntimeProtocolError("plan result must be encrypted")
        return result

    # ------------------------------------------------------------------
    # Tape compilation
    # ------------------------------------------------------------------

    def compile_tape(self, fuse: bool = True) -> "CompiledTape":
        """Compile this plan into a :class:`~repro.ir.tape.CompiledTape`.

        Runs the rotation scheduler over the optimized graph, linearizes
        it with liveness-based register reuse, and (with ``fuse=True``)
        emits fused accumulation instructions.  The tape inherits the
        plan's binding spec, batch shape, and fail-closed model
        fingerprint.  Compile once, execute per batch —
        :class:`~repro.serve.registry.ModelRegistry` caches the tape
        next to the plan.
        """
        from repro.ir.tape import compile_tape

        return compile_tape(
            self.graph,
            fuse=fuse,
            variant=self.variant,
            encrypted_model=self.encrypted_model,
            width=self.width,
            batch_shape=self.batch_shape,
            model_fingerprint=self.model_fingerprint,
        )


# ---------------------------------------------------------------------------
# Single-query lowering
# ---------------------------------------------------------------------------


def lower_inference(
    compiled: CompiledModel,
    encrypted_model: bool = True,
    variant: str = VARIANT_ALOUFI,
    optimize_graph: bool = True,
) -> InferencePlan:
    """Lower one model's full single-query pipeline into a plan.

    The emission is :func:`~repro.ir.copse_ir.build_inference_graph`'s,
    shared as it is built; ``optimize_graph=False`` keeps its dead nodes
    (the plan's ``optimized`` profile is then that graph's).
    """
    return _plan(
        _emit_inference(compiled, encrypted_model, variant),
        optimize_graph,
        variant=variant,
        encrypted_model=encrypted_model,
        width=compiled.num_labels,
        model_fingerprint=compiled.fingerprint(),
    )


def _plan(b: IrBuilder, optimize_graph: bool, **fields) -> InferencePlan:
    """A plan of ``b``'s build: raw = its emission tally, optimized = the
    graph it keeps (dead code dropped unless ``optimize_graph`` is off)."""
    graph = b.build()
    if optimize_graph:
        graph = dead_code_elimination(graph)
    return InferencePlan(
        graph=graph,
        raw=GraphProfile.emitted(b),
        optimized=GraphProfile.of(graph),
        **fields,
    )


# ---------------------------------------------------------------------------
# Batched lowering
# ---------------------------------------------------------------------------


def tile_blocks(vector, stride: int, capacity: int) -> np.ndarray:
    """Pad a per-query model vector to ``stride`` and tile it per block.

    The canonical tiling both the batched lowering and
    :func:`repro.serve.packing.tile_model_vector` use (serve delegates
    here, so the plan's baked constants and the eager runtime's tiled
    vectors cannot drift apart).  A 2-D block tiles each of its rows.
    """
    arr = np.asarray(vector, dtype=np.uint8)
    width = arr.shape[-1] if arr.ndim in (1, 2) else arr.size
    if arr.ndim not in (1, 2) or arr.size == 0 or width > stride:
        raise CompileError(
            f"model vector of length {width} does not fit the "
            f"stride {stride}"
        )
    padded = np.zeros(arr.shape[:-1] + (stride,), dtype=np.uint8)
    padded[..., :width] = arr
    return np.tile(padded, (1,) * (arr.ndim - 1) + (capacity,))


def gather_segments(shift: int, width: int, rows: int) -> List[Tuple[int, int, int]]:
    """The (rotation, lo, hi) segments of one block-local gather.

    The canonical decomposition both the batched lowering and
    :func:`repro.serve.batched_runtime.block_gather` use: segment ``m``
    supplies block offsets ``t`` with ``floor((t + shift) / width) == m``
    from the global rotation by ``shift - m * width``.
    """
    segments: List[Tuple[int, int, int]] = []
    for m in range((rows - 1 + shift) // width + 1):
        lo = max(0, m * width - shift)
        hi = min(rows, (m + 1) * width - shift)
        if lo < hi:
            segments.append((shift - m * width, lo, hi))
    return segments


def _emit_gather(
    b: IrBuilder,
    layout,
    masks: Dict[Tuple[int, int], bytes],
    vector: int,
    shift: int,
    width: int,
    rows: int,
) -> int:
    """Emit ``out[k*S+t] = v[k*S + (t+shift) % width]`` for every block.

    Memoized per ``(vector, shift, width, rows)`` in ``b``
    (:meth:`~repro.ir.builder.IrBuilder.replay`): the level matvecs ask
    for the same gathers of the branch vector at every level, and a
    repeat returns the first one's node, tallied as if re-emitted.
    ``masks`` is the graph's block-mask cache: the selection mask of
    offsets ``[lo, hi)`` is tiled and validated once per graph, however
    many gathers select that range.
    """

    def emit() -> int:
        if not 0 <= shift < width:
            raise CompileError(
                f"gather shift {shift} outside the logical width {width}"
            )
        if rows < 1 or rows > layout.stride or width > layout.stride:
            raise CompileError(
                f"gather shape rows={rows} width={width} exceeds the "
                f"stride {layout.stride}"
            )
        segments = gather_segments(shift, width, rows)
        if len(segments) == 1:
            # One segment needs no selection mask: the caller's diagonal
            # product zeroes everything outside the consumed offsets.
            return b.rotate(vector, segments[0][0])
        terms: List[int] = []
        for amount, lo, hi in segments:
            rotated = b.rotate(vector, amount)
            payload = masks.get((lo, hi))
            if payload is None:
                block = np.zeros(layout.stride, dtype=np.uint8)
                block[lo:hi] = 1
                payload = pack_const(np.tile(block, layout.capacity))
                masks[(lo, hi)] = payload
            terms.append(b.and_(rotated, b.const_packed(payload)))
        return b.xor_all(terms)

    return b.replay(("gather", vector, shift, width, rows), emit)


def _emit_batched_matvec(
    b: IrBuilder,
    layout,
    masks: Dict[Tuple[int, int], bytes],
    diagonals: Sequence[int],
    rows: int,
    cols: int,
    vector: int,
) -> int:
    """Halevi-Shoup product applied independently inside every block."""
    products = [
        b.and_(
            diagonal, _emit_gather(b, layout, masks, vector, i, cols, rows)
        )
        for i, diagonal in enumerate(diagonals)
    ]
    return b.xor_all(products)


def build_batched_inference_graph(
    compiled: CompiledModel,
    layout,
    encrypted_model: bool = True,
    variant: str = VARIANT_ALOUFI,
) -> IrGraph:
    """Emit the batched Algorithm 1 for ``model`` as an IR graph.

    ``layout`` is a :class:`~repro.serve.packing.BatchLayout` (duck-typed:
    ``stride``/``capacity`` plus the per-stage widths).  Every vector
    spans ``stride * capacity`` slots; cyclic accesses are the batched
    runtime's masked-rotation gathers, requested once per (level,
    diagonal) and emitted once per distinct gather, so the graph shares
    the cross-level work as built (dead nodes may remain).
    """
    return _emit_batched(compiled, layout, encrypted_model, variant).build()


def _emit_batched(
    compiled: CompiledModel,
    layout,
    encrypted_model: bool = True,
    variant: str = VARIANT_ALOUFI,
) -> IrBuilder:
    """:func:`build_batched_inference_graph`'s builder, with its tally."""
    if variant not in SECCOMP_VARIANTS:
        raise CompileError(f"unknown SecComp variant {variant!r}")
    b = IrBuilder()
    masks: Dict[Tuple[int, int], bytes] = {}
    width = layout.stride * layout.capacity
    p = compiled.precision

    x_planes = [
        b.input_ct(FEATURE_PLANE.format(i=i), width) for i in range(p)
    ]

    def model_vector(name: str, bits) -> int:
        if encrypted_model:
            return b.input_ct(name, width)
        return b.const(tile_blocks(bits, layout.stride, layout.capacity))

    y_planes = [
        model_vector(THRESHOLD_PLANE.format(i=i), compiled.threshold_planes[i])
        for i in range(p)
    ]
    not_one = None
    if variant == VARIANT_ALOUFI:
        not_one = b.input_ct(NOT_ONE, width)

    decisions = _emit_seccomp(b, x_planes, y_planes, variant, not_one)

    reshuffle_diags = [
        model_vector(RESHUFFLE_DIAG.format(i=i), compiled.reshuffle.diagonal(i))
        for i in range(compiled.quantized_branching)
    ]
    branches = _emit_batched_matvec(
        b,
        layout,
        masks,
        reshuffle_diags,
        rows=compiled.branching,
        cols=compiled.quantized_branching,
        vector=decisions,
    )

    level_results: List[int] = []
    for level in range(compiled.max_depth):
        matrix = compiled.level_matrices[level]
        diags = [
            model_vector(
                LEVEL_DIAG.format(level=level, i=i), matrix.diagonal(i)
            )
            for i in range(compiled.branching)
        ]
        product = _emit_batched_matvec(
            b,
            layout,
            masks,
            diags,
            rows=compiled.num_labels,
            cols=compiled.branching,
            vector=branches,
        )
        mask = model_vector(
            LEVEL_MASK.format(level=level), compiled.level_masks[level]
        )
        level_results.append(b.xor(product, mask))

    b.output(OUTPUT_LABELS, b.and_all(level_results))
    return b


def lower_batched_inference(
    compiled: CompiledModel,
    layout,
    encrypted_model: bool = True,
    variant: str = VARIANT_ALOUFI,
    optimize_graph: bool = True,
) -> InferencePlan:
    """Lower one model's batched pipeline (for ``layout``) into a plan."""
    return _plan(
        _emit_batched(compiled, layout, encrypted_model, variant),
        optimize_graph,
        variant=variant,
        encrypted_model=encrypted_model,
        width=layout.stride * layout.capacity,
        batch_shape=(layout.stride, layout.capacity),
        model_fingerprint=compiled.fingerprint(),
    )
