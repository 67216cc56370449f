"""Batched Algorithm 1: one vectorized pipeline over many packed queries.

The single-query runtime (:mod:`repro.core.runtime`) rotates ciphertexts
cyclically over the *logical* vector width.  With ``B`` queries packed as
blocks of stride ``S``, a plain rotation would bleed slots across block
boundaries, so the batched runtime replaces every cyclic access with a
**block-local gather**: to read ``v[(t + shift) mod w]`` inside every
block simultaneously, it combines a small number of globally rotated,
plaintext-masked copies —

    out[k*S + t] = v[k*S + (t + shift) mod w]
                 = XOR_m  rotate(v, shift - m*w) AND mask_m

where segment ``m`` covers the block offsets ``t`` with
``floor((t + shift) / w) == m``.  Within a block, ``t + shift - m*w``
always lands back in ``[0, w)``, and because the stride bounds every
logical width, no masked rotation ever crosses a block boundary.  A
gather costs at most ``ceil(rows/w) + 1`` rotations plus the masks —
amortized over the whole batch, versus one rotation *per query* in the
unbatched path — while every slot-wise stage (the SecComp comparison,
the diagonal products, the accumulation) is shared outright.

The circuit is identical for every input shape, so the batched pipeline
preserves the noninterference property of the single-query runtime; its
multiplicative depth is unchanged (gathers add only rotation/constant
slack, never a ciphertext multiply).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from itertools import islice
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.errors import RuntimeProtocolError, ValidationError
from repro.core.compiler import CompiledModel
from repro.core.engines import (
    ENGINE_EAGER,
    PHASE_ACCUMULATE,
    PHASE_DATA_ENCRYPT,
    PHASE_LEVELS,
    PHASE_MODEL_ENCRYPT,
    PHASE_RESHUFFLE,
    artifacts_of,
    engine_row,
    result_of,
    run_artifact,
)
from repro.core.runtime import EncryptedQuery, compare_stage
from repro.core.seccomp import VARIANT_ALOUFI
from repro.fhe.ciphertext import Ciphertext, CiphertextGroup
from repro.fhe.context import FheContext, Vector
from repro.fhe.keys import KeyPair, PublicKey
from repro.fhe.tracker import CountingTracker, OpKind, OpTracker
# The segment decomposition is shared with the batched IR lowering so the
# two execution engines cannot drift apart.
from repro.ir.plan import gather_segments
from repro.serve.packing import (
    BatchLayout,
    demux_group,
    pack_group_planes,
    segment_mask,
    tile_model_vector,
)

#: Tracker phase for re-registering cached model ciphertexts in a fresh
#: per-batch context.  Excluded from inference timings (like model_encrypt);
#: the LOAD operations it records are free in the cost model anyway.
PHASE_MODEL_CACHE = "model_cache"

#: The inference phases of the batched pipeline, in execution order.
BATCH_INFERENCE_PHASES = engine_row(ENGINE_EAGER).phases


@dataclass
class BatchedEncryptedModel:
    """A compiled model padded to the batch stride and tiled per block.

    Structurally the same data as
    :class:`~repro.core.runtime.EncryptedModel`, but every vector spans
    the full batched width so one slot-wise operation applies the model
    to all packed queries.  Built once per registered model and reused
    (via :meth:`adopt_into`) by every batch evaluation.
    """

    layout: BatchLayout
    threshold_planes: List[Vector]
    reshuffle_diagonals: List[Vector]
    level_diagonals: List[List[Vector]]
    level_masks: List[Vector]
    max_depth: int
    #: Source :meth:`CompiledModel.fingerprint`, so cached inference
    #: plans can refuse to execute against a different model.
    fingerprint: Optional[str] = None
    #: Adoption memo, ``(backend class, params) -> (adopted view, LOAD
    #: count)``; see :meth:`adopt_into`.  Never compared, and dropped by
    #: ``__getstate__`` so a shipped bundle pickles as before.
    _adopted: Dict[Tuple, Tuple["BatchedEncryptedModel", int]] = field(
        default_factory=dict, init=False, repr=False, compare=False
    )

    def __getstate__(self):
        state = self.__dict__.copy()
        state["_adopted"] = {}
        return state

    @property
    def is_encrypted(self) -> bool:
        return isinstance(self.threshold_planes[0], Ciphertext)

    def adopt_into(self, ctx: FheContext) -> "BatchedEncryptedModel":
        """Re-register the cached ciphertexts in ``ctx``'s tracker.

        Plaintext vectors carry no tracker state and pass through; each
        ciphertext is adopted as a zero-cost ``LOAD`` leaf under the
        ``model_cache`` phase so the per-batch DAG stays closed without
        re-charging the one-time encryption.

        On a backend with the bulk ``adopt_many`` capability under its
        native :class:`~repro.fhe.tracker.CountingTracker`, the adopted
        view depends only on the backend class and the parameters (a
        ``LOAD`` leaf's node id is always 0 there, payloads are shared,
        the width check reads only ``params``), so it is built once per
        such pair and every later batch replays the ``LOAD`` count and
        gets the *same* bundle object, its plane containers frozen to
        tuples — which is what lets the megakernel keep the model rows
        resident.  A width refusal raises before anything is memoised,
        and a context fitted with a foreign tracker never consults the
        memo: both take the unmemoised path every time.
        """

        adopt_many = getattr(ctx, "adopt_many", None)
        tracker = ctx.tracker
        if adopt_many is not None and type(tracker) is CountingTracker:
            key = (type(ctx), ctx.params)
            memo = self._adopted.get(key)
            if memo is None:
                # One tracker call per plane list instead of one per
                # ciphertext, identical counts and node ids.
                before = tracker.count(OpKind.LOAD, PHASE_MODEL_CACHE)
                with tracker.phase(PHASE_MODEL_CACHE):
                    adopted = BatchedEncryptedModel(
                        layout=self.layout,
                        threshold_planes=tuple(
                            adopt_many(self.threshold_planes)
                        ),
                        reshuffle_diagonals=tuple(
                            adopt_many(self.reshuffle_diagonals)
                        ),
                        level_diagonals=tuple(
                            tuple(adopt_many(level))
                            for level in self.level_diagonals
                        ),
                        level_masks=tuple(adopt_many(self.level_masks)),
                        max_depth=self.max_depth,
                        fingerprint=self.fingerprint,
                    )
                loads = tracker.count(OpKind.LOAD, PHASE_MODEL_CACHE) - before
                # A racing first adoption keeps one winner, so every
                # thread converges on the same bundle object.
                return self._adopted.setdefault(key, (adopted, loads))[0]
            adopted, loads = memo
            if loads:
                with tracker.phase(PHASE_MODEL_CACHE):
                    tracker.record_fused({OpKind.LOAD: loads})
            return adopted

        def _adopt(vec: Vector) -> Vector:
            if isinstance(vec, Ciphertext):
                return ctx.adopt(vec)
            return vec

        with ctx.tracker.phase(PHASE_MODEL_CACHE):
            return BatchedEncryptedModel(
                layout=self.layout,
                threshold_planes=[_adopt(v) for v in self.threshold_planes],
                reshuffle_diagonals=[
                    _adopt(v) for v in self.reshuffle_diagonals
                ],
                level_diagonals=[
                    [_adopt(v) for v in level] for level in self.level_diagonals
                ],
                level_masks=[_adopt(v) for v in self.level_masks],
                max_depth=self.max_depth,
                fingerprint=self.fingerprint,
            )


def build_batched_model(
    ctx: FheContext,
    compiled: CompiledModel,
    layout: BatchLayout,
    public_key: Optional[PublicKey] = None,
) -> BatchedEncryptedModel:
    """Tile a compiled model across the batch and (optionally) encrypt it.

    With ``public_key`` this is the offloading configuration: every tiled
    structure is encrypted once, under the ``model_encrypt`` phase, and
    the resulting ciphertexts are cached for the model's lifetime.
    Without it the model stays in plaintext packed vectors (the
    Maurice-equals-Sally configuration).

    The structures' rows (threshold planes, reshuffle diagonals, each
    level's diagonals, level masks) form one block, padded to the stride,
    tiled once and encrypted by one ``encrypt_many`` where the backend
    has it, row by row otherwise: the same records in the same order.
    """
    parts = [
        compiled.threshold_planes,
        compiled.reshuffle.diagonals,
        *(matrix.diagonals for matrix in compiled.level_matrices),
        compiled.level_masks,
    ]
    block = np.zeros((sum(map(len, parts)), layout.stride), dtype=np.uint8)
    top = 0
    for part in parts:
        part = np.asarray(part, dtype=np.uint8)
        height, width = part.shape
        if not 0 < width <= layout.stride:  # the first misfit, as per vector
            raise ValidationError(
                f"model vector of length {width} does not fit the "
                f"stride {layout.stride}"
            )
        block[top : top + height, :width] = part
        top += height
    block = tile_model_vector(layout, block)

    encrypt_many = getattr(ctx, "encrypt_many", None)
    with ctx.tracker.phase(PHASE_MODEL_ENCRYPT):
        if public_key is None:
            vectors = [ctx.encode(row) for row in block]
        elif encrypt_many is not None:
            vectors = encrypt_many(block, public_key)
        else:
            vectors = [ctx.encrypt(row, public_key) for row in block]
    rows = iter(vectors)
    thresholds, reshuffle, *levels, masks = [
        list(islice(rows, len(part))) for part in parts
    ]
    return BatchedEncryptedModel(
        layout=layout,
        threshold_planes=thresholds,
        reshuffle_diagonals=reshuffle,
        level_diagonals=levels,
        level_masks=masks,
        max_depth=compiled.max_depth,
        fingerprint=compiled.fingerprint(),
    )


def encrypt_batch(
    ctx: FheContext,
    layout: BatchLayout,
    queries,
    keys: KeyPair,
) -> EncryptedQuery:
    """Pack up to ``capacity`` queries and encrypt the shared bit planes.

    One encryption per bit plane serves the whole batch — this is where
    the per-query ``data_encrypt`` cost collapses by a factor of the
    batch fill.  The group of one of :func:`encrypt_planes`.
    """
    return encrypt_planes(ctx, pack_group_planes(layout, [queries]), keys)


def encrypt_planes(
    ctx: FheContext, block: np.ndarray, keys: KeyPair
) -> EncryptedQuery:
    """Encrypt a group's packed ``(k, precision, width)`` plane block
    (:func:`~repro.serve.packing.pack_group_planes`) under
    ``data_encrypt``, as one query of ``k`` ciphertexts per plane.

    By ``encrypt_many`` (the block was built and range-checked by the
    packer, so it is not re-validated plane by plane): for ``k > 1``
    each plane is a :class:`~repro.fhe.ciphertext.CiphertextGroup`,
    booked as the first batch's plane alone; for ``k = 1`` each is a
    ciphertext.  A backend without ``encrypt_many`` encrypts a group of
    one plane by plane and refuses a larger one.
    """
    encrypt_many = getattr(ctx, "encrypt_many", None)
    if encrypt_many is None and len(block) > 1:
        raise RuntimeProtocolError(
            f"a group of {len(block)} batches needs a backend that "
            f"encrypts a block (encrypt_many)"
        )
    with ctx.tracker.phase(PHASE_DATA_ENCRYPT):
        if encrypt_many is not None:
            planes = encrypt_many(block, keys.public)
        else:
            planes = [ctx.encrypt(plane, keys.public) for plane in block[0]]
    return EncryptedQuery(planes=planes, public_key=keys.public)


# ---------------------------------------------------------------------------
# Block-local gathers
# ---------------------------------------------------------------------------


@lru_cache(maxsize=4096)
def _mask_plain(layout: BatchLayout, lo: int, hi: int) -> "PlainVector":
    """The encoded selection mask for one gather segment.

    Masks depend only on the (hashable, frozen) layout and the segment
    bounds, and :class:`~repro.fhe.ciphertext.PlainVector` is immutable,
    so one encoding serves every batch of every model sharing the
    geometry — this keeps mask construction off the per-batch hot path.
    """
    from repro.fhe.ciphertext import PlainVector

    return PlainVector(segment_mask(layout, lo, hi))


def block_gather(
    ctx: FheContext,
    vector: Ciphertext,
    shift: int,
    width: int,
    rows: int,
    layout: BatchLayout,
) -> Ciphertext:
    """Block-local cyclic access: ``out[k*S+t] = v[k*S + (t+shift) % width]``.

    Valid at block offsets ``t in [0, rows)``; slots beyond each block's
    ``rows`` are zero or unspecified and must be masked by the caller's
    diagonal product (COPSE's diagonals are zero outside their logical
    length, so the Halevi-Shoup AND does exactly that).

    ``width`` is the logical width the rotation wraps over (the current
    stage's per-query vector length); ``rows`` is how many output offsets
    the caller consumes — more than ``width`` when the target matrix has
    more rows than columns (the cyclic extension of Section 4.1.2).
    """
    if not 0 <= shift < width:
        raise RuntimeProtocolError(
            f"gather shift {shift} outside the logical width {width}"
        )
    if rows < 1 or rows > layout.stride or width > layout.stride:
        raise RuntimeProtocolError(
            f"gather shape rows={rows} width={width} exceeds the "
            f"stride {layout.stride}"
        )
    segments = gather_segments(shift, width, rows)

    if len(segments) == 1:
        amount, _, _ = segments[0]
        # A single segment needs no selection mask: every consumed offset
        # comes from the same rotation, and the caller's diagonal zeroes
        # the rest of the block.
        return ctx.rotate(vector, amount) if amount else vector

    terms: List[Vector] = []
    for amount, lo, hi in segments:
        rotated = ctx.rotate(vector, amount) if amount else vector
        terms.append(ctx.and_any(rotated, _mask_plain(layout, lo, hi)))
    combined = ctx.xor_all(terms)
    if not isinstance(combined, Ciphertext):  # pragma: no cover
        raise RuntimeProtocolError("gather of a ciphertext must stay encrypted")
    return combined


def batched_matvec(
    ctx: FheContext,
    diagonals: List[Vector],
    rows: int,
    cols: int,
    vector: Ciphertext,
    layout: BatchLayout,
) -> Vector:
    """Halevi-Shoup product applied independently inside every block.

    ``diagonals`` are the model's generalized diagonals, already tiled to
    the batched width; ``rows``/``cols`` are the per-query matrix shape.
    The only change from :func:`repro.core.matmul.halevi_shoup_matvec` is
    that each rotation becomes a block-local gather.
    """
    products: List[Vector] = []
    for i, diagonal in enumerate(diagonals):
        gathered = block_gather(ctx, vector, i, cols, rows, layout)
        products.append(ctx.and_any(diagonal, gathered))
    return ctx.xor_all(products)


# ---------------------------------------------------------------------------
# The batched server
# ---------------------------------------------------------------------------


class BatchedCopseServer:
    """Sally with cross-query SIMD packing: Algorithm 1 over a batch.

    The four stages mirror :class:`~repro.core.runtime.CopseServer` —
    comparison, reshuffle, levels, accumulate — recorded under the same
    tracker phases so every existing per-phase report applies unchanged.

    ``engine="plan"`` executes a cached batched
    :class:`~repro.ir.plan.InferencePlan` (from
    :func:`~repro.ir.plan.lower_batched_inference`, lowered for the same
    layout) instead — one optimized IR graph, recorded under the
    ``plan_inference`` phase.  ``engine="tape"`` (the serve default)
    executes the plan's compiled :class:`~repro.ir.tape.CompiledTape`
    under ``tape_inference`` — the same bits with scheduled rotations,
    register reuse, and fused kernels.  ``engine="megakernel"`` executes
    the tape's :class:`~repro.ir.megakernel.MegaKernel` compilation
    under ``megakernel_inference`` — zero per-instruction dispatch on
    capable backends, the tape loop elsewhere, same bits everywhere.
    """

    def __init__(
        self,
        ctx: FheContext,
        seccomp_variant: str = VARIANT_ALOUFI,
        engine: str = ENGINE_EAGER,
        plan=None,
        tape=None,
        megakernel=None,
    ):
        engine_row(engine)  # refuses an unknown name
        self.ctx = ctx
        self.seccomp_variant = seccomp_variant
        self.engine = engine
        self.plan = plan
        self.tape = tape
        self.megakernel = megakernel

    def classify_batch(
        self, model: BatchedEncryptedModel, query: EncryptedQuery
    ):
        """One ciphertext of queries through Algorithm 1: its result
        ciphertext.

        A grouped query (:attr:`EncryptedQuery.group_size
        <repro.core.runtime.EncryptedQuery.group_size>` ``> 1``) runs
        only on an artifact with ``group_limit`` (the megakernel), as
        one pass answered by the
        :class:`~repro.fhe.ciphertext.CiphertextGroup` of its results;
        every other engine evaluates one ciphertext at a time and
        refuses it.
        """
        row = engine_row(self.engine)
        artifact = None if row.artifact is None else getattr(
            self, row.artifact
        )
        count = query.group_size
        if count > 1 and getattr(artifact, "group_limit", None) is None:
            raise RuntimeProtocolError(
                f"engine {self.engine!r} evaluates one ciphertext at a "
                f"time, not a group of {count}"
            )
        local = self._admit(model, query)
        if row.artifact is None:
            return self._interpret(local, query)
        layout = model.layout
        return run_artifact(
            row, artifact, self.ctx, local, query, self.seccomp_variant,
            batch_shape=(layout.stride, layout.capacity),
        )

    def _admit(
        self, model: BatchedEncryptedModel, query: EncryptedQuery
    ) -> BatchedEncryptedModel:
        """Refuse a batch packed for another layout; adopt the model."""
        layout = model.layout
        if query.precision != layout.precision:
            raise RuntimeProtocolError(
                f"batch precision {query.precision} does not match the "
                f"model precision {layout.precision}"
            )
        if query.width != layout.batched_width:
            raise RuntimeProtocolError(
                f"batch width {query.width} does not match the layout "
                f"width {layout.batched_width}; was the batch packed "
                f"with the model's layout?"
            )
        return model.adopt_into(self.ctx)

    def _interpret(
        self, local: BatchedEncryptedModel, query: EncryptedQuery
    ) -> Ciphertext:
        """The hand-scheduled interpreter (``engine="eager"``)."""
        ctx = self.ctx
        layout = local.layout
        decisions = compare_stage(
            ctx, query, local.threshold_planes, self.seccomp_variant
        )

        with ctx.tracker.phase(PHASE_RESHUFFLE):
            branches = batched_matvec(
                ctx,
                local.reshuffle_diagonals,
                rows=layout.branching,
                cols=layout.quantized_branching,
                vector=decisions,
                layout=layout,
            )

        with ctx.tracker.phase(PHASE_LEVELS):
            level_results = self._process_levels(local, branches)

        with ctx.tracker.phase(PHASE_ACCUMULATE):
            result = ctx.multiply_all(level_results)

        if not isinstance(result, Ciphertext):  # pragma: no cover
            raise RuntimeProtocolError("batched result must be encrypted")
        return result

    def _process_levels(
        self, model: BatchedEncryptedModel, branches: Vector
    ) -> List[Vector]:
        """All levels against shared block-gathered branch vectors.

        As in the single-query runtime, the gathers of the branch vector
        are identical across levels, so they are computed once and reused
        by all ``d`` diagonal products.
        """
        ctx = self.ctx
        layout = model.layout
        if not isinstance(branches, Ciphertext):  # pragma: no cover
            raise RuntimeProtocolError("branch decisions must be encrypted")
        b = layout.branching
        gathered = [
            block_gather(
                ctx, branches, i, width=b, rows=layout.num_labels,
                layout=layout,
            )
            for i in range(b)
        ]
        results: List[Vector] = []
        for level_index in range(model.max_depth):
            diagonals = model.level_diagonals[level_index]
            mask = model.level_masks[level_index]
            products: List[Vector] = []
            for i, diagonal in enumerate(diagonals):
                products.append(ctx.and_any(diagonal, gathered[i]))
            level_decisions = ctx.xor_all(products)
            results.append(ctx.xor_any(level_decisions, mask))
        return results


# ---------------------------------------------------------------------------
# The one batch-evaluation routine
# ---------------------------------------------------------------------------


@dataclass
class BatchEvaluation:
    """What one evaluated batch produced, before anyone is told.

    ``phase_ms``, ``inference_ms`` and ``phase_op_counts`` are a pure
    function of the tracker's counts: the batches of one call whose
    counts are equal share these very objects, and the batches of one
    group share its tracker too.  Read them, never change them.
    """

    engine: str
    bitvectors: List[List[int]]
    #: Cost-model ms per phase: ``data_encrypt`` plus the engine's own.
    phase_ms: Dict[str, float]
    inference_ms: float
    #: Per-query oracle agreement (None when verification was off or the
    #: model has no source forest).
    oracle_ok: Optional[List[bool]]
    #: The batch's book: what it recorded, evaluated alone or in a group.
    tracker: OpTracker
    #: Operation counts per tracker phase, ``{phase: {op: n}}``.
    phase_op_counts: Dict[str, Dict[str, int]] = field(default_factory=dict)

    @property
    def data_encrypt_ms(self) -> float:
        return self.phase_ms[PHASE_DATA_ENCRYPT]


def evaluate_registered_batch(
    registered,
    features: List[List[int]],
    engine: Optional[str] = None,
    verify_oracle: bool = False,
    on_stage: Optional[Callable[[str], None]] = None,
) -> BatchEvaluation:
    """Run one batch of validated features through the whole pipeline:
    the group of one of :func:`evaluate_registered_batches`."""
    return result_of(evaluate_registered_batches(
        registered, [features], engine, verify_oracle, on_stage
    )[0])


class _InFlight:
    """One ciphertext of a call on its way through the routine."""

    __slots__ = ("features", "bitvectors", "oracle_ok", "outcome")

    def __init__(self, features):
        self.features = features
        self.oracle_ok = None
        #: The finished :class:`BatchEvaluation`, or what this
        #: ciphertext raised (the later stages then skip it).
        self.outcome = None

    def attempt(self, step: Callable[..., None], *args) -> None:
        if self.outcome is None:
            try:
                step(self, *args)
            except Exception as exc:
                self.outcome = exc


class _Group:
    """Batches of one call that go through the pipeline as one: one
    context, one encryption, one pass, one decryption and one book,
    which each of them would book alone.  On an engine that evaluates
    one ciphertext at a time, every group is one batch."""

    __slots__ = ("flights", "ctx", "server", "query", "result")

    def __init__(self, flights: List[_InFlight]):
        self.flights = flights


def _advance(groups: List[_Group], steps, step) -> List[_Group]:
    """``step`` on every group; the groups still going, in order.

    A batch alone that raises is done: the exception is its outcome.  A
    group of many that raises goes again batch by batch, each from the
    first step, so the error fails only the batch it comes from.
    """
    going = []
    for group in groups:
        try:
            step(group)
        except Exception as exc:
            if len(group.flights) == 1:
                group.flights[0].outcome = exc
                continue
            for flight in group.flights:
                alone = _Group([flight])
                try:
                    for done in steps[: steps.index(step) + 1]:
                        done(alone)
                except Exception as error:
                    flight.outcome = error
                else:
                    going.append(alone)
        else:
            going.append(group)
    return going


def _book(tracker) -> List[Tuple[str, List[Tuple[OpKind, int]]]]:
    """Every phase's counts, in recording order: equal books price and
    count alike, float sum for float sum."""
    stats = tracker.phase_stats
    return [
        (phase, list(stats(phase).counts.items()))
        for phase in tracker.phases
    ]


def evaluate_registered_batches(
    registered,
    batches: Sequence[List[List[int]]],
    engine: Optional[str] = None,
    verify_oracle: bool = False,
    on_stage: Optional[Callable[[str], None]] = None,
) -> List:
    """Run batches of validated features through the whole pipeline.

    Per batch (one ciphertext of up to ``capacity`` queries): pack +
    encrypt, execute, decrypt, demux, cost-model phase attribution,
    oracle — on a fresh :class:`FheContext` built on the registered
    model's backend, so evaluations never share tracker state with
    anything but their own group.  A group is as many batches as the
    engine's artifact runs in one pass (``group_limit``: the
    megakernel's eight on a backend with ``megakernel_ops``, else one),
    and what is the same for all of them is done once: they are packed
    as one ``(k, precision, width)`` block, encrypted and booked as one
    query of ``k`` ciphertexts per plane (a
    :class:`~repro.fhe.ciphertext.CiphertextGroup` each), bound,
    signed, booked and run in one pass, and decrypted by one checked
    decryption of their shared key and noise (:class:`_Group`) — the
    book each of them would have alone, which they then share with its
    cost-model figures and counts.  Across groups, a batch whose counts equal the
    last priced batch's, item for item and in order, shares those
    figures too.  The results are demultiplexed per group, and the
    oracle walks all the call's queries at once.  What depends on a
    ciphertext's data stays per ciphertext: its rows, its bit of the
    pass, its decrypted slice, its oracle verdicts.  A batch that raises
    drops out and the others go on; should a shared step raise, it is
    retried batch by batch, so the error fails only the batch it comes
    from.  Returns, per batch, its :class:`BatchEvaluation` or the
    exception it raised.

    Every caller that evaluates a batch (the worker's reduce function,
    on either transport, and the bench experiments) goes through here;
    ``engine`` overrides the registered engine (the degradation
    ladder), and ``on_stage`` is told ``"pack"`` / ``"execute"`` /
    ``"demux"`` / ``"resolve"`` as each stage begins (the in-thread
    transport's trace spans).
    """
    if engine is None:
        engine = registered.engine
    keys = registered.keys
    batched_model = registered.batched_model
    layout = registered.layout
    cost = registered.cost_model
    params, backend = registered.params, registered.backend
    inference_phases = engine_row(engine).phases
    priced_phases = (PHASE_DATA_ENCRYPT,) + inference_phases
    artifacts = artifacts_of(registered)
    forest = registered.forest if verify_oracle else None
    stage = on_stage if on_stage is not None else (lambda name: None)
    flights = [_InFlight(features) for features in batches]
    contexts = [FheContext(params, backend=backend)]
    lanes = _pass_lanes(artifacts, engine, contexts[0])

    def pack(group):
        group.ctx = (
            contexts.pop() if contexts else FheContext(params, backend=backend)
        )
        group.server = BatchedCopseServer(
            group.ctx,
            seccomp_variant=registered.seccomp_variant,
            engine=engine,
            **artifacts,
        )
        group.query = encrypt_planes(group.ctx, pack_group_planes(
            layout, [flight.features for flight in group.flights]
        ), keys)

    def execute(group):
        group.result = group.server.classify_batch(batched_model, group.query)

    def decrypt(group):
        result = group.result
        if isinstance(result, CiphertextGroup):
            bits = group.ctx.decrypt_group(result, keys.secret)
        else:
            bits = [group.ctx.decrypt(result, keys.secret)]
        for flight, bitvectors in zip(group.flights, demux_group(
            layout, bits, [len(flight.features) for flight in group.flights]
        )):
            flight.bitvectors = bitvectors

    def verify(flight, expected=None):
        if expected is None:
            expected = forest.label_bitvectors(flight.features).tolist()
        flight.oracle_ok = [
            bits == want for bits, want in zip(flight.bitvectors, expected)
        ]

    steps = (pack, execute, decrypt)
    groups = [
        _Group(flights[at : at + lanes])
        for at in range(0, len(flights), lanes)
    ]
    for name, step in zip(("pack", "execute", "demux"), steps):
        stage(name)
        groups = _advance(groups, steps, step)
    stage("resolve")
    answered = [flight for group in groups for flight in group.flights]
    if forest is not None and answered:
        # One walk of the plaintext forest for every answered query of
        # the call (they passed the packer's checks), not one per batch.
        # Should it raise, each batch walks alone, so the error fails
        # only the batch it comes from.
        try:
            expected = iter(forest.label_bitvectors(np.concatenate([
                np.asarray(flight.features, dtype=np.int64)
                for flight in answered
            ])).tolist())
        except Exception:
            for flight in answered:
                flight.attempt(verify)
        else:
            for flight in answered:
                verify(flight, expected)
    priced = None  # (book, phase_ms, inference_ms, phase_op_counts)
    for group in groups:
        tracker = group.ctx.tracker
        try:
            book = _book(tracker)
            if priced is None or priced[0] != book:
                phase_ms = {
                    phase: cost.phase_sequential_ms(tracker, phase)
                    for phase in priced_phases
                }
                priced = (
                    book, phase_ms,
                    sum(phase_ms[p] for p in inference_phases),
                    {
                        phase: {kind.value: n for kind, n in counts}
                        for phase, counts in book
                    },
                )
        except Exception as exc:
            for flight in group.flights:
                if flight.outcome is None:
                    flight.outcome = exc
            continue
        _, phase_ms, inference_ms, phase_op_counts = priced
        for flight in group.flights:
            if flight.outcome is None:
                flight.outcome = BatchEvaluation(
                    engine=engine,
                    bitvectors=flight.bitvectors,
                    phase_ms=phase_ms,
                    inference_ms=inference_ms,
                    oracle_ok=flight.oracle_ok,
                    tracker=tracker,
                    phase_op_counts=phase_op_counts,
                )
    return [flight.outcome for flight in flights]


def _pass_lanes(artifacts, engine: str, ctx: FheContext) -> int:
    """Batches one pass of ``engine``'s artifact among ``artifacts``
    runs on ``ctx``'s backend: its ``group_limit``, else one."""
    kind = engine_row(engine).artifact
    group_limit = getattr(artifacts.get(kind), "group_limit", None)
    return 1 if group_limit is None else group_limit(ctx)


def shared_pass_lanes(registered) -> int:
    """Batches of ``registered`` one in-process evaluation runs in one
    go: as many as its engine's cached artifact can share a pass
    between on the model's backend (``group_limit`` — the megakernel's
    eight on a backend with ``megakernel_ops``), else one."""
    return _pass_lanes(
        artifacts_of(registered), registered.engine,
        FheContext(registered.params, backend=registered.backend),
    )
