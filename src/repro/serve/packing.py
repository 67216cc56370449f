"""Cross-query SIMD packing: batch geometry, slot packing, demultiplexing.

A single COPSE query occupies at most ``required_width`` SIMD slots (the
widest vector its pipeline manipulates: ``max(q, b, labels)``), but the
paper's chosen parameters provide ``slot_count`` slots — 960 for the
Table 5 winner — leaving most of every ciphertext idle.  The serve
subsystem packs ``B`` independent queries into those idle slots:

* every logical per-query vector is padded to a fixed **stride**
  ``S = required_width`` and placed in its query's **block**
  ``[k*S, (k+1)*S)``;
* the batch **capacity** is ``B = slot_count // S`` (optionally capped);
* model structures are padded to the stride and **tiled** ``B`` times, so
  one slot-wise operation applies the model to every packed query at once;
* partial batches are padded with all-zero dummy queries so every batch
  runs the identical (input-independent) circuit at full width.

Demultiplexing slices the decrypted result bitvector back into per-query
label bitvectors: query ``k`` owns slots ``[k*S, k*S + labels)``.
"""

from __future__ import annotations

from dataclasses import dataclass
from numbers import Integral
from typing import List, Sequence

import numpy as np

from repro.errors import CompileError, ValidationError, require_int
from repro.core.compiler import CompiledModel
from repro.fhe.params import EncryptionParams
from repro.ir.plan import tile_blocks


@dataclass(frozen=True)
class BatchLayout:
    """Slot geometry shared by every batch evaluated against one model.

    ``stride`` is the padded per-query block width; ``capacity`` is the
    number of query blocks packed per ciphertext.  The per-stage logical
    widths (``quantized_branching`` for the comparison, ``branching``
    after the reshuffle, ``num_labels`` after the levels) are carried so
    the batched runtime can rotate *within* each stage's width.
    """

    stride: int
    capacity: int
    precision: int
    n_features: int
    max_multiplicity: int
    quantized_branching: int
    branching: int
    num_labels: int

    def __post_init__(self) -> None:
        if self.capacity < 1:
            raise ValidationError(
                f"batch capacity must be >= 1, got {self.capacity}"
            )
        if self.stride < max(
            self.quantized_branching, self.branching, self.num_labels
        ):
            raise ValidationError(
                f"stride {self.stride} is narrower than the widest "
                f"pipeline vector"
            )

    @property
    def batched_width(self) -> int:
        """Total slots occupied by one fully packed batch."""
        return self.stride * self.capacity

    def block_slice(self, k: int) -> slice:
        """The slot range owned by query ``k``."""
        if not 0 <= k < self.capacity:
            raise ValidationError(
                f"block {k} outside batch capacity {self.capacity}"
            )
        return slice(k * self.stride, (k + 1) * self.stride)

    def describe(self) -> str:
        return (
            f"stride={self.stride} capacity={self.capacity} "
            f"width={self.batched_width}"
        )


def plan_layout(
    compiled: CompiledModel,
    params: EncryptionParams,
    max_batch_size: int | None = None,
) -> BatchLayout:
    """Compute the batch geometry for a compiled model under ``params``.

    The capacity is ``slot_count // stride`` — how many padded queries fit
    in one ciphertext — optionally capped by ``max_batch_size`` (useful to
    trade amortization for latency).  Models too wide to pack twice
    degrade gracefully to ``capacity == 1``.
    """
    stride = compiled.required_width()
    if not params.supports_width(stride):
        raise ValidationError(
            f"model width {stride} does not fit in {params.slot_count} "
            f"SIMD slots ({params.describe()})"
        )
    capacity = params.slot_count // stride
    if max_batch_size is not None:
        require_int("max_batch_size", max_batch_size)
        if max_batch_size < 1:
            raise ValidationError(
                f"max_batch_size must be >= 1, got {max_batch_size}"
            )
        capacity = min(capacity, max_batch_size)
    return BatchLayout(
        stride=stride,
        capacity=capacity,
        precision=compiled.precision,
        n_features=compiled.n_features,
        max_multiplicity=compiled.max_multiplicity,
        quantized_branching=compiled.quantized_branching,
        branching=compiled.branching,
        num_labels=compiled.num_labels,
    )


# ---------------------------------------------------------------------------
# Packing
# ---------------------------------------------------------------------------


def validate_features(layout: BatchLayout, features: Sequence[int]) -> List[int]:
    """Check one query's features against the layout's public spec."""
    try:
        arity = len(features)
    except TypeError:
        raise ValidationError(
            f"a query is a sequence of {layout.n_features} feature "
            f"values, got {features!r}"
        ) from None
    if arity != layout.n_features:
        raise ValidationError(
            f"model expects {layout.n_features} features, got {arity}"
        )
    limit = 1 << layout.precision
    out: List[int] = []
    for value in features:
        if not isinstance(value, Integral):  # never coerced: 2.7 is no 2
            raise ValidationError(
                f"feature value {value!r} is not an integer"
            )
        v = int(value)
        if not 0 <= v < limit:
            raise ValidationError(
                f"feature value {value} does not fit in "
                f"{layout.precision} unsigned bits"
            )
        out.append(v)
    return out


def validate_feature_block(
    layout: BatchLayout, queries: Sequence[Sequence[int]]
) -> np.ndarray:
    """Check a whole request at once; ``(len(queries), n_features)`` int64.

    One array conversion and one comparison over the block.  The rows
    are always a new array, never the caller's: a caller may refill its
    buffer once this returns.  On any doubt — ragged, an array whose
    dtype is not an integer kind, out of range — the queries are walked
    one by one instead, so the refusal names the first offending value
    exactly as a single submission's would.  A block of one is walked
    outright: the array round trip would cost more.
    """
    values = None
    if len(queries) != 1:
        try:
            values = np.array(queries)  # a copy, even of an int64 array
        except (TypeError, ValueError, OverflowError):  # ragged
            pass
        if values is not None and values.dtype.kind in "iu":
            values = values.astype(np.int64, copy=False)
        else:
            values = None
    if (
        values is None
        or values.shape != (len(queries), layout.n_features)
        # as unsigned, a negative value is a huge one
        or (values.view(np.uint64) >= 1 << layout.precision).any()
    ):
        values = np.asarray(
            [validate_features(layout, f) for f in queries], dtype=np.int64
        ).reshape(len(queries), layout.n_features)
    return values


def pack_group_planes(
    layout: BatchLayout, batches: Sequence[Sequence[Sequence[int]]]
) -> np.ndarray:
    """Pack batches of up to ``capacity`` queries into batched MSB-first
    bit planes: ``(len(batches), precision, stride * capacity)`` uint8,
    row ``j`` the planes of batch ``j``.

    Each query is replicated to multiplicity ``K`` (Diane's Step 0),
    bit-sliced, padded to the stride, and placed in its block.  Unused
    blocks stay zero (the all-zero dummy query), so every batch presents
    the same shape to the input-independent circuit.

    Each batch is checked for size alone; the rows of all of them are
    validated by one :func:`validate_feature_block` over their
    concatenation (a batch alone: over itself, so its refusal reads as
    it always has).  A refused group names its first offending query
    wherever it is, so a caller that must know *which* batch holds it
    packs the batches one by one.  Placement, bit-slicing and
    replication to multiplicity ``K`` are one vectorized pass over every
    query of the group — no per-slot Python loops.
    """
    fills = [len(batch) for batch in batches]
    for fill in fills:
        if not fill:
            raise ValidationError("cannot pack an empty batch")
        if fill > layout.capacity:
            raise ValidationError(
                f"{fill} queries exceed the batch capacity "
                f"{layout.capacity}"
            )
    values = validate_feature_block(
        layout, batches[0] if len(batches) == 1 else np.concatenate(batches)
    )
    k, p, f = len(fills), layout.precision, layout.n_features
    # Every query of the group in its batch's block (the rest of the
    # blocks are the all-zero dummy query), bit-sliced MSB-first, then
    # replicated to multiplicity K by one broadcast copy into the
    # stride-padded planes: the bits of a replica are the replica of
    # the bits.
    queries = np.zeros((k, layout.capacity, f), dtype=np.int64)
    queries[
        [j for j, fill in enumerate(fills) for _ in range(fill)],
        [r for fill in fills for r in range(fill)],
    ] = values
    shifts = np.arange(p - 1, -1, -1, dtype=np.int64)[:, None, None]
    bits = ((queries[:, None] >> shifts) & 1).astype(np.uint8)
    planes = np.zeros((k, p, layout.capacity, layout.stride), dtype=np.uint8)
    planes[..., : layout.quantized_branching].reshape(
        k, p, layout.capacity, f, layout.max_multiplicity
    )[...] = bits[..., None]
    return planes.reshape(k, p, layout.batched_width)


def tile_model_vector(layout: BatchLayout, vector: Sequence[int]) -> np.ndarray:
    """Pad a per-query model vector to the stride and tile it per block.

    This is how every model structure (threshold planes, reshuffle and
    level diagonals, level masks) is broadcast across the batch: the same
    values appear in every query's block, padding slots stay zero.  The
    tiling (and its validation) is :func:`repro.ir.plan.tile_blocks` —
    shared with the batched lowering so plan constants match the eager
    runtime's vectors — re-raised under serve's error type.
    """
    try:
        return tile_blocks(vector, layout.stride, layout.capacity)
    except CompileError as exc:
        raise ValidationError(str(exc)) from exc


def segment_mask(layout: BatchLayout, lo: int, hi: int) -> np.ndarray:
    """Batched 0/1 mask selecting block offsets ``[lo, hi)`` in every block.

    Used by the batched runtime's masked-rotation gather to choose which
    rotation supplies each slot of a block-local cyclic access.
    """
    if not 0 <= lo < hi <= layout.stride:
        raise ValidationError(
            f"mask segment [{lo}, {hi}) outside stride {layout.stride}"
        )
    block = np.zeros(layout.stride, dtype=np.uint8)
    block[lo:hi] = 1
    return np.tile(block, layout.capacity)


# ---------------------------------------------------------------------------
# Demultiplexing
# ---------------------------------------------------------------------------


def demux_bitvectors(
    layout: BatchLayout, bits: Sequence[int], count: int
) -> List[List[int]]:
    """Slice a decrypted batched result into per-query label bitvectors:
    the group of one of :func:`demux_group`.

    ``count`` is the number of real (non-dummy) queries; dummy blocks are
    discarded.  Query ``k``'s bitvector is the first ``num_labels`` slots
    of its block.
    """
    return demux_group(layout, [bits], [count])[0]


def demux_group(
    layout: BatchLayout, results: Sequence[Sequence[int]],
    counts: Sequence[int],
) -> List[List[List[int]]]:
    """:func:`demux_bitvectors` of ``results[j]`` and ``counts[j]`` for
    every ``j``, in one reshape and one ``tolist``."""
    for count, bits in zip(counts, results):
        if count < 0 or count > layout.capacity:
            raise ValidationError(
                f"cannot demux {count} queries from a batch of capacity "
                f"{layout.capacity}"
            )
        if len(bits) != layout.batched_width:
            raise ValidationError(
                f"result has {len(bits)} slots, expected "
                f"{layout.batched_width}"
            )
    blocks = np.asarray(results).reshape(
        len(results), layout.capacity, layout.stride
    )[:, :, : layout.num_labels].tolist()
    return [rows[:count] for rows, count in zip(blocks, counts)]
