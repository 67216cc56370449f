"""Query batching: validate submissions, and what a batch answers.

Submissions are validated eagerly (:func:`admit_block`: a request's
``(n, features)`` rows and one future per query; bad queries fail
before they can poison a batch); queueing and batch *cutting*
belong to the router (:class:`~repro.serve.cluster.RouterCore` over the
deadline-aware :class:`~repro.serve.scheduler.SchedulerCore`), and
evaluation to a :class:`~repro.serve.transport.Transport`.  This module
holds what both ends share: the :class:`ClassificationResult` each
query is answered with (:func:`classification_results`, the one place
one is built) and the :class:`BatchRecord` the stats aggregator books
per batch.  A :class:`QueryBatcher` fronts one registered model outside
a service — ``prepare`` a batch, ``evaluate`` it by the pump thread's
path.
Evaluating a batch runs the whole amortized pipeline:

1. pack the queries' replicated-and-padded bit planes into shared slots
   and encrypt them once per plane (``data_encrypt``),
2. run the batched Algorithm 1 against the model's cached, once-encrypted
   :class:`~repro.serve.batched_runtime.BatchedEncryptedModel` — through
   whichever of the four engines of :mod:`repro.core.engines` the model
   is registered under: its cached
   :class:`~repro.ir.megakernel.MegaKernel` (``engine="megakernel"``),
   compiled :class:`~repro.ir.tape.CompiledTape` (``engine="tape"``, the
   serve default), graph-walking :class:`~repro.ir.plan.InferencePlan`
   (``engine="plan"``), or the hand-scheduled interpreter
   (``engine="eager"``),
3. decrypt the single result ciphertext and demultiplex the slot blocks
   back into per-query label bitvectors,
4. optionally verify every bitvector against the plaintext oracle
   (``forest.label_bitvectors``, once for all the queries of the call),
   and
5. resolve each query's future with a :class:`ClassificationResult`.

Steps 1-4 are
:func:`~repro.serve.batched_runtime.evaluate_registered_batches`, which
the one reduce function (:func:`repro.serve.worker._eval_result`) runs
on a whole assignment — in a worker process or on the pump thread —
so the megakernel runs its batches in one pass; step 5 is the
transport's one completion handler, after the router has accepted the
result.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.errors import ValidationError
from repro.core.runtime import InferenceResult
from repro.serve.packing import validate_feature_block
from repro.serve.registry import RegisteredModel
from repro.serve.scheduler import (
    Assignment,
    BlockCondition,
    PendingQuery,
    QueryFuture,
    QueryRun,
    deliver_failures,
    evaluation_failure,
)


@dataclass(frozen=True)
class ClassificationResult:
    """One query's demultiplexed result, with batch provenance."""

    model: str
    features: List[int]
    result: InferenceResult
    batch_id: int
    batch_fill: int
    batch_capacity: int
    #: Simulated inference ms of the batch divided by its real queries.
    amortized_ms: float
    #: Oracle agreement (None when verification was disabled or no source
    #: forest is available).
    oracle_ok: Optional[bool] = None

    @property
    def bitvector(self) -> List[int]:
        return self.result.bitvector

    def plurality_name(self) -> str:
        return self.result.plurality_name()


def classification_results(
    registered: RegisteredModel,
    batch_id: int,
    features,
    bitvectors,
    inference_ms: float,
    oracle_ok,
) -> List[ClassificationResult]:
    """One :class:`ClassificationResult` per query of an evaluated batch.

    ``features`` is the batch's ``(n, features)`` rows; ``oracle_ok``
    is the per-query verdict sequence, or None when verification was
    off.
    """
    # What a batch's results share is built once: a template of the
    # fields they have in common (and one codebook / label-name list).
    # Each result is a copy of it with its own features, bitvector and
    # verdict, set as the instance's ``__dict__`` — the frozen
    # dataclass's ``__init__`` is one ``object.__setattr__`` per field
    # per query, and a ``__slots__`` class built slot by slot measured
    # slower than this copy (``tests/serve/test_batch_routine.py``
    # holds it to the constructor).  A result's features come from one
    # ``tolist()`` of the batch's rows, so they are its own; its
    # bitvector list is the evaluation's own, never a caller's.
    spec = registered.spec
    size = len(features)
    template = vars(ClassificationResult(
        model=registered.name,
        features=[],
        result=None,
        batch_id=batch_id,
        batch_fill=size,
        batch_capacity=registered.layout.capacity,
        amortized_ms=inference_ms / size if size else 0.0,
    ))
    codebook = list(spec.codebook)
    label_names = list(spec.label_names)
    if oracle_ok is None:
        oracle_ok = [None] * size
    # A frozen dataclass refuses its own ``__setattr__``.
    new, set_field = object.__new__, object.__setattr__
    results = []
    for query, bits, ok in zip(np.asarray(features).tolist(), bitvectors,
                               oracle_ok):
        answer = new(InferenceResult)
        answer.__dict__ = {
            "bitvector": bits if type(bits) is list else list(bits),
            "codebook": codebook, "label_names": label_names,
        }
        fields = template.copy()
        fields["features"] = query
        fields["result"] = answer
        fields["oracle_ok"] = None if ok is None else bool(ok)
        result = new(ClassificationResult)
        set_field(result, "__dict__", fields)
        results.append(result)
    return results


@dataclass
class BatchRecord:
    """Measurements from one evaluated batch (for stats aggregation)."""

    model: str
    batch_id: int
    size: int
    capacity: int
    #: Operation counts per tracker phase, ``{phase: {op: n}}`` — plain
    #: data, so a worker process sends them too.
    phase_op_counts: Dict[str, Dict[str, int]]
    phase_ms: Dict[str, float]
    inference_ms: float
    data_encrypt_ms: float
    #: Number of queries whose bitvector disagreed with the plaintext
    #: oracle (None when verification was disabled).
    oracle_failures: Optional[int]
    #: ``(registered engine, engine that answered)`` when the registered
    #: engine raised and the batch fell down the ladder.
    degraded: Optional[Tuple[str, str]] = None


@dataclass
class CutBatch:
    """A batch cut from the pending queue, ready for evaluation."""

    batch_id: int
    entries: List[PendingQuery]


def query_block(feature_lists):
    """A request that can be indexed: an iterator is read once, here."""
    if hasattr(feature_lists, "__getitem__"):
        return feature_lists
    try:
        queries = iter(feature_lists)
    except TypeError:
        raise ValidationError(
            f"a request is an iterable of feature vectors, got "
            f"{type(feature_lists).__name__}"
        ) from None
    return list(queries)


def admit_block(registered: RegisteredModel,
                feature_lists) -> Tuple[np.ndarray, List[QueryFuture]]:
    """Validate a whole request: its ``(n, features)`` int64 rows, and
    one future per query, sharing the block's condition.

    Fails here — before any query can occupy a queue slot or poison a
    batch — on arity/domain errors (the whole block in one array check,
    the first offender named as a single query's refusal would) and on
    the pathological case of a layout whose per-query block is wider
    than the ciphertext itself (possible only with a hand-built layout,
    since :func:`~repro.serve.packing.plan_layout` rejects it at
    registration).
    """
    feature_lists = query_block(feature_lists)
    layout = registered.layout
    slots = registered.params.slot_count
    if layout.stride > slots:
        raise ValidationError(
            f"query width {layout.stride} exceeds the {slots} SIMD "
            f"slots of the registered parameters; this model cannot "
            f"pack even one query per ciphertext"
        )
    rows = validate_feature_block(layout, feature_lists)
    condition = BlockCondition()  # one per block (QueryFuture)
    return rows, [QueryFuture(condition) for _ in range(len(rows))]


def prepare_queries(registered: RegisteredModel,
                    feature_lists) -> List[PendingQuery]:
    """:func:`admit_block`, each query wrapped with its future."""
    rows, futures = admit_block(registered, feature_lists)
    return list(map(PendingQuery, rows.tolist(), futures))


class QueryBatcher:
    """Validates queries for one model and evaluates its cut batches."""

    def __init__(
        self,
        registered: RegisteredModel,
        verify_oracle: bool = True,
        tracer=None,
        clock=None,
    ):
        from repro.serve.transport import InThreadTransport

        self.registered = registered
        self.verify_oracle = verify_oracle and registered.forest is not None
        #: The pump thread's path, for this model alone: with a tracer
        #: and a clock, evaluation emits pack / execute / demux /
        #: resolve stage spans (zero-cost when None).
        self._transport = InThreadTransport(self.verify_oracle, tracer, clock)
        self._transport.stage(registered)

    # ------------------------------------------------------------------
    # Submission-time validation
    # ------------------------------------------------------------------

    def prepare(self, features) -> PendingQuery:
        """Validate one query and wrap it: the block of one."""
        return self.prepare_many((features,))[0]

    def prepare_many(self, feature_lists) -> List[PendingQuery]:
        """:func:`prepare_queries` against this batcher's model."""
        return prepare_queries(self.registered, feature_lists)

    # ------------------------------------------------------------------
    # Evaluation
    # ------------------------------------------------------------------

    def evaluate(
        self,
        batch: CutBatch,
        parent_span: Optional[int] = None,
        worker: Optional[int] = None,
    ) -> BatchRecord:
        """Run one batch end to end and resolve its futures: the pump
        thread's path, with no router around it.  A batch that fails
        past the engine ladder fails its futures with the service's
        :class:`~repro.errors.ServeError`, and raises it."""
        from repro.serve.transport import AssignAction

        name, entries = self.registered.name, batch.entries
        run = QueryRun(name, "default", 0.0, None, 0, 0,
                       [entry.future for entry in entries], None, entries,
                       None, 0)
        self._transport.send(AssignAction(Assignment(
            batch.batch_id, name, worker, [[run]], 0.0, span=parent_span,
        ), epoch=0))
        (completion,) = self._transport.receive(self._transport.wait(0.0))
        (record,) = completion.records
        if record is None:
            error = evaluation_failure(batch.batch_id, completion.failed[0])
            deliver_failures([(entry.future, error) for entry in entries])
            raise error
        completion.resolve()
        return record
