"""Query batching: validate submissions, evaluate batches, demultiplex.

A :class:`QueryBatcher` fronts one registered model.  Submissions are
validated eagerly (bad queries fail at ``prepare`` time, before they can
poison a batch); queueing and batch *cutting* belong to the router
(:class:`~repro.serve.cluster.RouterCore` over the deadline-aware
:class:`~repro.serve.scheduler.SchedulerCore`), whose cut batches the
in-thread transport hands back here for evaluation.  Evaluating a batch
runs the whole amortized pipeline:

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
   (``forest.label_bitvector``), and
5. resolve each query's future with a :class:`ClassificationResult`.

Steps 1-4 are
:func:`~repro.serve.batched_runtime.evaluate_registered_batches`, the
one batch-evaluation routine the cluster worker runs too; this module
adds the futures, the stage spans and the :class:`BatchRecord`, whose
per-batch tracker travels to the service for thread-safe aggregation.
The batches of one assignment (:meth:`QueryBatcher.evaluate_group`) go
through the steps together, so the megakernel runs them in one pass.
"""

from __future__ import annotations

from concurrent.futures import Future
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.errors import ValidationError
from repro.core.engines import result_of
from repro.core.runtime import InferenceResult
from repro.fhe.tracker import OpTracker
from repro.serve.faults import evaluate_batches_down_ladder
from repro.serve.packing import validate_queries
from repro.serve.registry import RegisteredModel


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
    features: List[List[int]],
    bitvectors,
    inference_ms: float,
    oracle_ok,
) -> List[ClassificationResult]:
    """One :class:`ClassificationResult` per query of an evaluated batch.

    ``oracle_ok`` is the per-query verdict sequence, or None when
    verification was off.
    """
    # What a batch's results share is built once, as a template (they
    # hold the same codebook / label-name lists); each result is the
    # template with what differs filled in.  The frozen dataclass's
    # ``__init__`` is one ``object.__setattr__`` per field per query;
    # copying ``__dict__`` builds the identical instance at a third of
    # the price, in the ``Ciphertext._make`` mould
    # (``tests/serve/test_batch_routine.py`` holds it to the constructor).
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
    results = []
    for query, bits, ok in zip(features, bitvectors, oracle_ok):
        result = object.__new__(ClassificationResult)
        fields = result.__dict__
        fields.update(template)
        fields["features"] = list(query)
        fields["result"] = InferenceResult(list(bits), codebook, label_names)
        fields["oracle_ok"] = None if ok is None else bool(ok)
        results.append(result)
    return results


@dataclass
class BatchRecord:
    """Measurements from one evaluated batch (for stats aggregation)."""

    model: str
    batch_id: int
    size: int
    capacity: int
    #: The batch's own tracker; None when it was evaluated in a worker
    #: process (trackers do not cross the pipe, so op counts are booked
    #: in-thread only).
    tracker: Optional[OpTracker]
    phase_ms: Dict[str, float]
    inference_ms: float
    data_encrypt_ms: float
    #: Number of queries whose bitvector disagreed with the plaintext
    #: oracle (None when verification was disabled).
    oracle_failures: Optional[int]
    #: ``(registered engine, engine that answered)`` when the registered
    #: engine raised and the batch fell down the ladder.
    degraded: Optional[Tuple[str, str]] = None

    @property
    def oracle_ok(self) -> Optional[bool]:
        if self.oracle_failures is None:
            return None
        return self.oracle_failures == 0

    @property
    def amortized_ms(self) -> float:
        return self.inference_ms / self.size if self.size else 0.0


@dataclass
class PendingQuery:
    """A validated submission waiting to be packed into a batch."""

    features: List[int]
    future: "Future[ClassificationResult]" = field(default_factory=Future)


@dataclass
class CutBatch:
    """A batch cut from the pending queue, ready for evaluation."""

    batch_id: int
    entries: List[PendingQuery]


def prepare_queries(registered: RegisteredModel,
                    feature_lists) -> List[PendingQuery]:
    """Validate a whole request and wrap each query for scheduling.

    Fails here — before any query can occupy a queue slot or poison a
    batch — on arity/domain errors (the whole block in one array check,
    the first offender named as a single query's refusal would) and on
    the pathological case of a layout whose per-query block is wider
    than the ciphertext itself (possible only with a hand-built layout,
    since :func:`~repro.serve.packing.plan_layout` rejects it at
    registration).
    """
    layout = registered.layout
    slots = registered.params.slot_count
    if layout.stride > slots:
        raise ValidationError(
            f"query width {layout.stride} exceeds the {slots} SIMD "
            f"slots of the registered parameters; this model cannot "
            f"pack even one query per ciphertext"
        )
    validated = validate_queries(layout, feature_lists)
    return [PendingQuery(features=row) for row in validated]


class QueryBatcher:
    """Validates queries for one model and evaluates its cut batches."""

    def __init__(
        self,
        registered: RegisteredModel,
        verify_oracle: bool = True,
        tracer=None,
        clock=None,
    ):
        self.registered = registered
        self.verify_oracle = verify_oracle and registered.forest is not None
        #: Optional span tracer + clock: when both are set, evaluation
        #: emits pack / execute / demux / resolve stage spans parented
        #: on the scheduler's batch span (zero-cost when None).
        self.tracer = tracer
        self.clock = clock

    # ------------------------------------------------------------------
    # Submission-time validation
    # ------------------------------------------------------------------

    @property
    def capacity(self) -> int:
        return self.registered.layout.capacity

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
        """Run one batch end to end and resolve its futures: the group
        of one of :meth:`evaluate_group`, raising what it raised."""
        return result_of(self.evaluate_group([batch], parent_span, worker)[0])

    def evaluate_group(
        self,
        batches: Sequence[CutBatch],
        parent_span: Optional[int] = None,
        worker: Optional[int] = None,
    ) -> List:
        """Run the batches of one assignment end to end, together, and
        resolve their futures.

        Returns, per batch, its :class:`BatchRecord` or the exception
        its evaluation raised.  An engine that raises degrades down the
        ladder, batch by batch
        (:func:`~repro.serve.faults.evaluate_batches_down_ladder`,
        recorded on the :class:`BatchRecord`); a failure past the last
        rung is propagated through every future of that batch, so
        submitters always learn the outcome and the failure stays
        contained to those queries.

        ``parent_span``/``worker`` (from the scheduler's
        :class:`~repro.serve.scheduler.Assignment`) parent the stage
        spans a tracing-enabled batcher emits: one pack / execute /
        demux / resolve per group, however many ciphertexts it holds.
        """
        registered = self.registered
        features = [[e.features for e in batch.entries] for batch in batches]
        engine = registered.engine
        tracer = self.tracer if self.clock is not None else None
        on_stage = None
        open_span = None  # (span id, the attributes it ends with)
        if tracer is not None:
            track = "batcher" if worker is None else f"worker:{worker}"
            ends_with = {"execute": {"engine": engine}}
            size = sum(len(batch.entries) for batch in batches)

            def on_stage(name: str) -> None:
                nonlocal open_span
                if open_span is not None:
                    tracer.end(
                        open_span[0], self.clock.now(), **open_span[1]
                    )
                span = tracer.begin(
                    name, self.clock.now(), parent=parent_span,
                    track=track, batch_id=batches[0].batch_id,
                    size=size, ciphertexts=len(batches),
                )
                open_span = (span, ends_with.get(name, {}))

        records: List = []
        try:
            outcomes = evaluate_batches_down_ladder(
                registered, features,
                verify_oracle=self.verify_oracle, on_stage=on_stage,
            )
            for batch, queries, outcome in zip(batches, features, outcomes):
                if isinstance(outcome, BaseException):
                    for entry in batch.entries:
                        if not entry.future.done():
                            entry.future.set_exception(outcome)
                    records.append(outcome)
                    continue
                evaluation, degraded = outcome
                results = classification_results(
                    registered, batch.batch_id, queries,
                    evaluation.bitvectors, evaluation.inference_ms,
                    evaluation.oracle_ok,
                )
                for entry, result in zip(batch.entries, results):
                    entry.future.set_result(result)
                oracle_failures: Optional[int] = None
                if evaluation.oracle_ok is not None:
                    oracle_failures = evaluation.oracle_ok.count(False)
                records.append(BatchRecord(
                    model=registered.name,
                    batch_id=batch.batch_id,
                    size=len(batch.entries),
                    capacity=registered.layout.capacity,
                    tracker=evaluation.tracker,
                    phase_ms=evaluation.phase_ms,
                    inference_ms=evaluation.inference_ms,
                    data_encrypt_ms=evaluation.data_encrypt_ms,
                    oracle_failures=oracle_failures,
                    degraded=degraded,
                ))
        except BaseException as exc:
            for batch in batches:
                for entry in batch.entries:
                    if not entry.future.done():
                        entry.future.set_exception(exc)
            raise
        if tracer is not None:
            tracer.end(
                open_span[0], self.clock.now(),
                oracle_failures=sum(
                    record.oracle_failures or 0 for record in records
                    if isinstance(record, BatchRecord)
                ),
            )
        return records
