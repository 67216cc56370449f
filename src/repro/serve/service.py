"""CopseService: the batched secure-inference facade.

Composes the registry (compile + encrypt once), the per-model batchers
(pack / demux / verify), and the deadline-aware scheduler (bounded
queues, fair sharing, worker pool) behind three calls —
``register_model`` / ``submit_many`` / ``stats`` (``submit`` is the
block of one) — plus synchronous conveniences.  Typical use::

    with CopseService(threads=4, default_deadline_ms=250.0) as service:
        service.register_model("credit", forest, precision=8)
        results = service.classify_many("credit", feature_lists)
        print(service.stats().render())

Dispatch policy: a full batch is scheduled the moment the pending queue
reaches the layout's capacity; a *partial* batch dispatches when its
oldest query's deadline slack runs out, or on an explicit ``flush()``
(``classify``/``classify_many`` flush for you).  Queues are bounded when
``max_queue`` is set — an over-admission raises
:class:`~repro.errors.RejectedQuery` at submit time.  Latency and
throughput metrics come from the existing
:class:`~repro.fhe.costmodel.CostModel` over each batch's operation DAG,
aggregated thread-safely across workers; scheduling metrics (wall/virtual
latency percentiles, deadline misses, rejections, retries) come from the
scheduler's :class:`~repro.serve.scheduler.SchedulerStats`.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Union

from repro.errors import RejectedQuery, ValidationError
from repro.obs.metrics import MetricsRegistry, bind_children
from repro.core.compiler import CompiledModel
from repro.core.engines import ENGINE_TAPE, engine_row
from repro.core.seccomp import VARIANT_ALOUFI
from repro.fhe.backend import canonical_backend_name
from repro.fhe.params import EncryptionParams
from repro.forest.forest import DecisionForest
from repro.serve.batcher import (
    BatchRecord,
    ClassificationResult,
    CutBatch,
    QueryBatcher,
)
from repro.serve.registry import ModelRegistry, RegisteredModel
from repro.serve.scheduler import Assignment, Scheduler, SchedulerStats
from repro.serve.simclock import Clock


@dataclass(frozen=True)
class ServiceStats:
    """A consistent snapshot of the service's aggregated measurements.

    All times are *simulated* milliseconds from the cost model (the
    paper's metric), not wall clock.  ``inference_ms`` covers the four
    shared pipeline stages; ``data_encrypt_ms`` is the per-batch query
    encryption; ``setup_ms`` is the one-time model compilation/encryption
    across registered models.
    """

    queries: int
    batches: int
    capacity_total: int
    phase_ms: Dict[str, float]
    op_counts: Dict[str, int]
    inference_ms: float
    data_encrypt_ms: float
    setup_ms: float
    oracle_failures: int
    threads: int
    #: Per-phase operation counts — the plan engine's work lands under
    #: ``plan_inference`` while eager batches use the four stage phases,
    #: so the two engines' op counts stay separable after aggregation.
    phase_op_counts: Dict[str, Dict[str, int]] = field(default_factory=dict)
    #: FHE backend each registered model evaluates on (model -> backend
    #: registry name), recorded at registration time.
    model_backends: Dict[str, str] = field(default_factory=dict)
    #: Scheduling counters (admission, deadlines, retries, latency
    #: percentiles) from the deadline-aware scheduler; None for
    #: hand-built snapshots that never scheduled anything.
    scheduler: Optional[SchedulerStats] = None

    @property
    def deadline_miss_rate(self) -> float:
        """Fraction of completed queries that finished past deadline."""
        if self.scheduler is None:
            return 0.0
        return self.scheduler.deadline_miss_rate

    @property
    def rejected(self) -> int:
        """Queries refused by admission control."""
        return self.scheduler.rejected if self.scheduler else 0

    def engine_ms(self, engine: str) -> float:
        """Simulated inference ms spent in ``engine``'s tracker phases."""
        return sum(
            self.phase_ms.get(p, 0.0) for p in engine_row(engine).phases
        )

    def engine_op_counts(self, engine: str) -> Dict[str, int]:
        """Operation counts recorded by ``engine``'s batches."""
        merged: Dict[str, int] = {}
        for phase in engine_row(engine).phases:
            for kind, n in self.phase_op_counts.get(phase, {}).items():
                merged[kind] = merged.get(kind, 0) + n
        return merged

    @property
    def amortized_ms_per_query(self) -> float:
        """Simulated inference ms per served query (the batching payoff)."""
        if not self.queries:
            return 0.0
        return self.inference_ms / self.queries

    @property
    def avg_batch_fill(self) -> float:
        """Mean fraction of each batch's slots holding real queries."""
        if not self.capacity_total:
            return 0.0
        return self.queries / self.capacity_total

    @property
    def throughput_qps(self) -> float:
        """Queries per *simulated* second with batches spread over the pool.

        Derived from cost-model milliseconds (``inference_ms``), not from
        wall-clock: it is the paper's throughput figure, not what a host
        running this simulator serves (``perf/run.py`` measures that).
        Batches are the scheduling unit, so the pool's makespan is
        ``ceil(batches / threads)`` rounds of the mean batch time: a
        single batch gains nothing from idle workers, and a remainder
        batch costs a full extra round.
        """
        if self.inference_ms <= 0 or not self.batches:
            return 0.0
        rounds = -(-self.batches // self.threads)
        makespan_ms = self.inference_ms * rounds / self.batches
        return self.queries * 1000.0 / makespan_ms

    def render(self) -> str:
        lines = [
            "CopseService stats",
            f"  queries served      : {self.queries}",
            f"  batches evaluated   : {self.batches}",
            f"  avg batch fill      : {self.avg_batch_fill:.2f}",
            f"  amortized ms/query  : {self.amortized_ms_per_query:.2f}",
            f"  sim throughput (q/s): {self.throughput_qps:.1f} "
            f"({self.threads} workers; from simulated ms)",
            f"  one-time setup ms   : {self.setup_ms:.2f}",
            f"  batch encrypt ms    : {self.data_encrypt_ms:.2f}",
            f"  oracle failures     : {self.oracle_failures}",
        ]
        if self.model_backends:
            backends = ", ".join(
                f"{model}={backend}"
                for model, backend in sorted(self.model_backends.items())
            )
            lines.append(f"  fhe backends        : {backends}")
        for phase, ms in self.phase_ms.items():
            lines.append(f"  phase {phase:<14}: {ms:.2f} ms")
        if self.scheduler is not None and self.scheduler.submitted:
            lines.append("  scheduling:")
            lines.append(self.scheduler.render())
        return "\n".join(lines)


class _StatsAggregator:
    """Registry-backed accumulator for per-batch records.

    Every numeric aggregate lives in the service's shared
    :class:`~repro.obs.metrics.MetricsRegistry` — the same store the
    scheduler core's counters live in — so a metrics snapshot (or the
    Prometheus export) sees evaluation totals and scheduling counters
    together, and :class:`ServiceStats` is a pure view over it.  The
    aggregator's own lock only orders the *multi-instrument* update of
    one batch record, so a concurrent snapshot never sees half a batch.
    """

    def __init__(self, threads: int, metrics: MetricsRegistry):
        self._lock = threading.Lock()
        self._threads = threads
        self._metrics = metrics
        m = metrics
        self._queries = m.counter("svc_queries")
        self._batches = m.counter("svc_batches")
        self._capacity_total = m.counter("svc_capacity_total")
        self._inference_ms = m.counter("svc_inference_ms")
        self._data_encrypt_ms = m.counter("svc_data_encrypt_ms")
        self._setup_ms = m.counter("svc_setup_ms")
        self._oracle_failures = m.counter("svc_oracle_failures")
        self._batch_fill = m.histogram("svc_batch_fill")
        #: Labelled children, resolved once per (phase, op) — not once
        #: per batch.
        self._phase_ms = bind_children(m.counter, "svc_phase_ms", "phase")
        self._ops = bind_children(m.counter, "svc_ops", "op")
        self._phase_ops = bind_children(
            m.counter, "svc_phase_ops", "phase", "op")
        #: model -> backend name: identity metadata, not a metric.
        self._model_backends: Dict[str, str] = {}

    def record_setup(self, registered: RegisteredModel) -> None:
        with self._lock:
            self._setup_ms.inc(registered.setup_ms)
            self._model_backends[registered.name] = registered.backend

    def record_batch(self, record: BatchRecord) -> None:
        with self._lock:
            self._queries.inc(record.size)
            self._batches.inc()
            self._capacity_total.inc(record.capacity)
            if record.capacity:
                self._batch_fill.observe(record.size / record.capacity)
            for phase, ms in record.phase_ms.items():
                self._phase_ms(phase).inc(ms)
            for phase in record.tracker.phases:
                counts = record.tracker.phase_stats(phase).counts
                for kind, n in counts.items():
                    self._ops(kind.value).inc(n)
                    self._phase_ops(phase, kind.value).inc(n)
            self._inference_ms.inc(record.inference_ms)
            self._data_encrypt_ms.inc(record.data_encrypt_ms)
            if record.oracle_failures:
                self._oracle_failures.inc(record.oracle_failures)

    def snapshot(
        self, scheduler: Optional[SchedulerStats] = None
    ) -> ServiceStats:
        m = self._metrics
        with self._lock:
            phase_op_counts: Dict[str, Dict[str, int]] = {}
            for key, instrument in sorted(m.family("svc_phase_ops").items()):
                labels = dict(pair.split("=", 1) for pair in key)
                phase_op_counts.setdefault(labels["phase"], {})[
                    labels["op"]
                ] = int(instrument.value)
            return ServiceStats(
                scheduler=scheduler,
                queries=int(self._queries.value),
                batches=int(self._batches.value),
                capacity_total=int(self._capacity_total.value),
                phase_ms={
                    phase: instrument.value
                    for phase, instrument in sorted(
                        (key[0].split("=", 1)[1], inst)
                        for key, inst in m.family("svc_phase_ms").items()
                    )
                },
                op_counts={
                    op: int(v)
                    for op, v in m.labeled_values("svc_ops").items()
                },
                inference_ms=self._inference_ms.value,
                data_encrypt_ms=self._data_encrypt_ms.value,
                setup_ms=self._setup_ms.value,
                oracle_failures=int(self._oracle_failures.value),
                threads=self._threads,
                phase_op_counts=phase_op_counts,
                model_backends=dict(self._model_backends),
            )


class CopseService:
    """Batched secure-inference service over the COPSE stack.

    ``engine`` selects the default execution path for registered models:
    ``"tape"`` (the default) lowers and optimizes an
    :class:`~repro.ir.plan.InferencePlan` per model, compiles it into a
    :class:`~repro.ir.tape.CompiledTape` (linearized instructions,
    scheduled rotations, register reuse, fused kernels), and executes
    every batch through the tape; ``"megakernel"`` compiles the tape
    once more into a zero-dispatch kernel; ``"plan"`` stops at the
    graph-walking plan executor; ``"eager"`` keeps the hand-scheduled
    interpreter.
    ``register_model`` can override per model.

    ``threads`` is the number of worker *slots*: what the scheduler's
    stats, the control plane (``add_worker`` / ``remove_worker``) and
    the simulated-cost book (:attr:`ServiceStats.threads`, the paper's
    multithreading) count.  One host thread evaluates all of them —
    batch evaluations holding the GIL only interleave, and measured
    slower than serial — so wall-clock parallelism is worker processes
    (:class:`~repro.serve.cluster.ClusterService`).

    Scheduling knobs: ``default_deadline_ms`` applies a relative
    deadline to every query that does not bring its own (deadline slack
    also forces partial-batch cuts); ``max_queue`` bounds each model's
    pending queue (admission control — :class:`RejectedQuery` on
    overflow); ``clock`` injects a time source (a
    :class:`~repro.serve.simclock.VirtualClock` makes deadline behavior
    unit-testable without sleeps).  Evaluation errors are deterministic
    and never retried — they fail the batch's futures immediately.
    """

    def __init__(
        self,
        params: Optional[EncryptionParams] = None,
        threads: int = 2,
        seccomp_variant: str = VARIANT_ALOUFI,
        verify_oracle: bool = True,
        engine: str = ENGINE_TAPE,
        backend: Optional[str] = None,
        clock: Optional[Clock] = None,
        default_deadline_ms: Optional[float] = None,
        max_queue: Optional[int] = None,
        tracer=None,
        metrics: Optional[MetricsRegistry] = None,
    ):
        engine_row(engine, error=ValidationError)
        if default_deadline_ms is not None and default_deadline_ms <= 0:
            raise ValidationError(
                f"default_deadline_ms must be > 0, got {default_deadline_ms}"
            )
        #: One shared registry: the scheduler core's counters, the model
        #: registry's setup metrics, and the batch aggregates all write
        #: here, so one snapshot tells the whole story.
        self.metrics: MetricsRegistry = (
            metrics if metrics is not None else MetricsRegistry()
        )
        #: Optional span tracer (``repro.obs.trace.Tracer``): threads
        #: through scheduler (query/batch spans) and batchers (stage
        #: spans).  None — the default — costs nothing on any hot path.
        self.tracer = tracer
        self.registry = ModelRegistry(
            default_params=params, metrics=self.metrics
        )
        self.scheduler = Scheduler(
            threads=threads, clock=clock,
            tracer=tracer, metrics=self.metrics,
        )
        self.seccomp_variant = seccomp_variant
        self.verify_oracle = verify_oracle
        self.engine = engine
        self.default_deadline_ms = default_deadline_ms
        self.max_queue = max_queue
        #: Default FHE backend for registered models; validated eagerly
        #: so a typo fails at service construction, not first batch.
        self.backend = canonical_backend_name(backend)
        self._batchers: Dict[str, QueryBatcher] = {}
        self._lock = threading.Lock()
        self._stats = _StatsAggregator(threads=threads, metrics=self.metrics)

    # ------------------------------------------------------------------
    # Registration
    # ------------------------------------------------------------------

    def register_model(
        self,
        name: str,
        model: Union[DecisionForest, CompiledModel],
        precision: int = 8,
        params: Optional[EncryptionParams] = None,
        autoselect_params: bool = False,
        max_batch_size: Optional[int] = None,
        encrypted_model: bool = True,
        engine: Optional[str] = None,
        backend: Optional[str] = None,
        weight: float = 1.0,
        max_queue: Optional[int] = None,
    ) -> RegisteredModel:
        """Compile, parameter-select, encrypt, and plan ``model`` once.

        ``engine`` and ``backend`` override the service defaults for
        this model (per-model backend choice is recorded in
        :attr:`ServiceStats.model_backends`).  ``weight`` is the model's
        fair-share weight against other registered models;
        ``max_queue`` overrides the service-wide pending-queue bound.
        """
        registered = self.registry.register(
            name,
            model,
            precision=precision,
            params=params,
            autoselect_params=autoselect_params,
            max_batch_size=max_batch_size,
            encrypted_model=encrypted_model,
            engine=self.engine if engine is None else engine,
            seccomp_variant=self.seccomp_variant,
            backend=self.backend if backend is None else backend,
        )
        batcher = QueryBatcher(
            registered,
            verify_oracle=self.verify_oracle,
            tracer=self.tracer,
            clock=self.scheduler.clock,
        )

        def evaluate(assignment: Assignment) -> None:
            batch = CutBatch(
                batch_id=assignment.batch_id,
                entries=[t.payload for t in assignment.tickets],
            )
            record = batcher.evaluate(
                batch,
                parent_span=assignment.span,
                worker=assignment.worker,
            )
            self._stats.record_batch(record)

        try:
            self.scheduler.add_queue(
                name,
                capacity=registered.layout.capacity,
                evaluate=evaluate,
                weight=weight,
                max_pending=self.max_queue if max_queue is None else max_queue,
                service_ms=registered.estimated_batch_ms,
            )
        except ValidationError:
            self.registry.unregister(name)
            raise
        with self._lock:
            self._batchers[name] = batcher
        self._stats.record_setup(registered)
        return registered

    def unregister_model(self, name: str) -> None:
        """Retire a model: drop it from the registry and stop serving it.

        Queries still pending for the model fail with
        :class:`~repro.errors.ServeError`, so submitters always learn
        the outcome; flush first if the answers matter.
        """
        self.registry.unregister(name)
        self.scheduler.remove_queue(name)
        with self._lock:
            self._batchers.pop(name, None)

    def _batcher(self, name: str) -> QueryBatcher:
        # The registry owns name resolution (and its lookup-or-raise
        # message); the batcher map only mirrors it, so a model removed
        # via ``registry.unregister`` stops serving immediately even if
        # its mirror entry has not been pruned yet.
        self.registry.get(name)
        with self._lock:
            return self._batchers[name]

    # ------------------------------------------------------------------
    # Submission
    # ------------------------------------------------------------------

    def submit(
        self,
        model_name: str,
        features: Sequence[int],
        tenant: str = "default",
        deadline_ms: Optional[float] = None,
        priority: int = 0,
    ):
        """Enqueue one query; returns a future of ClassificationResult.

        The block of one: see :meth:`submit_many`.
        """
        return self.submit_many(
            model_name, (features,), tenant, deadline_ms, priority
        )[0]

    def submit_many(
        self,
        model_name: str,
        feature_lists: Sequence[Sequence[int]],
        tenant: str = "default",
        deadline_ms: Optional[float] = None,
        priority: int = 0,
    ) -> List:
        """Enqueue a block of queries; returns their futures, in order.

        The block is validated whole, before any of it is admitted, and
        admitted under one scheduler lock hold with one ``submit_time``
        and one deadline (N ``submit`` calls each read the clock).
        Full batches dispatch immediately; partial batches dispatch when
        their deadline slack runs out, on :meth:`flush`, or when more
        submissions fill them.  Raises
        :class:`~repro.errors.RejectedQuery` when the model's queue
        reaches its bound — the queries ahead of the refused one stay
        admitted, their tickets on the exception's ``admitted`` — and
        :class:`~repro.errors.ServeError` after :meth:`close`.
        """
        entries = self._batcher(model_name).prepare_many(feature_lists)
        if deadline_ms is None:
            deadline_ms = self.default_deadline_ms
        self.scheduler.submit_many(
            model_name,
            entries,
            tenant=tenant,
            deadline_ms=deadline_ms,
            priority=priority,
        )
        return [entry.future for entry in entries]

    def flush(self, model_name: Optional[str] = None) -> None:
        """Dispatch all pending (including partial) batches and wait.

        Flushing a model with nothing pending is a no-op.
        """
        if model_name is not None:
            self._batcher(model_name)  # name resolution (or raise)
        else:
            with self._lock:
                # Prune mirrors of models retired directly through the
                # registry, releasing their cached encrypted structures
                # (and failing their still-queued queries loudly).
                stale = [
                    name for name in self._batchers
                    if name not in self.registry
                ]
                for name in stale:
                    del self._batchers[name]
            # Queue removal resolves the orphaned queries' failure
            # futures, whose done-callbacks may re-enter the service —
            # so it must run outside self._lock.
            for name in stale:
                self.scheduler.remove_queue(name)
        self.scheduler.flush(model_name)
        self.scheduler.drain()

    def classify(
        self, model_name: str, features: Sequence[int]
    ) -> ClassificationResult:
        """Synchronous single query (submits, flushes, waits)."""
        future = self.submit(model_name, features)
        if not future.done():
            self.flush(model_name)
        return future.result()

    def classify_many(
        self,
        model_name: str,
        feature_lists: Sequence[Sequence[int]],
        tenant: str = "default",
    ) -> List[ClassificationResult]:
        """Submit many queries, dispatch, and return results in order.

        The whole request is validated before any of it is admitted, so
        an arity/domain refusal admits nothing; an admission-control
        refusal part-way still serves what was admitted before it
        propagates — no ticket is left queued behind a future nobody
        holds.  An empty request returns ``[]`` without touching the
        scheduler.
        """
        self._batcher(model_name)  # name resolution (or raise)
        if not len(feature_lists):
            return []
        try:
            futures = self.submit_many(model_name, feature_lists, tenant)
        except RejectedQuery:
            self.flush(model_name)  # serve what was admitted ahead of it
            raise
        self.flush(model_name)
        return [f.result() for f in futures]

    # ------------------------------------------------------------------
    # Control-plane seams (live reconfiguration, no restart)
    # ------------------------------------------------------------------

    def set_tenant_weight(self, name: str, weight: float) -> float:
        """Retune a model queue's fair-share weight; returns the old."""
        self._batcher(name)  # name resolution (or raise)
        return self.scheduler.set_weight(name, weight)

    def set_admission_limit(self, name: str,
                            limit: Optional[int]) -> Optional[int]:
        """Rebound a model queue's admission limit; returns the old.

        ``None`` removes the bound.  Tightening below the current depth
        never drops already-admitted queries — only new submissions see
        the new limit.
        """
        self._batcher(name)  # name resolution (or raise)
        return self.scheduler.set_admission_limit(name, limit)

    def add_worker(self) -> int:
        """Grow the worker pool by one slot; returns its fresh id."""
        return self.scheduler.add_worker()

    def remove_worker(self) -> int:
        """Retire one idle worker slot (never below one).

        Raises :class:`~repro.errors.ValidationError` when every worker
        has a batch in flight — the in-flight safety invariant the
        control plane's guards also enforce.
        """
        return self.scheduler.remove_worker()

    @property
    def workers(self) -> int:
        """Current worker-pool size."""
        return self.scheduler.workers

    def set_model_engine(self, name: str, engine: str,
                         expected_fingerprint: Optional[str] = None
                         ) -> RegisteredModel:
        """Flip a model's execution engine live (next batch uses it).

        Drains in-flight work first so no batch straddles the flip;
        queued queries are unaffected (they are packed per batch).
        """
        self.flush(name)
        return self.registry.set_engine(
            name, engine, expected_fingerprint=expected_fingerprint
        )

    def set_model_backend(self, name: str, backend: str,
                          expected_fingerprint: Optional[str] = None
                          ) -> RegisteredModel:
        """Re-home a model onto another FHE backend, live.

        Backends wrap ciphertexts differently, so this re-keys and
        re-encrypts the batched model (a real cost, recorded in
        ``setup_ms``); the drain ensures no batch straddles it.
        """
        self.flush(name)
        return self.registry.switch_backend(
            name, backend, expected_fingerprint=expected_fingerprint
        )

    # ------------------------------------------------------------------
    # Introspection / lifecycle
    # ------------------------------------------------------------------

    def stats(self) -> ServiceStats:
        return self._stats.snapshot(scheduler=self.scheduler.stats())

    def metrics_snapshot(self) -> Dict:
        """A JSON-able snapshot of the shared metrics registry.

        Calls ``scheduler.stats()`` first so point-in-time gauges
        (pending/running) are current — this is the payload of every
        ``repro serve --stats-interval`` JSONL line.
        """
        self.scheduler.stats()
        return self.metrics.snapshot()

    def render_prometheus(self) -> str:
        """The shared registry in Prometheus text exposition format."""
        self.scheduler.stats()
        return self.metrics.render_prometheus()

    def pending(self, model_name: str) -> int:
        self._batcher(model_name)  # name resolution (or raise)
        return self.scheduler.pending(model_name)

    def close(self) -> None:
        """Stop admission, finish admitted work, stop the worker pool.

        Idempotent; :meth:`submit` afterwards raises
        :class:`~repro.errors.ServeError`.
        """
        self.scheduler.close()

    def __enter__(self) -> "CopseService":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()
