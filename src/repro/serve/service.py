"""CopseService: the batched secure-inference facade.

One facade over the serve spine: the registry (compile + encrypt once),
the routing core (:class:`~repro.serve.cluster.RouterCore`: bounded
queues, fair sharing, placement, the crash policy), one pump step
(run by a pump thread; the simulator steps it itself), and a
:class:`~repro.serve.transport.Transport` that says where a cut batch
is evaluated — on the pump thread (this class's constructor), in
worker processes (:class:`~repro.serve.cluster.ClusterService`'s) or
by simulated workers (:class:`~repro.serve.loadgen.VirtualTransport`).
Three calls — ``register_model`` / ``submit_many`` / ``stats``
(``submit`` is the block of one) — plus synchronous conveniences and
the control plane's seams.  Typical use::

    with CopseService(threads=4, default_deadline_ms=250.0) as service:
        service.register_model("credit", forest, precision=8)
        results = service.classify_many("credit", feature_lists)
        print(service.stats().render())

Dispatch policy: a full batch is scheduled the moment the pending queue
reaches the layout's capacity; a *partial* batch dispatches when its
oldest query's deadline slack runs out, or on an explicit ``flush()``
(``classify``/``classify_many`` flush for you).  One cut hands the
evaluator every batch of the model that is ready by that rule, up to
the number it runs in one go (``lanes``: derived from the staged engine
and backend, never configured) — shared out between the evaluators
that are idle, where there are several (worker processes).  Queues are
bounded when
``max_queue`` is set — an over-admission raises
:class:`~repro.errors.RejectedQuery` at submit time.  Latency and
throughput metrics come from the existing
:class:`~repro.fhe.costmodel.CostModel` over each batch's operation DAG,
aggregated per batch; scheduling metrics (wall/virtual latency
percentiles, deadline misses, rejections, retries) come from the
scheduler core's :class:`~repro.serve.scheduler.SchedulerStats`.
"""

from __future__ import annotations

import contextlib
import threading
import time
import warnings
from collections import deque
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple, Union

from repro.errors import (
    RejectedQuery, ServeError, ValidationError, require_at_least,
    require_real,
)
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
    admit_block,
    query_block,
)
from repro.serve.registry import ModelRegistry, RegisteredModel
from repro.serve.scheduler import (
    OUTCOME_ERROR,
    OUTCOME_OK,
    SchedulerStats,
    deliver_failures,
)
from repro.serve.simclock import MS, Clock, RealClock
from repro.serve.transport import (
    MAX_STARTUP_DEATHS,
    Heartbeat,
    InThreadTransport,
    Transport,
    WorkerDied,
)

#: Router decisions the live service keeps for ``decisions``: a window,
#: so a long-lived service does not retain one tuple per batch forever
#: (the simulator keeps its whole log — its replays are hashed).
DECISION_WINDOW = 4096


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

    @property
    def retries(self) -> int:
        """Re-executions granted to queries a worker crash freed."""
        return self.scheduler.retries if self.scheduler else 0

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
    one completion's records, so a concurrent snapshot never sees half
    of one.
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
        #: The last book resolved (see :meth:`_book`).
        self._last_book = None

    def record_setup(self, registered: RegisteredModel) -> None:
        with self._lock:
            self._setup_ms.inc(registered.setup_ms)
            self._model_backends[registered.name] = registered.backend

    def record_batches(self, records: Sequence[BatchRecord]) -> None:
        """Book evaluated batches, in order: one hold of this lock, one
        of the registry's for every counter and one for the fill
        histogram.  A book — a record's ``phase_ms`` and
        ``phase_op_counts`` — is resolved to its labelled children
        once per distinct pair of objects (the batches of one kernel
        pass share theirs) and only ever read."""
        with self._lock:
            increments = []
            fills = []
            for record in records:
                increments += (
                    (self._queries, record.size), (self._batches, 1.0),
                    (self._capacity_total, record.capacity),
                )
                if record.capacity:
                    fills.append(record.size / record.capacity)
                increments += self._book(record)
                increments += (
                    (self._inference_ms, record.inference_ms),
                    (self._data_encrypt_ms, record.data_encrypt_ms),
                )
                if record.oracle_failures:
                    increments.append(
                        (self._oracle_failures, record.oracle_failures)
                    )
            self._metrics.add(increments)
            self._batch_fill.observe_many(fills)

    def _book(self, record: BatchRecord) -> List[Tuple[object, float]]:
        """``(counter, amount)`` for each phase-ms and op count of the
        record, in booking order."""
        last = self._last_book
        if (
            last is None
            or last[0] is not record.phase_ms
            or last[1] is not record.phase_op_counts
        ):
            increments = [
                (self._phase_ms(phase), ms)
                for phase, ms in record.phase_ms.items()
            ]
            for phase, counts in record.phase_op_counts.items():
                for op, n in counts.items():
                    increments += (
                        (self._ops(op), n), (self._phase_ops(phase, op), n)
                    )
            # The objects are held, so their identities stay theirs.
            last = self._last_book = (
                record.phase_ms, record.phase_op_counts, increments
            )
        return last[2]

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

    ``threads`` is the number of worker *slots*: what the router places
    batches on, the control plane (``add_worker`` / ``remove_worker``)
    scales and the simulated-cost book (:attr:`ServiceStats.threads`,
    the paper's multithreading) counts.  One host thread — the pump —
    evaluates all of them, one assignment at a time
    (:class:`~repro.serve.transport.InThreadTransport` says why): one
    batch, or — under ``engine="megakernel"`` on a backend with
    ``megakernel_ops`` — up to eight ready batches of a model sharing
    one kernel pass, each still booked, numbered and answered as its
    own batch.  Wall-clock parallelism is worker processes
    (:class:`~repro.serve.cluster.ClusterService`, the same facade over
    :class:`~repro.serve.transport.ProcessTransport`: the ready batches
    are shared out between the idle workers, each worker's share one
    assignment and one kernel pass, by the same routine).

    Scheduling knobs: ``default_deadline_ms`` applies a relative
    deadline to every query that does not bring its own (deadline slack
    also forces partial-batch cuts); ``max_queue`` bounds each model's
    pending queue (admission control — :class:`RejectedQuery` on
    overflow); ``clock`` injects a time source (a
    :class:`~repro.serve.simclock.VirtualClock` makes deadline behavior
    unit-testable without sleeps).  Evaluation errors are deterministic
    and never retried — once the engine ladder is exhausted they fail
    the batch's futures with one
    :class:`~repro.errors.ServeError` naming the batch and quoting the
    evaluator's ``Type: message``.
    """

    def __init__(
        self,
        threads: int = 2,
        engine: str = ENGINE_TAPE,
        backend: Optional[str] = None,
        default_deadline_ms: Optional[float] = None,
        max_queue: Optional[int] = None,
        verify_oracle: bool = True,
        tracer=None,
        clock: Optional[Clock] = None,
    ):
        clock = clock if clock is not None else RealClock()
        self._open(
            InThreadTransport(verify_oracle, tracer, clock),
            threads,
            verify_oracle=verify_oracle,
            engine=engine,
            backend=backend,
            clock=clock,
            default_deadline_ms=default_deadline_ms,
            max_queue=max_queue,
            tracer=tracer,
        )
        self._start_pump()

    def _open(
        self,
        transport: Transport,
        workers: int,
        *,
        clock: Clock,
        engine: str = ENGINE_TAPE,
        backend: Optional[str] = None,
        default_deadline_ms: Optional[float] = None,
        max_queue: Optional[int] = None,
        verify_oracle: bool = False,
        tracer=None,
        **router_options,
    ) -> None:
        """Validate, build the spine over ``transport``, start its workers.

        Every refusal happens before a worker is started: a typo fails
        at construction with nothing to clean up.  Nothing runs the
        spine yet: a live constructor then starts the pump thread
        (:meth:`_start_pump`), the simulator steps :meth:`_pump_once`
        itself.
        """
        from repro.serve.cluster import RouterCore

        engine_row(engine, error=ValidationError)
        if max_queue is not None:
            require_at_least("max_queue", max_queue, 1)
        #: Default FHE backend for registered models.
        self.backend = canonical_backend_name(backend)
        if default_deadline_ms is not None:
            require_real("default_deadline_ms", default_deadline_ms)
            if default_deadline_ms <= 0:
                raise ValidationError(
                    f"default_deadline_ms must be > 0, got "
                    f"{default_deadline_ms}"
                )
        #: The routing core.  Guarded by ``_lock``, like the transport.
        self.router = RouterCore(
            workers=workers, tracer=tracer, **router_options
        )
        interval = transport.heartbeat_interval_s
        if (
            interval is not None
            and interval >= self.router.heartbeat_timeout_s
        ):
            raise ValidationError(
                f"heartbeat_interval_s ({interval}) must be "
                f"< heartbeat_timeout_s "
                f"({self.router.heartbeat_timeout_s}); a worker pinged "
                f"less often than the liveness horizon would always "
                f"look dead"
            )
        #: One shared registry: the scheduler core's counters, the
        #: router's, the model registry's setup metrics and the batch
        #: aggregates all write here, so one snapshot tells the whole
        #: story.
        self.metrics: MetricsRegistry = self.router.metrics
        #: Optional span tracer (``repro.obs.trace.Tracer``): threads
        #: through the core (batch spans, router instants) and the in-thread
        #: transport (stage spans).  None — the default — costs nothing
        #: on any hot path.
        self.tracer = tracer
        self.clock = clock
        self.transport = transport
        self.registry = ModelRegistry(metrics=self.metrics)
        self.verify_oracle = verify_oracle
        self.engine = engine
        self.default_deadline_ms = default_deadline_ms
        self.max_queue = max_queue
        self._stats = _StatsAggregator(threads=workers, metrics=self.metrics)
        self._lock = threading.Lock()
        #: Signalled by the pump whenever nothing is left in flight.
        self._idle = threading.Condition(self._lock)
        #: The pump is answering, outside the lock, what it just booked.
        self._delivering = False
        self._closing = False
        self._stopping = False
        now = clock.now()
        try:
            for worker in range(workers):
                self._start_worker_locked(worker, now)
        except ServeError:
            transport.close()  # the workers that did start
            raise

    def _start_pump(self) -> None:
        """Run the spine live: the pump thread, and a decision log
        windowed to :data:`DECISION_WINDOW` (a stepped spine keeps its
        whole log: the simulator's replays are hashed)."""
        self.router.decisions = deque(maxlen=DECISION_WINDOW)
        self._pump = threading.Thread(
            target=self._pump_loop, name="copse-serve-pump", daemon=True
        )
        self._pump.start()

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
        seccomp_variant: str = VARIANT_ALOUFI,
    ) -> RegisteredModel:
        """Compile, parameter-select, encrypt, and plan ``model`` once.

        ``engine`` and ``backend`` override the service defaults for
        this model (per-model backend choice is recorded in
        :attr:`ServiceStats.model_backends`); ``params`` and
        ``seccomp_variant`` are set per model only.  ``weight`` is
        the model's fair-share weight against other registered models;
        ``max_queue`` overrides the service-wide pending-queue bound.
        All of these are fixed until :meth:`unregister_model`: to change
        one, unregister the model and register it again.  A worker
        process receives the model lazily, exactly once per (worker,
        epoch), when placement first assigns it there (or eagerly:
        :meth:`preload`).
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
            seccomp_variant=seccomp_variant,
            backend=self.backend if backend is None else backend,
        )
        try:
            with self._lock:
                self.router.add_model(
                    name,
                    capacity=registered.layout.capacity,
                    weight=weight,
                    max_pending=(
                        self.max_queue if max_queue is None else max_queue
                    ),
                    service_ms=registered.estimated_batch_ms,
                )
                self.router.set_lanes(name, self.transport.stage(registered))
        except ValidationError:
            self.registry.unregister(name)
            raise
        self._stats.record_setup(registered)
        return registered

    def unregister_model(self, name: str) -> None:
        """Retire a model: drop it from the registry and stop serving it.

        Queries still pending for the model fail with
        :class:`~repro.errors.ServeError`, so submitters always learn
        the outcome; flush first if the answers matter.
        """
        self.registry.unregister(name)
        with self._routing() as now:
            self._stop_serving(name, now)

    def _stop_serving(self, name: str, now: float) -> None:
        self.router.remove_model(name, now=now)  # fails what it queued
        self.transport.unstage(name)

    @contextlib.contextmanager
    def _routing(self):
        """Hold the lock over a change to the router; yields ``now``.

        On the way out, what the change made placeable is dispatched
        and — outside the lock, because a done-callback may re-enter
        the service — what it failed is delivered.
        """
        with self._lock:
            now = self.clock.now()
            try:
                yield now
                self._dispatch_locked(now)
            finally:
                failures = self.router.drain_failures()
        deliver_failures(failures)

    def preload(self, name: str) -> None:
        """Eagerly ship ``name`` to every live worker (warm the pool)."""
        self.registry.get(name)  # name resolution (or raise)
        now = self.clock.now()
        with self._lock:
            for action in self.router.ship_everywhere(name, now):
                self.transport.send(action)

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

        The block (an iterator is read once) is validated whole, before
        any of it is admitted, and admitted as one run under one lock
        hold, one clock read (one ``submit_time`` and one deadline for
        the block; N ``submit`` calls each read the clock) and one
        dispatch.  Full batches dispatch immediately; partial batches
        dispatch when their deadline slack runs out, on :meth:`flush`,
        or when more submissions fill them.  Raises
        :class:`~repro.errors.RejectedQuery` when the model's queue
        reaches its bound — the queries ahead of the refused one stay
        admitted, their futures on the exception's ``admitted`` — and
        :class:`~repro.errors.ServeError` after :meth:`close`.  An
        ill-typed ``tenant`` / ``deadline_ms`` / ``priority`` is a
        :class:`~repro.errors.ValidationError` that admits nothing.
        """
        rows, futures = admit_block(
            self.registry.get(model_name), feature_lists
        )
        if deadline_ms is None:
            deadline_ms = self.default_deadline_ms
        else:
            require_real("deadline_ms", deadline_ms)
        refusal = None
        with self._routing() as now:
            try:
                self.router.submit_block(
                    model_name,
                    futures,
                    now,
                    rows,
                    tenant=tenant,
                    deadline=(
                        None if deadline_ms is None
                        else now + deadline_ms * MS
                    ),
                    priority=priority,
                )
            except RejectedQuery as exc:
                refusal = exc  # what it admitted still dispatches
        self.transport.wake()  # the next cut may be due sooner now
        if refusal is not None:
            raise refusal
        return futures

    def flush(self, model_name: Optional[str] = None) -> None:
        """Dispatch all pending (including partial) batches and wait
        until nothing is dispatchable or in flight.

        Flushing a model with nothing pending is a no-op.  Work a crash
        parked behind a backoff is not waited for — its futures are.
        """
        if model_name is not None:
            self.registry.get(model_name)  # name resolution (or raise)
        with self._routing() as now:
            if model_name is None:
                for name in self.router.queue_names():
                    # Retired directly through the registry: it stops
                    # being served here (its queued queries fail loudly).
                    if name not in self.registry:
                        self._stop_serving(name, now)
            self.router.flush(model_name)
        router = self.router
        self._wait_until(
            lambda: not (router.running or router.has_ready(self.clock.now()))
        )

    def drain(self, timeout: Optional[float] = None) -> bool:
        """Block until no admitted query is queued, parked or in flight
        (False when ``timeout`` seconds pass first).  A partial batch
        nobody flushed and no deadline forces is still queued."""
        return self._wait_until(
            lambda: self.router.outstanding == 0, timeout
        )

    def _wait_until(self, done: Callable[[], bool],
                    timeout: Optional[float] = None) -> bool:
        give_up = None if timeout is None else time.monotonic() + timeout
        with self._idle:
            # The pump signals when it runs out of work; the 50 ms poll
            # covers what moves without it (the clock, a cancel).
            while not self._idle.wait_for(done, 0.05):
                if give_up is not None and time.monotonic() >= give_up:
                    return False
            # ... and answers what it booked outside the lock: wait for
            # that too, unless a done-callback holds the pump up.
            self._idle.wait_for(lambda: not self._delivering, 0.05)
        return True

    def classify(
        self, model_name: str, features: Sequence[int]
    ) -> ClassificationResult:
        """Synchronous single query: :meth:`classify_many` of one."""
        return self.classify_many(model_name, (features,))[0]

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
        propagates — no query is left queued behind a future nobody
        holds.  An empty request returns ``[]`` without touching the
        router.
        """
        self.registry.get(model_name)  # name resolution (or raise)
        feature_lists = query_block(feature_lists)
        if not len(feature_lists):
            return []
        try:
            futures = self.submit_many(model_name, feature_lists, tenant)
        except RejectedQuery:
            self.flush(model_name)  # serve what was admitted ahead of it
            raise
        self.flush(model_name)
        return [f.result() for f in futures]

    def pending(self, model_name: Optional[str] = None) -> int:
        """Admitted queries still queued (not yet cut into a batch)."""
        if model_name is not None:
            self.registry.get(model_name)  # name resolution (or raise)
        with self._lock:
            return self.router.pending(model_name)

    # ------------------------------------------------------------------
    # Control-plane seams (the worker pool, resized live)
    # ------------------------------------------------------------------

    def add_worker(self) -> int:
        """Grow the pool by one worker; returns its fresh id.

        The pump's next step places work on it, so the workers of one
        scale step are placed over together.  A worker that cannot be
        started raises :class:`~repro.errors.ServeError`, and its id is
        given up on.
        """
        with self._lock:
            if self._closing:
                raise ValidationError("the service is closed")
            now = self.clock.now()
            worker = self.router.add_worker(now)
            try:
                self._start_worker_locked(worker, now)
            except ServeError:
                self.router.crash_worker(worker, now)
                self.router.abandon_worker(
                    worker, self.transport.startup_deaths(worker), now
                )
                raise
        self.transport.wake()
        return worker

    def remove_worker(self) -> int:
        """Permanently stop the highest-id **idle** worker; returns its
        id (never reused).

        Raises :class:`~repro.errors.ValidationError` (via the router)
        while every worker has a batch in flight or when it is the last
        live one — the in-flight safety invariant the control plane's
        guards also enforce.
        """
        with self._lock:
            worker = self.router.retirable_worker()
            self.router.retire_worker(worker, self.clock.now())
            self.transport.stop_worker(worker, graceful=True)
        return worker

    @property
    def workers(self) -> int:
        """Current worker-pool size (live workers)."""
        with self._lock:
            return self.router.live_workers

    # ------------------------------------------------------------------
    # Introspection / lifecycle
    # ------------------------------------------------------------------

    def stats(self) -> ServiceStats:
        with self._lock:
            return self._stats.snapshot(scheduler=self.router.stats())

    def metrics_snapshot(self) -> Dict:
        """A JSON-able snapshot of the shared metrics registry.

        Refreshes the point-in-time gauges (pending / running / parked)
        first — this is the payload of every ``repro serve
        --stats-interval`` JSONL line.
        """
        with self._lock:
            self.router.stats()
            return self.metrics.snapshot()

    def render_prometheus(self) -> str:
        """The shared registry in Prometheus text exposition format."""
        with self._lock:
            self.router.stats()
            return self.metrics.render_prometheus()

    @property
    def decisions(self) -> List[Tuple]:
        """The router's most recent :data:`DECISION_WINDOW` decisions."""
        with self._lock:
            return list(self.router.decisions)

    def dlq(self) -> List[Dict]:
        """The quarantined (dead-lettered) queries, oldest first."""
        with self._lock:
            return self.router.dlq.as_dicts()

    @property
    def closed(self) -> bool:
        return self._closing

    def close(self) -> None:
        """Stop admission, finish admitted work, stop pump and workers.

        Idempotent; :meth:`submit` afterwards raises
        :class:`~repro.errors.ServeError`.  How long admitted work is
        waited for is the transport's to say
        (:attr:`~repro.serve.transport.Transport.close_grace_s`).  A
        pump that outlives its join is a leak, not a nuisance — it can
        race a later service in the same process — so it is counted
        (``cluster_receiver_leaked``) and warned about instead of being
        swallowed.
        """
        with self._routing():
            if self._closing:
                return
            self._closing = True
            self.router.close()
            self.router.flush()
        self.drain(timeout=self.transport.close_grace_s)
        with self._lock:
            self._stopping = True
        self.transport.wake()
        self._pump.join(timeout=5.0)
        if self._pump.is_alive():
            self.metrics.counter("cluster_receiver_leaked").inc()
            warnings.warn(
                f"{type(self).__name__} pump thread failed to stop "
                f"within 5s of close(); leaking it (its transport's "
                f"handles stay held)",
                RuntimeWarning,
                stacklevel=2,
            )
        self.transport.close()

    def __enter__(self) -> "CopseService":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()

    # ------------------------------------------------------------------
    # The pump: the one thread that drives the router in real time
    # ------------------------------------------------------------------

    def _start_worker_locked(self, worker: int, now: float) -> None:
        self.transport.start_worker(worker, self.router.epochs[worker])
        if self.transport.heartbeat_interval_s is not None:
            self.router.worker_started(worker, now)

    def _dispatch_locked(self, now: float) -> None:
        room = self.transport.room()
        if room != 0:
            for action in self.router.dispatch(now, limit=room):
                self.transport.send(action)

    def _pump_loop(self) -> None:
        transport = self.transport
        timeout = 0.0
        while True:
            wake_at = self._pump_once(transport.wait(timeout))
            if self._stopping:
                return
            timeout = transport.poll_interval_s
            if wake_at is not None:
                timeout = min(timeout, max(0.0, wake_at - self.clock.now()))

    def _pump_once(self, waited) -> Optional[float]:
        """One step of the spine: handle what ``transport.wait``
        returned, check liveness at a heartbeat round, dispatch, and
        answer — futures outside the lock.  Returns the next moment a
        dispatch could make progress (None: none is due).

        The pump thread calls it in its loop; the simulator calls it
        after every event of its virtual transport.
        """
        router, transport = self.router, self.transport
        resolutions: List[Callable[[], None]] = []
        with self._lock:
            if self._stopping:
                return None
            now = self.clock.now()
            for event in transport.receive(waited):
                self._handle_locked(event, now, resolutions)
            if transport.heartbeat_round(now):
                for worker in router.check_health(now):
                    self._crash_locked(worker, now)
            self._dispatch_locked(now)
            failures = router.drain_failures()
            wake_at = router.next_wake_time(now)
            idle = not router.running
            self._delivering = bool(failures or resolutions)
        # Futures resolve outside the lock: a caller's done-callback
        # may legitimately call back into the service (stats,
        # another query's result()).
        deliver_failures(failures)
        for resolve in resolutions:
            resolve()
        if idle or self._delivering:
            with self._idle:  # only now: flush() returns to answers
                self._delivering = False
                self._idle.notify_all()
        return wake_at

    def _handle_locked(self, event, now: float,
                       resolutions: List[Callable[[], None]]) -> None:
        router = self.router
        if isinstance(event, Heartbeat):
            router.heartbeat(event.worker, event.epoch, now)
            return
        if isinstance(event, WorkerDied):
            # A malformed result may lie about where it came from.
            if (
                event.worker < len(router.epochs)
                and event.epoch == router.epochs[event.worker]
            ):
                self._crash_locked(event.worker, now)
            return
        assignment = event.assignment
        answered = [r for r in event.records if r is not None]
        for record in answered:
            if record.degraded is not None:
                router.record_degrade(assignment.queue, *record.degraded, now)
        # A stale epoch is refused here: its queries were already parked.
        if router.complete(
            assignment, event.epoch, now,
            OUTCOME_OK if answered else OUTCOME_ERROR,
            worker=event.worker, failed=event.failed,
        ):
            self._stats.record_batches(answered)
            resolutions.append(event.resolve)

    def _crash_locked(self, worker: int, now: float) -> None:
        """A worker is gone (pipe EOF, liveness timeout, malformed
        result): crash, respawn, re-place.

        The router decides the batch's fate (park behind backoff,
        quarantine-bisect, promote a hedge replica); here the dead
        incarnation is reaped and replaced.  A None from
        ``crash_worker`` means the batch survives on its hedge replica,
        so the transport keeps waiting for it.  A slot whose last
        :data:`MAX_STARTUP_DEATHS` incarnations all died before
        reporting ready, or could not be started, is abandoned, not
        restarted.
        """
        router, transport = self.router, self.transport
        if not router.alive[worker]:
            return
        interrupted = router.crash_worker(worker, now)
        if interrupted is not None:
            transport.forget(interrupted.batch_id)
        transport.stop_worker(worker)
        deaths = transport.startup_deaths(worker)
        if deaths >= MAX_STARTUP_DEATHS:
            router.abandon_worker(worker, deaths, now)
            return
        router.restart_worker(worker, now)
        try:
            self._start_worker_locked(worker, now)
        except ServeError:  # gone before it came up: another death
            self._crash_locked(worker, now)

