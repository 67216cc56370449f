"""Event-driven, deadline-aware, multi-tenant batch scheduler.

The first serve iteration was a FIFO thread pool: callers cut batches
themselves and workers drained a job queue.  That shape cannot express
the regimes a production service actually lives in — deadlines, tenant
fairness, overload, worker failure — so the scheduler now owns the whole
scheduling problem:

* **Per-model bounded queues with admission control.**  Every registered
  model gets a queue with an optional ``max_pending`` bound; a submit
  against a full queue raises :class:`~repro.errors.RejectedQuery`
  instead of growing without bound.  A queue holds *runs*: one admitted
  block each (:class:`QueryRun`), which a cut slices; a query handled
  alone is a run of one.
* **Adaptive batch cutting.**  A batch is cut when it fills *or* when the
  oldest queued query's slack runs out (its deadline minus the model's
  estimated batch service time), not only on a count trigger.  Partial
  batches with no deadline pressure wait for an explicit flush.  One
  cut takes every batch of the queue that is ready by that rule, up to
  the queue's ``lanes`` — the batches its evaluator can run in one go
  (:meth:`SchedulerCore.set_lanes`; 1 unless an engine says otherwise)
  — or, cut for one of several idle evaluators, its share of them.
* **Weighted fair sharing across models.**  Queues carry weights; ready
  queues are served in virtual-time order (served queries divided by
  weight), so a hot model cannot starve a cold one.
* **Priorities and FIFO-within-tenant.**  Within a queue, queries order
  by descending priority then submission order, so equal-priority
  queries of one tenant are always packed in the order they arrived.
* **Failure seams, not failure policy.**  A batch whose *evaluation
  raises* is deliberately not retried: the pipeline is deterministic,
  so a retry would fail identically — those queries fail immediately
  with the original exception.  A worker that *dies* mid-batch is the
  router's to judge (:class:`~repro.serve.cluster.RouterCore`: park
  behind a backoff, quarantine, dead-letter); the core requeues a
  retried query at its original queue position.

This module is the **pure decision core** (:class:`SchedulerCore`: no
threads, no clock ownership — every method takes ``now``): the queues,
the cut, the booking, the worker pool (``alive``, one flag per id ever
issued) and the one in-flight map (``_running``, worker -> the
assignment it runs).  :class:`~repro.serve.cluster.RouterCore` *is* a
``SchedulerCore`` — the same object, with placement, epochs, liveness
and the fault domain on top — and it is what every engine drives.  The
serve facade (:class:`~repro.serve.service.CopseService`) drives it in
real time from one pump thread and a
:class:`~repro.serve.simclock.Clock`; :mod:`repro.serve.loadgen` drives
the *same* core from a deterministic discrete-event loop under a
:class:`~repro.serve.simclock.VirtualClock`.
Because every scheduling decision lives in the core and depends only on
(queue state, time, free workers), the simulated decisions are exactly
the decisions production would make.

Traced, the core records the unit it works in: one ``batch`` span per
assignment, from the cut to its completion (or crash), naming its
queries by ``seq`` with their submit times.  Admission makes no tracer
call; what ends a query outside a batch — a refused block, a query
cancelled at a cut, a failure — is one ``reject`` / ``cancel`` /
``fail`` instant.
"""

from __future__ import annotations

import heapq
import threading
from concurrent.futures import CancelledError, Future, TimeoutError, _base
from dataclasses import dataclass, field
from itertools import groupby
from operator import attrgetter
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.errors import (
    RejectedQuery,
    ServeError,
    ValidationError,
    require_at_least,
    require_int,
    require_real,
)
from repro.obs.metrics import MetricsRegistry, bind_children
from repro.serve.simclock import MS

#: Completions whose latencies feed the percentile window; older samples
#: age out so a long-lived service neither grows without bound nor pays
#: an ever-larger sort per stats() snapshot.
LATENCY_WINDOW = 65536

#: ``complete()`` outcomes.
OUTCOME_OK = "ok"          #: batch evaluated, futures resolved
OUTCOME_ERROR = "error"    #: evaluation raised — deterministic, no retry


@dataclass
class PendingQuery:
    """A validated query with its future, as one payload."""

    features: List[int]
    future: "QueryFuture" = field(default_factory=lambda: QueryFuture())


@dataclass(eq=False)
class QueryRun:
    """Queued queries of one admitted block: the one unit of queued
    work, which a cut slices.  Member ``k`` is query ``seq + k``; all
    share tenant, submit time, deadline, priority and ``retries`` (the
    crashes survived: a query handled alone is a run of one,
    :meth:`singles`).  ``rows`` is their ``(n, features)`` array
    (:meth:`block`); ``payloads`` are the payload API's, each with a
    ``future`` (None for a block of futures); ``condition`` is the one
    their futures share (None: each has its own)."""

    __slots__ = ("queue", "tenant", "submit_time", "deadline", "priority",
                 "seq", "futures", "rows", "payloads", "condition",
                 "retries")
    queue: str
    tenant: str
    submit_time: float
    deadline: Optional[float]
    priority: int
    seq: int
    futures: List["QueryFuture"]
    rows: Any
    payloads: Optional[List[Any]]
    condition: Optional[threading.Condition]
    retries: int

    def __len__(self) -> int:
        return len(self.futures)

    def sort_key(self) -> Tuple[int, int]:
        # Higher priority first; FIFO (submission order) within a
        # priority level — which makes FIFO-within-tenant structural.
        return (-self.priority, self.seq)

    def seqs(self) -> range:
        """The members' ``seq``s, in order."""
        return range(self.seq, self.seq + len(self))

    def piece(self, lo: int, hi: int) -> "QueryRun":
        """Members ``lo`` to ``hi`` as a run of their own."""
        rows, payloads = self.rows, self.payloads
        return QueryRun(self.queue, self.tenant, self.submit_time,
                        self.deadline, self.priority, self.seq + lo,
                        self.futures[lo:hi],
                        None if rows is None else rows[lo:hi],
                        payloads and payloads[lo:hi], self.condition,
                        self.retries)

    def singles(self) -> List["QueryRun"]:
        """Each member as a run of one."""
        return [self.piece(k, k + 1) for k in range(len(self))]

    def block(self) -> np.ndarray:
        """The members' ``(n, features)`` int64 rows: a run of payloads
        reads them off its payloads, once."""
        if self.rows is None:
            self.rows = np.array(
                [p.features for p in self.payloads], dtype=np.int64
            ).reshape(len(self), -1)
        return self.rows


class Assignment:
    """What one worker evaluates in one go: one placement, one flight,
    one completion — of one batch (ciphertext), or of the several a
    queue with ``lanes`` had ready at the cut.  ``parts`` holds each
    batch's runs; ``batch_id`` is the first batch's, batch ``j`` is
    ``batch_id + j``; ``span`` is the ``batch`` span naming its members
    by ``seq`` (None untraced), which evaluators parent stages on."""

    def __init__(self, batch_id: int, queue: str, worker: int,
                 parts: List[List[QueryRun]], cut_time: float,
                 span: Optional[int] = None):
        self.batch_id, self.queue, self.worker = batch_id, queue, worker
        self.cut_time, self.span, self.parts = cut_time, span, parts
        #: Queries in each batch, in order.
        self.fills = tuple(sum(map(len, part)) for part in parts)
        self.size = sum(self.fills)

    def runs(self) -> List[QueryRun]:
        """Every batch's runs, in order."""
        return [run for part in self.parts for run in part]

    def features(self) -> np.ndarray:
        """Every query's ``(n, features)`` int64 rows, in order, as one
        array (a lone run's without a copy)."""
        blocks = [run.block() for run in self.runs()]
        return blocks[0] if len(blocks) == 1 else np.concatenate(blocks)


@dataclass(frozen=True)
class SchedulerStats:
    """Immutable snapshot of the scheduler's counters.

    Conservation invariant (once drained): ``submitted == completed +
    rejected + failed + cancelled + dead_lettered``.  Latency
    percentiles are nearest-rank, in ms, over a sliding window
    of the most recent :data:`LATENCY_WINDOW` completions (bounded
    memory under sustained load); the max is exact and all-time.
    """

    submitted: int = 0
    completed: int = 0
    rejected: int = 0
    failed: int = 0
    cancelled: int = 0
    retries: int = 0
    deadline_misses: int = 0
    #: The router's ``cluster_crashes`` counter (0 on a bare core).
    worker_crashes: int = 0
    #: Queries quarantine isolated as poison (terminal, not in failed).
    dead_lettered: int = 0
    batches: int = 0
    latency_p50_ms: float = 0.0
    latency_p99_ms: float = 0.0
    latency_max_ms: float = 0.0
    per_tenant_submitted: Dict[str, int] = field(default_factory=dict)
    per_tenant_completed: Dict[str, int] = field(default_factory=dict)
    per_queue_completed: Dict[str, int] = field(default_factory=dict)

    @property
    def deadline_miss_rate(self) -> float:
        """Fraction of completed queries that finished past deadline."""
        if not self.completed:
            return 0.0
        return self.deadline_misses / self.completed

    def render(self) -> str:
        lines = [
            f"  submitted / completed: {self.submitted} / {self.completed}",
            f"  rejected (admission) : {self.rejected}",
            f"  failed / cancelled   : {self.failed} / {self.cancelled}",
            f"  retries / crashes    : {self.retries} / "
            f"{self.worker_crashes}",
            f"  dead-lettered        : {self.dead_lettered}",
            f"  deadline misses      : {self.deadline_misses} "
            f"({100.0 * self.deadline_miss_rate:.2f}%)",
            f"  latency p50 / p99 ms : {self.latency_p50_ms:.3f} / "
            f"{self.latency_p99_ms:.3f}",
        ]
        for label, counts in (
            ("submitted per tenant", self.per_tenant_submitted),
            ("completed per tenant", self.per_tenant_completed),
            ("completed per queue", self.per_queue_completed),
        ):
            if counts:
                joined = ", ".join(
                    f"{key}={n}" for key, n in sorted(counts.items())
                )
                lines.append(f"  {label:<20} : {joined}")
        return "\n".join(lines)


class _ModelQueue:
    """Pending queries and fair-share bookkeeping for one model."""

    __slots__ = (
        "name", "capacity", "weight", "max_pending", "service_s",
        "heap", "count", "flush_pending", "vtime", "_cut_at", "_cut_dirty",
        "lanes",
    )

    def __init__(self, name: str, capacity: int, weight: float,
                 max_pending: Optional[int], service_ms: Optional[float]):
        require_int(f"queue {name!r}: batch capacity", capacity)
        require_real(f"queue {name!r}: fair-share weight", weight)
        if max_pending is not None:
            require_int(f"queue {name!r}: max_pending", max_pending)
        if capacity < 1:
            raise ValidationError(
                f"queue {name!r}: batch capacity must be >= 1, got "
                f"{capacity}"
            )
        if weight <= 0:
            raise ValidationError(
                f"queue {name!r}: fair-share weight must be > 0, got "
                f"{weight}"
            )
        if max_pending is not None and max_pending < 1:
            raise ValidationError(
                f"queue {name!r}: max_pending must be >= 1, got "
                f"{max_pending}"
            )
        self.name = name
        self.capacity = capacity
        self.weight = weight
        self.max_pending = max_pending
        #: Batches one cut may take (:meth:`SchedulerCore.set_lanes`).
        self.lanes = 1
        #: Estimated service time of one assignment in seconds, for
        #: slack cuts.
        #: Seeded from the caller's estimate (the plan's analyzed cost,
        #: whose simulated ms are *not* wall ms) and then refined by
        #: :meth:`observe_service` with each completed assignment's
        #: measured duration in the engine's own clock units — so the real-clock
        #: engine converges on wall time and the simulator stays exact.
        self.service_s = (service_ms or 0.0) * MS
        #: The queued runs, keyed ``(-priority, first seq)``.
        self.heap: List[Tuple[Tuple[int, int], QueryRun]] = []
        #: Queries queued (a cancelled one until a cut drops it).
        self.count = 0
        self.flush_pending = False
        #: Fair-share virtual time: served queries / weight.
        self.vtime = 0.0
        self._cut_at: Optional[float] = None
        self._cut_dirty = True

    def push(self, run: QueryRun) -> None:
        """Queue a run: one heap push and one touch of the cut cache."""
        heapq.heappush(self.heap, (run.sort_key(), run))
        self.count += len(run)
        deadline = run.deadline
        if deadline is None or self._cut_dirty:
            return  # no new cut pressure / cache already needs a rescan
        # A push can only *advance* the cut frontier, so the cached
        # minimum updates in O(1) — a burst of N submissions must not
        # trigger N full heap rescans from the workers it wakes.
        cut = deadline - self.service_s
        self._cut_at = cut if self._cut_at is None else min(self._cut_at, cut)

    def invalidate_cut_cache(self) -> None:
        self._cut_dirty = True

    def observe_service(self, seconds: float) -> None:
        """Fold one completed batch's measured duration into the
        service-time estimate (EWMA), tightening future slack cuts."""
        if seconds < 0:
            return
        if self.service_s <= 0:
            self.service_s = seconds
        else:
            self.service_s += 0.3 * (seconds - self.service_s)
        self._cut_dirty = True

    def cut_deadline(self) -> Optional[float]:
        """Earliest time any queued query forces a cut (slack = 0).

        Cached between queue mutations: workers re-poll this on every
        wake, so recomputing by heap scan each time would make a burst
        of N submissions cost O(N^2) across the pool.
        """
        if self._cut_dirty:
            times = [
                run.deadline - self.service_s
                for _, run in self.heap
                if run.deadline is not None
            ]
            self._cut_at = min(times) if times else None
            self._cut_dirty = False
        return self._cut_at

    def ready(self, now: float) -> bool:
        if not self.heap:
            return False
        if self.count >= self.capacity or self.flush_pending:
            return True
        cut_at = self.cut_deadline()
        return cut_at is not None and cut_at <= now

    def ready_batches(self, now: float) -> int:
        """Batches a cut could take now, counted from the queue's
        length: the full ones, and the remainder when a flush (or, with
        no full batch ahead of it, its slack) makes it due.  A count for
        sharing work out, not a promise: cancelled queries still count,
        and a remainder due by slack behind full batches does not."""
        if not self.ready(now):
            return 0
        full, rest = divmod(self.count, self.capacity)
        return full + (1 if rest and (self.flush_pending or not full) else 0)


class SchedulerCore:
    """The pure scheduling state machine.

    Thread-unsafe by design: callers (the serve facade, the
    discrete-event simulator) serialize access.  Every method takes the
    current time explicitly, so the core itself never reads a clock —
    that is what makes simulated and real scheduling decisions
    identical.
    """

    def __init__(self, workers: int, tracer=None):
        require_at_least("workers", workers, 1)
        self._queues: Dict[str, _ModelQueue] = {}
        #: One flag per worker id ever issued.  Ids are never reused: a
        #: retired worker's id stays dead, so decision logs and traces
        #: are unambiguous.
        self.alive: List[bool] = [True] * workers
        #: The one in-flight map: worker -> the assignment it runs.  A
        #: hedge replica's worker maps to the assignment it shares.
        self._running: Dict[int, Assignment] = {}
        self._next_seq = 0
        self._next_batch_id = 1
        self._closed = False
        #: Span tracer (``repro.obs.trace.Tracer``), or None.  Every
        #: tracer call is guarded by ``is not None`` so a traceless core
        #: pays nothing, and every call passes the caller's explicit
        #: ``now`` — the core still never reads a clock.
        self.tracer = tracer
        # ---- counters (registry-backed: one source of truth) ----------
        #: All scheduling counters live in the core's own
        #: MetricsRegistry (the facade books into it too); the plain
        #: attributes below are the cached instruments, so hot-path
        #: increments stay attribute lookups.  stats() reads the same
        #: registry back into the immutable SchedulerStats view.
        self.metrics = MetricsRegistry()
        m = self.metrics
        self._submitted = m.counter("sched_submitted")
        self._completed = m.counter("sched_completed")
        self._rejected = m.counter("sched_rejected")
        self._failed = m.counter("sched_failed")
        self._cancelled = m.counter("sched_cancelled")
        self._retries = m.counter("sched_retries")
        self._deadline_misses = m.counter("sched_deadline_misses")
        self._dead_lettered = m.counter("sched_dead_lettered")
        self._batches = m.counter("sched_batches")
        #: Latency percentiles are computed over a sliding window of the
        #: most recent completions — bounded memory and a bounded sort
        #: per stats() call under sustained load (the max is tracked
        #: exactly, all-time).
        self._latencies_ms = m.histogram(
            "sched_latency_ms", window=LATENCY_WINDOW
        )
        #: Labelled children, each resolved through the registry once
        #: (and still created on first use) — not per query.
        self._tenant_submitted = bind_children(
            m.counter, "sched_tenant_submitted", "tenant")
        self._tenant_completed = bind_children(
            m.counter, "sched_tenant_completed", "tenant")
        self._queue_completed = bind_children(
            m.counter, "sched_queue_completed", "queue")
        self._tenant_latency_ms = bind_children(
            m.histogram, "sched_tenant_latency_ms", "tenant")
        self._pending_failures: List[Tuple[Any, Exception]] = []

    # ------------------------------------------------------------------
    # Queue management
    # ------------------------------------------------------------------

    def add_queue(
        self,
        name: str,
        capacity: int,
        weight: float = 1.0,
        max_pending: Optional[int] = None,
        service_ms: Optional[float] = None,
    ) -> None:
        if name in self._queues:
            raise ValidationError(f"queue {name!r} already exists")
        queue = _ModelQueue(name, capacity, weight, max_pending, service_ms)
        # A late joiner starts at the least-served peer's virtual time:
        # it cannot replay the service it "missed" before registering
        # (starting at 0 would let it monopolize the pool to catch up),
        # yet it is not handicapped beyond the current fairness frontier.
        if self._queues:
            queue.vtime = min(q.vtime for q in self._queues.values())
        self._queues[name] = queue

    def remove_queue(self, name: str, now: float) -> int:
        """Drop a queue, failing its still-pending queries.  Returns the
        number of queries failed."""
        queue = self._queues.pop(name, None)
        if queue is None:
            return 0
        return self._fail_queued(queue, lambda single: ServeError(
            f"model {name!r} was unregistered with the query still queued"
        ), now)

    def fail_pending(self, exc_for: Callable[[QueryRun], Exception],
                     now: float) -> int:
        """Fail every queued query of every queue (the queues stay).
        Returns the number of queries failed."""
        return sum(self._fail_queued(queue, exc_for, now)
                   for queue in self._queues.values())

    def _fail_queued(self, queue: _ModelQueue,
                     exc_for: Callable[[QueryRun], Exception],
                     now: float) -> int:
        """Empty ``queue``, failing each query in the cut's order with
        ``exc_for`` of it as a run of one; returns how many."""
        singles = [one for _, run in sorted(queue.heap)
                   for one in run.singles()]
        for single in singles:
            self._fail(single, exc_for(single), now)
        queue.heap.clear()
        queue.count = 0
        queue.flush_pending = False
        queue.invalidate_cut_cache()
        return len(singles)

    def queue_names(self) -> List[str]:
        return sorted(self._queues)

    def set_lanes(self, name: str, lanes: int) -> None:
        """Say how many batches of ``name`` one evaluation can run.

        One cut then takes up to that many *ready* batches as a single
        :class:`Assignment`.  Derived by whoever evaluates (the
        transport, when it stages the model), never a tuning knob: a
        queue nobody spoke for keeps 1.
        """
        queue = self._queue_or_raise(name)
        require_at_least(f"queue {name!r}: lanes", lanes, 1)
        queue.lanes = lanes

    def lanes(self, name: str) -> int:
        """What :meth:`set_lanes` last said for ``name``."""
        return self._queues[name].lanes

    @property
    def workers(self) -> int:
        """Worker ids issued so far (retired and crashed ones included)."""
        return len(self.alive)

    @property
    def live_workers(self) -> int:
        """The pool's size: workers that can take an assignment."""
        return sum(self.alive)

    def idle_workers(self) -> List[int]:
        """Live workers with nothing in flight (ascending ids)."""
        return [
            w for w, live in enumerate(self.alive)
            if live and w not in self._running
        ]

    def pending(self, name: Optional[str] = None) -> int:
        if name is not None:
            queue = self._queues.get(name)
            return queue.count if queue else 0
        return sum(q.count for q in self._queues.values())

    @property
    def running(self) -> int:
        """Queries currently being evaluated (a hedged one once)."""
        return sum(
            a.size for w, a in self._running.items() if a.worker == w
        )

    @property
    def outstanding(self) -> int:
        """Admitted queries not yet terminal (queued or running)."""
        return self.pending() + self.running

    @property
    def closed(self) -> bool:
        return self._closed

    def close(self) -> None:
        """Refuse new submissions (idempotent)."""
        self._closed = True

    # ------------------------------------------------------------------
    # Submission / flush
    # ------------------------------------------------------------------

    def submit(
        self,
        name: str,
        payload: Any,
        now: float,
        tenant: str = "default",
        deadline: Optional[float] = None,
        priority: int = 0,
    ) -> QueryRun:
        """Admit one query (or raise): the block of one, returned as
        its run."""
        return self.submit_many(
            name, (payload,), now, tenant=tenant, deadline=deadline,
            priority=priority,
        )

    def submit_many(
        self,
        name: str,
        payloads: Sequence[Any],
        now: float,
        tenant: str = "default",
        deadline: Optional[float] = None,
        priority: int = 0,
    ) -> QueryRun:
        """Admit a block of payloads (each with a ``future``, and
        ``features`` if it is evaluated) as one run, returned:
        :meth:`submit_block` for a caller that queues its own
        payloads."""
        queue, seq, admitted = self._admit(name, len(payloads), tenant,
                                           deadline, priority)
        refused = admitted < len(payloads)
        payloads = list(payloads[:admitted])
        return self._enqueue(queue, QueryRun(
            name, tenant, now, deadline, priority, seq,
            [payload.future for payload in payloads], None, payloads,
            None, 0,
        ), refused, now)

    def submit_block(
        self,
        name: str,
        futures: Sequence["QueryFuture"],
        now: float,
        rows: np.ndarray,
        tenant: str = "default",
        deadline: Optional[float] = None,
        priority: int = 0,
    ) -> QueryRun:
        """Admit a block of queries sharing tenant, deadline, priority,
        as one :class:`QueryRun`: their futures, which share one
        condition, and their ``(n, features)`` rows.

        What N ``submit`` calls at the same ``now`` would do, paid once
        per block: one closed check, one queue lookup, one admission
        bound, contiguous ``seq``s in request order, one heap push, one
        cut-cache touch, one ``inc`` per counter.

        Raises :class:`ServeError` once closed and
        :class:`RejectedQuery` when the queue reaches its bound — the
        two explicit overload/lifecycle signals.  A bound reached
        part-way admits the queries ahead of it, counts the first
        refused one, leaves the rest uncounted (the loop would never
        have reached them) and carries the admitted futures on the
        exception.  An ill-typed ``tenant`` / ``priority`` / ``deadline``
        is a :class:`ValidationError` and admits nothing.
        """
        queue, seq, admitted = self._admit(name, len(futures), tenant,
                                           deadline, priority)
        refused = admitted < len(futures)
        if refused:
            futures, rows = futures[:admitted], rows[:admitted]
        return self._enqueue(queue, QueryRun(
            name, tenant, now, deadline, priority, seq, futures, rows, None,
            futures[0]._condition if admitted else None, 0,
        ), refused, now)

    def _admit(self, name: str, asked: int, tenant: str,
               deadline: Optional[float],
               priority: int) -> Tuple[_ModelQueue, int, int]:
        """Check a block of ``asked`` queries against the queue and its
        bound: ``(queue, first seq, how many are admitted)``."""
        if self._closed:
            raise ServeError(
                "cannot submit to a closed scheduler: close() has already "
                "stopped admission (create a new service to keep serving)"
            )
        queue = self._queue_or_raise(name)
        # Before anything is queued or counted: an ill-typed field that
        # surfaced later (a label lookup, a heap comparison) would leave
        # a queued query nobody holds.
        if not isinstance(tenant, str):
            raise ValidationError(
                f"tenant must be a string, got {tenant!r}"
            )
        if type(priority) is not int:  # the usual case, without a call
            require_int("priority", priority)
        if deadline is not None:
            require_real("deadline", deadline)
        admitted = asked
        if queue.max_pending is not None:
            admitted = min(admitted, max(0, queue.max_pending - queue.count))
        seq = self._next_seq
        self._next_seq = seq + admitted
        return queue, seq, admitted

    def _enqueue(self, queue: _ModelQueue, run: QueryRun, refused: bool,
                 now: float) -> QueryRun:
        """Queue an admitted run and count it, and the refused query
        after it, if any (raised, with the admitted futures)."""
        admitted, name, tenant = len(run), run.queue, run.tenant
        if admitted:
            queue.push(run)
        counted = admitted + refused
        if counted:
            self._submitted.inc(counted)
            self._tenant_submitted(tenant).inc(counted)
        if refused:
            self._rejected.inc()
            if self.tracer is not None:
                self.tracer.event("reject", now, track=f"tenant:{tenant}",
                                  queue=name)
            raise RejectedQuery(
                f"queue for model {name!r} is full "
                f"({queue.count}/{queue.max_pending} pending); "
                f"query from tenant {tenant!r} rejected",
                model=name,
                tenant=tenant,
                queue_depth=queue.count,
                limit=queue.max_pending,
                admitted=run.futures,
            )
        return run

    def flush(self, name: Optional[str] = None) -> None:
        """Make partial batches cut-eligible (a no-op on empty queues)."""
        targets = (
            [self._queue_or_raise(name)] if name is not None
            else list(self._queues.values())
        )
        for queue in targets:
            if queue.heap:
                queue.flush_pending = True

    def _queue_or_raise(self, name: str) -> _ModelQueue:
        queue = self._queues.get(name)
        if queue is None:
            raise ValidationError(
                f"no scheduler queue named {name!r} "
                f"(registered: {', '.join(self.queue_names()) or 'none'})"
            )
        return queue

    # ------------------------------------------------------------------
    # Dispatch
    # ------------------------------------------------------------------

    def has_ready(self, now: float) -> bool:
        return any(q.ready(now) for q in self._queues.values())

    def ready_queues(self, now: float) -> List[str]:
        """Cut-ready queue names in fair-share dispatch order.

        The order :meth:`assign` would consider them: ascending virtual
        time, name-ordered tiebreak.  Placement-aware callers (the
        cluster router) walk this list and pin each cut to a worker via
        ``assign(now, worker=..., queue=...)``, skipping queues no
        eligible worker can take without starving the rest.
        """
        ready = [q for q in self._queues.values() if q.ready(now)]
        ready.sort(key=lambda q: (q.vtime, q.name))
        return [q.name for q in ready]

    def next_cut_time(self) -> Optional[float]:
        """Earliest future moment a slack cut becomes due, if any."""
        times = [
            t for t in (
                q.cut_deadline() for q in self._queues.values() if q.heap
            )
            if t is not None
        ]
        return min(times) if times else None

    def assign(self, now: float,
               worker: Optional[int] = None,
               queue: Optional[str] = None,
               among: int = 1) -> Optional[Assignment]:
        """Cut the next batch — every ready batch of one queue, up to its
        ``lanes`` — and bind it to a free worker, if possible.

        Among ready queues the one with the smallest fair-share virtual
        time wins (name-ordered tiebreak, so decisions are total-ordered
        and deterministic).  ``worker`` pins the cut to a specific free
        worker; ``queue`` pins it to a specific ready queue (the cluster
        router uses both to couple placement with fair-share order).
        ``among`` is how many free workers the caller is cutting this
        queue for, this one included: above one, the cut leaves the
        others their share and takes ``ceil(ready batches / among)``.
        Cancelled queries are dropped here — a caller's cancel never
        occupies a batch slot.
        """
        if worker is None:
            idle = self.idle_workers()
            if not idle:
                return None
            worker = idle[0]
        while True:
            if queue is not None:
                target = self._queues.get(queue)
                ready = (
                    [target]
                    if target is not None and target.ready(now) else []
                )
            else:
                ready = [q for q in self._queues.values() if q.ready(now)]
            if not ready:
                return None
            chosen = min(ready, key=lambda q: (q.vtime, q.name))
            lanes = chosen.lanes
            if among > 1 and lanes > 1:
                lanes = min(lanes, -(-chosen.ready_batches(now) // among))
            parts: List[List[QueryRun]] = []
            # Every batch that is ready by the queue's own rule, one at
            # a time exactly as successive cuts would take them, up to
            # what one evaluation can run.
            while len(parts) < lanes and chosen.ready(now):
                cut = self._cut_one(chosen, now)
                if cut:
                    chosen.vtime += sum(map(len, cut)) / chosen.weight
                    parts.append(cut)
            if not parts:
                continue  # the whole cut was cancelled; look again
            return self._bind(chosen.name, worker, parts, now)

    def _cut_one(self, queue: _ModelQueue, now: float) -> List[QueryRun]:
        """Slice one batch's worth of live queries off the front of
        ``queue``: the runs it took, in order."""
        heap, runs, taken = queue.heap, [], 0
        while heap and taken < queue.capacity:
            run = heap[0][1]
            need = queue.capacity - taken
            if len(run) > need:
                rest = run.piece(need, len(run))
                heap[0] = (rest.sort_key(), rest)  # still the least key
                run = run.piece(0, need)
            else:
                heapq.heappop(heap)
            queue.count -= len(run)
            for live in self._start(run, now):
                runs.append(live)
                taken += len(live)
        queue.invalidate_cut_cache()
        if not heap:
            queue.flush_pending = False
        return runs

    def _start(self, run: QueryRun, now: float) -> List[QueryRun]:
        """Start a cut run's futures: its live stretches.  A member its
        caller cancelled while queued is counted as cancelled and
        dropped; with none in its block, one hold of the block's
        condition starts them all."""
        condition = run.condition
        if condition is not None:
            with condition:  # a plain Condition has no count: none
                if not getattr(condition, "cancelled", 0):
                    for future in run.futures:
                        future._state = _base.RUNNING
                    return [run]
        live, start = [], 0
        for k, future in enumerate(run.futures):
            if not future.set_running_or_notify_cancel():
                self._cancelled.inc()
                self._instant("cancel", run.tenant, run.seq + k, now)
                if k > start:
                    live.append(run.piece(start, k))
                start = k + 1
        if start < len(run):
            live.append(run if start == 0 else run.piece(start, len(run)))
        return live

    def _instant(self, name: str, tenant: str, seq: int, now: float) -> None:
        """Trace one query's outcome outside a batch (when traced)."""
        if self.tracer is not None:
            self.tracer.event(name, now, track=f"tenant:{tenant}", seq=seq)

    def _bind(self, queue: str, worker: int, parts: List[List[QueryRun]],
              now: float) -> Assignment:
        """The cut runs as one running :class:`Assignment`: one
        consecutive batch id (and one ``sched_batches``) per batch."""
        assignment = Assignment(self._next_batch_id, queue, worker, parts,
                                now)
        self._next_batch_id += len(parts)
        if self.tracer is not None:
            # A member's wait is ``t0 - submitted[i]``.
            runs = assignment.runs()
            assignment.span = self.tracer.begin(
                "batch", now, track=f"worker:{worker}",
                queue=queue, batch_id=assignment.batch_id,
                size=assignment.size, fills=assignment.fills,
                members=[k for r in runs for k in r.seqs()],
                submitted=[round(r.submit_time, 9) for r in runs
                           for _ in r.futures],
            )
        self._running[worker] = assignment
        self._batches.inc(len(parts))
        return assignment

    # ------------------------------------------------------------------
    # Completion / failure
    # ------------------------------------------------------------------

    def complete(self, assignment: Assignment, now: float,
                 outcome: str = OUTCOME_OK,
                 failed: Optional[Dict[int, Optional[str]]] = None
                 ) -> None:
        """Return a worker and account for its assignment's outcome.

        ``"ok"``: count completions, latencies, deadline misses —
        except for the batches whose positions key ``failed``: their
        evaluation raised, and their queries fail with
        :func:`evaluation_failure` quoting the cause it maps them to.
        ``"error"``: every batch's evaluation raised — deterministic,
        so every query fails.  A worker that died mid-batch never
        completes: the router decides its queries' fate.
        """
        if self._running.get(assignment.worker) is not assignment:
            raise ValidationError(
                f"worker {assignment.worker} is not running batch "
                f"{assignment.batch_id}"
            )
        del self._running[assignment.worker]
        failed = failed or {}
        if outcome == OUTCOME_OK:
            finished_queue = self._queues.get(assignment.queue)
            if finished_queue is not None:
                finished_queue.observe_service(now - assignment.cut_time)
        elif outcome == OUTCOME_ERROR:
            failed = {j: failed.get(j) for j in range(len(assignment.fills))}
        else:
            raise ValidationError(f"unknown completion outcome {outcome!r}")
        misses = self._book_completed(assignment, now, failed)
        if assignment.span is not None:
            self.tracer.end(assignment.span, now, outcome=outcome,
                            failed=sorted(failed), deadline_misses=misses)

    def _book_completed(self, assignment: Assignment, now: float,
                        failed: Dict[int, Optional[str]]) -> int:
        """Count one evaluated assignment: one update per instrument.

        Latencies are observed in query order and labelled children
        resolved once per distinct tenant / queue of the assignment, so
        the registry ends bit-for-bit where per-query booking left it.
        The queries of a batch whose position is in ``failed`` fail.
        Returns the deadline misses.
        """
        latencies: List[float] = []
        by_tenant: Dict[str, List[float]] = {}
        by_queue: Dict[str, int] = {}
        misses = 0
        for position, part in enumerate(assignment.parts):
            if position in failed:
                for single in [one for run in part for one in run.singles()]:
                    self._fail(single, evaluation_failure(
                        assignment.batch_id + position, failed[position]
                    ), now)
                continue
            for run in part:  # one latency, deadline and tenant per run
                size = len(run)
                latency_ms = [(now - run.submit_time) / MS] * size
                latencies += latency_ms
                if run.deadline is not None and now > run.deadline:
                    misses += size
                by_tenant.setdefault(run.tenant, []).extend(latency_ms)
                by_queue[run.queue] = by_queue.get(run.queue, 0) + size
        if not latencies:
            return 0
        self._completed.inc(len(latencies))
        self._latencies_ms.observe_many(latencies)
        if misses:
            self._deadline_misses.inc(misses)
        for tenant, values in by_tenant.items():
            self._tenant_completed(tenant).inc(len(values))
            self._tenant_latency_ms(tenant).observe_many(values)
        for queue, count in by_queue.items():
            self._queue_completed(queue).inc(count)
        return misses

    # ------------------------------------------------------------------
    # Fault-domain seams (what the router's crash policy does to queries)
    # ------------------------------------------------------------------

    def requeue(self, single: QueryRun, now: float) -> bool:
        """Return a parked run of one to its queue (False if the queue
        is gone, in which case its query fails at ``now``)."""
        queue = self._queues.get(single.queue)
        if queue is None:
            self._fail(single, ServeError(
                f"model {single.queue!r} was unregistered while a retry "
                f"was parked"
            ), now)
            return False
        queue.push(single)
        return True

    def assign_direct(self, queue_name: str, singles: List[QueryRun],
                      worker: int, now: float) -> Optional[Assignment]:
        """Bind an explicit cohort of runs of one to a free worker as
        one assignment, cut into batches of the queue's capacity.

        The quarantine path: bisected halves must re-execute with
        exactly their membership (a heap cut could mix in fresh
        queries and re-poison them), so the router hands the cohort
        straight in — more than one ciphertext of it, when what crashed
        was an assignment of several.  Cancelled queries are dropped
        like in :meth:`assign`; returns None when every one was
        cancelled.
        """
        runs = [live for single in singles
                for live in self._start(single, now)]
        if not runs:
            return None
        queue = self._queues.get(queue_name)
        capacity = len(runs)  # a queue that is gone: its worker refuses
        if queue is not None:
            queue.vtime += len(runs) / queue.weight
            capacity = queue.capacity
        return self._bind(queue_name, worker, [
            runs[at : at + capacity] for at in range(0, len(runs), capacity)
        ], now)

    def _fail(self, single: QueryRun, exc: Exception, now: float) -> None:
        """Fail a run of one's query with ``exc``."""
        # Deferred: resolving runs the caller's done-callbacks, which may
        # re-enter the service whose lock is held around the core; the
        # future resolves when the caller drains, outside any lock.
        self._failed.inc()
        self._instant("fail", single.tenant, single.seq, now)
        self._pending_failures.append((single.futures[0], exc))

    def drain_failures(self) -> List[Tuple[Any, Exception]]:
        """Take the accumulated (future, exception) deliveries.

        Callers MUST pass the result to :func:`deliver_failures` after
        releasing any lock guarding this core.
        """
        failures, self._pending_failures = self._pending_failures, []
        return failures

    # ------------------------------------------------------------------
    # Stats
    # ------------------------------------------------------------------

    def stats(self) -> SchedulerStats:
        m = self.metrics
        # Point-in-time queue state rides along in the registry so a
        # metrics snapshot sees it without a SchedulerStats in hand —
        # and so the control plane's ControlSnapshot reads the same
        # source of truth as ``repro metrics``: the totals below.  The
        # per-queue gauges are for ``repro metrics`` alone, and a
        # removed queue's last values stay in the registry.
        m.gauge("sched_pending").set(self.pending())
        m.gauge("sched_running").set(self.running)
        m.gauge("sched_live_workers").set(self.live_workers)
        m.gauge("sched_free_workers").set(len(self.idle_workers()))
        for name, queue in sorted(self._queues.items()):
            labels = {"queue": name}
            m.gauge("sched_queue_depth", labels).set(queue.count)
            m.gauge("sched_estimated_batch_ms", labels).set(
                round(queue.service_s / MS, 9)
            )
            m.gauge("sched_queue_weight", labels).set(queue.weight)
            # -1 encodes "unbounded": gauges are floats and the JSON
            # snapshot must stay strict-JSON (no Infinity).
            m.gauge("sched_queue_limit", labels).set(
                -1 if queue.max_pending is None else queue.max_pending
            )
        quantiles = self._latencies_ms.quantiles((0.5, 0.99))
        return SchedulerStats(
            submitted=int(self._submitted.value),
            completed=int(self._completed.value),
            rejected=int(self._rejected.value),
            failed=int(self._failed.value),
            cancelled=int(self._cancelled.value),
            retries=int(self._retries.value),
            deadline_misses=int(self._deadline_misses.value),
            worker_crashes=int(m.counter_value("cluster_crashes")),
            dead_lettered=int(self._dead_lettered.value),
            batches=int(self._batches.value),
            latency_p50_ms=round(quantiles[0.5], 6),
            latency_p99_ms=round(quantiles[0.99], 6),
            latency_max_ms=round(self._latencies_ms.max, 6),
            per_tenant_submitted={
                tenant: int(count) for tenant, count in
                m.labeled_values("sched_tenant_submitted").items()
            },
            per_tenant_completed={
                tenant: int(count) for tenant, count in
                m.labeled_values("sched_tenant_completed").items()
            },
            per_queue_completed={
                queue: int(count) for queue, count in
                m.labeled_values("sched_queue_completed").items()
            },
        )


def evaluation_failure(batch_id: int, cause: Optional[str]) -> ServeError:
    """A failed batch's one refusal, quoting the evaluator's cause."""
    suffix = f": {cause}" if cause else ""
    return ServeError(f"batch {batch_id} evaluation failed{suffix}")


_DONE = (_base.CANCELLED, _base.CANCELLED_AND_NOTIFIED, _base.FINISHED)


class BlockCondition(threading.Condition):
    """The condition one submitted block's futures share, counting the
    members cancelled while queued (:meth:`QueryFuture.cancel`): a cut
    that reads 0 under it starts the block's futures in one hold."""

    cancelled = 0


class QueryFuture(Future):
    """One query's future: a slot of its own, the lock of its block.

    State, outcome, waiters and done-callbacks (both lists made when
    first needed) are per query; the condition is shared by one
    submitted block's queries (None: a private one).  A sibling's
    ``notify_all`` wakes this future's waiters too, so :meth:`result`
    and :meth:`exception` wait until *this* future is done.
    """

    _waiter_list: Optional[List[Any]] = None
    _done_callbacks: Sequence[Callable] = ()

    def __init__(self, condition: Optional[threading.Condition] = None):
        # Future.__init__ would build a Condition and an RLock per query.
        self._condition = condition or BlockCondition()
        self._state = _base.PENDING
        self._result = self._exception = None

    @property
    def _waiters(self) -> List[Any]:  # read under the condition
        if self._waiter_list is None:
            self._waiter_list = []
        return self._waiter_list

    def add_done_callback(self, fn: Callable) -> None:
        with self._condition:  # the first callback makes the list
            self._done_callbacks = list(self._done_callbacks)
        super().add_done_callback(fn)

    def _wait(self, timeout: Optional[float]) -> None:
        if self._state == _base.FINISHED:  # final: read without the lock
            return
        with self._condition:
            self._condition.wait_for(lambda: self._state in _DONE, timeout)
        if self._state != _base.FINISHED:
            raise CancelledError() if self._state in _DONE else TimeoutError()

    def result(self, timeout: Optional[float] = None):
        self._wait(timeout)
        if self._exception is not None:
            try:
                raise self._exception
            finally:
                self = None  # no cycle through the traceback's frame
        return self._result

    def exception(self, timeout: Optional[float] = None):
        self._wait(timeout)
        return self._exception

    def cancel(self) -> bool:
        condition = self._condition
        with condition:  # counted while PENDING: a cut reading 0 is sure
            if self._state == _base.PENDING:
                condition.cancelled = getattr(condition, "cancelled", 0) + 1
        return super().cancel()

    def set_running_or_notify_cancel(self) -> bool:
        # A crash retry reaches its next cut still RUNNING: it is live.
        return (self._state == _base.RUNNING
                or super().set_running_or_notify_cancel())


def settle(futures: Sequence[QueryFuture], outcomes: Sequence[Any]) -> None:
    """Resolve each future with its outcome, an exception failing it
    (call with no locks held).  A block's queries sit together in seq
    order, so its condition is taken once: every state is set, then one
    ``notify_all``; the done-callbacks run after, outside it, in the
    order given.  A future already done is skipped: a hedge replica
    answered it, or its caller cancelled it while it was queued."""
    called, outcomes = [], iter(outcomes)  # zip takes ``run`` first
    for condition, run in groupby(futures, attrgetter("_condition")):
        with condition:
            for future, outcome in zip(run, outcomes):
                if future._state in _DONE:
                    continue
                if isinstance(outcome, BaseException):
                    future._exception, notify = outcome, "add_exception"
                else:
                    future._result, notify = outcome, "add_result"
                future._state = _base.FINISHED
                for waiter in future._waiter_list or ():
                    getattr(waiter, notify)(future)
                if future._done_callbacks:  # read under the condition
                    called.append(future)
            condition.notify_all()
    for future in called:
        future._invoke_callbacks()


def deliver_failures(failures: List[Tuple[Any, Exception]]) -> None:
    """Resolve drained failure deliveries (call with no locks held)."""
    if failures:
        settle(*zip(*failures))
