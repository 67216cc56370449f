"""The decision core every engine drives, and the process-pool constructor.

* :class:`RouterCore` — a :class:`~repro.serve.scheduler.SchedulerCore`
  (bounded queues, fair-share batch cutting, the booking, the worker
  pool and the one in-flight map) that also places: deterministic
  model->worker **placement** (each model prefers a stable rotation of
  the pool), **ship-once** tracking (a worker receives a model's
  :class:`~repro.serve.transport.ShippedModel` envelope exactly once
  per (worker, epoch), keyed by the served name),
  **worker epochs** (a crash bumps the epoch; completions that echo a
  stale epoch are dropped) and **heartbeat liveness**.  One object holds
  each fact once: which worker runs which assignment is ``_running``
  (a hedge replica is a second key on the same assignment), which
  workers exist is ``alive`` / ``epochs`` / ``retired``.  The one
  facade (:class:`~repro.serve.service.CopseService`, over any
  :class:`~repro.serve.transport.Transport`) drives it, one pump step
  at a time: stepped by its thread in real time, or by
  :class:`~repro.serve.loadgen.SimRunner` over a virtual transport
  under a virtual clock.  Every method takes an explicit ``now`` and
  every choice lands in an ordered decision record — the determinism
  witness.
* :class:`ClusterService` — the name that opens the facade over
  :class:`~repro.serve.transport.ProcessTransport`: actual
  ``multiprocessing`` workers behind pipes, forked from one preloaded
  server (spawned where there is none).  Queries submitted
  in-thread, to a 1-worker and to an N-worker pool decrypt to identical
  bits — the workers are pure functions of (shipped model, features).

The fault-domain layer (:mod:`repro.serve.faults`) rides on the same
decision core: crashed batches park behind a **deterministic backoff**
instead of requeueing immediately, a batch that keeps killing workers is
**bisected** until the poison query is isolated in a bounded
**dead-letter queue**, per ``(model, worker)`` **circuit breakers**
steer placement away from failing pairs, and (when enabled) a batch in
flight past ``k x`` its cost estimate is **hedged** onto a second worker
— first valid completion wins, the loser is discarded by the existing
epoch / in-flight staleness check.

Decision records are ``(kind, ...)`` tuples ordered by emission:
``("ship", worker, epoch, model, t)``,
``("assign", batch_id, queue, worker, epoch, size, first_seq, t)``,
``("crash", worker, new_epoch, t)``, ``("restart", worker, epoch, t)``,
``("stale", batch_id, worker, epoch, t)``, the pool's
``("add_worker", worker, t)``, ``("retire", worker, epoch, t)`` and
``("abandon", worker, epoch, deaths, t)``, plus the fault-domain kinds:
``("park", queue, seq, attempt, release_t, t)``,
``("bisect", origin_batch, queue, size, left, right, release_t, t)``,
``("dead_letter", queue, tenant, seq, origin_batch, t)``,
``("breaker", model, worker, state, t)``,
``("hedge", batch_id, primary, worker, epoch, t)``,
``("hedge_win", batch_id, winner, t)``,
``("hedge_promote", batch_id, dead, survivor, t)``,
``("hedge_drop", batch_id, dead, t)`` and
``("degrade", model, from_engine, to_engine, t)``.  Traced, each record
is also the router's trace event: an instant on the ``router`` track.
"""

from __future__ import annotations

import heapq
import itertools
import zlib
from typing import Dict, List, Optional, Tuple

from repro.errors import (
    PoisonQueryError,
    ValidationError,
    WorkerPoolExhaustedError,
    require_at_least,
    require_real,
)
from repro.serve.faults import (
    BREAKER_CLOSED,
    CircuitBreaker,
    DeadLetter,
    DeadLetterQueue,
    RetryPolicy,
)
from repro.serve.scheduler import (
    OUTCOME_OK,
    Assignment,
    QueryRun,
    SchedulerCore,
    SchedulerStats,
)
from repro.serve.simclock import Clock, RealClock
from repro.serve.transport import (
    MAX_STARTUP_DEATHS,
    AssignAction,
    HedgeAction,
    ProcessTransport,
    ShipAction,
)

__all__ = [
    "ShipAction",
    "AssignAction",
    "HedgeAction",
    "MAX_STARTUP_DEATHS",
    "RouterCore",
    "ClusterService",
]

#: Default liveness horizon: a worker silent for this long is declared
#: dead by :meth:`RouterCore.check_health`.  Generous, because a worker
#: evaluating a batch cannot answer pings until it finishes — pipe EOF,
#: not the heartbeat, is the fast path for real process death.
DEFAULT_HEARTBEAT_TIMEOUT_S = 60.0


class _Flight:
    """Hedge bookkeeping for one in-flight batch (hedging enabled only)."""

    __slots__ = ("assignment", "started", "estimate_s", "hedge_worker")

    def __init__(self, assignment: Assignment, started: float,
                 estimate_s: float):
        self.assignment = assignment
        self.started = started
        self.estimate_s = estimate_s
        #: The replica's worker; ``_running`` maps it to the assignment.
        self.hedge_worker: Optional[int] = None


class RouterCore(SchedulerCore):
    """The scheduler core, placing its cuts on a pool that can fail.

    Thread-unsafe by design, like the core it extends: engines
    serialize access and pass ``now`` explicitly, so simulated and real
    clusters make identical routing decisions from identical inputs.
    """

    def __init__(
        self,
        workers: int,
        max_retries: int = 1,
        tracer=None,
        heartbeat_timeout_s: float = DEFAULT_HEARTBEAT_TIMEOUT_S,
        retry_policy: Optional[RetryPolicy] = None,
        breaker: Optional[CircuitBreaker] = None,
        dlq_limit: int = 64,
    ):
        require_at_least("max_retries", max_retries, 0)
        require_real("heartbeat_timeout_s", heartbeat_timeout_s)
        if heartbeat_timeout_s <= 0:
            raise ValidationError(
                f"heartbeat_timeout_s must be > 0, got "
                f"{heartbeat_timeout_s}"
            )
        super().__init__(workers, tracer=tracer)
        #: Backoff-parked retries a query gets before its next crash
        #: sends it to quarantine.
        self.max_retries = max_retries
        self.heartbeat_timeout_s = heartbeat_timeout_s
        self.epochs: List[int] = [0] * workers
        #: Ids retired or abandoned for good: never placed or restarted.
        self.retired: set = set()
        #: Last heartbeat per worker (None until the engine reports one).
        self.last_heartbeat: List[Optional[float]] = [None] * workers
        #: Per-worker set of the model names shipped to it, reset on
        #: every epoch change: the ship-exactly-once ledger.
        self.shipped: List[set] = [set() for _ in range(workers)]
        #: model name -> its placement rotation, until the pool changes.
        self._placements: Dict[str, List[int]] = {}
        #: Every choice, in order: the determinism witness.  (The live
        #: facade swaps in a bounded window; a list is what replays hash.)
        self.decisions: List[Tuple] = []
        # -- fault-domain state (see repro.serve.faults) --------------
        self.retry_policy = (
            retry_policy if retry_policy is not None else RetryPolicy()
        )
        self.breaker = breaker if breaker is not None else CircuitBreaker()
        self.dlq = DeadLetterQueue(limit=dlq_limit)
        #: Runs of one waiting out a crash backoff: (release_t, order, run).
        self._parked: List[Tuple[float, int, QueryRun]] = []
        #: Quarantine cohorts (runs of one) awaiting solo re-execution:
        #: (release_t, order, {"queue", "runs", "origin"}).
        self._cohorts: List[Tuple[float, int, dict]] = []
        self._park_order = itertools.count()
        #: batch_id -> origin batch_id for in-flight quarantine cohorts.
        self._quarantined: Dict[int, int] = {}
        #: batch_id -> hedge bookkeeping (populated only when the retry
        #: policy enables hedging).
        self._flights: Dict[int, _Flight] = {}
        #: (model, to_engine) pairs already logged by record_degrade.
        self._degraded_seen: set = set()
        m = self.metrics
        self._ships = m.counter("cluster_ships")
        self._crashes = m.counter("cluster_crashes")
        self._restarts = m.counter("cluster_restarts")
        self._heartbeats = m.counter("cluster_heartbeats")
        self._stale = m.counter("cluster_epoch_invalidated")
        self._scale_ups = m.counter("cluster_scale_ups")
        self._retires = m.counter("cluster_retires")
        self._parks = m.counter("cluster_parks")
        self._bisections = m.counter("cluster_bisections")
        self._dead_letters = m.counter("cluster_dead_letters")
        self._hedges = m.counter("cluster_hedges")
        self._hedge_wins = m.counter("cluster_hedge_wins")
        self._breaker_trips = m.counter("cluster_breaker_trips")
        m.gauge("cluster_workers").set(workers)

    # ------------------------------------------------------------------
    # Models, and what the core's stats leave out
    # ------------------------------------------------------------------

    def add_model(
        self,
        name: str,
        capacity: int,
        weight: float = 1.0,
        max_pending: Optional[int] = None,
        service_ms: Optional[float] = None,
    ) -> None:
        """Register one served model: its queue, keyed by its name (the
        ship-once ledger's key too)."""
        self.add_queue(
            name,
            capacity=capacity,
            weight=weight,
            max_pending=max_pending,
            service_ms=service_ms,
        )

    def remove_model(self, name: str, now: float) -> int:
        """Stop serving ``name``: its queue (failing what it held), its
        placement and its ship-ledger entries, so a model registered
        again under the name is shipped afresh.  Returns the number of
        queries failed."""
        self._placements.pop(name, None)
        for ledger in self.shipped:
            ledger.discard(name)
        return self.remove_queue(name, now)

    def stats(self) -> SchedulerStats:
        stats = super().stats()
        self.metrics.gauge("cluster_dlq_depth").set(len(self.dlq))
        self.metrics.gauge("cluster_parked").set(self._waiting())
        return stats

    @property
    def outstanding(self) -> int:
        # Parked queries and quarantine cohorts left the queues but
        # still owe their callers a resolution.
        return super().outstanding + self._waiting()

    def _waiting(self) -> int:
        """Queries parked behind a backoff or in a quarantine cohort."""
        return len(self._parked) + sum(
            len(c["runs"]) for _, _, c in self._cohorts
        )

    def _record(self, *fields) -> None:
        """Log one decision; traced, it is also an instant on the
        ``router`` track, named by its kind and timed by its last field
        (always ``round(now, 9)``)."""
        self.decisions.append(fields)
        if self.tracer is not None:
            self.tracer.event(fields[0], fields[-1], track="router",
                              fields=fields[1:-1])

    # ------------------------------------------------------------------
    # Placement + dispatch
    # ------------------------------------------------------------------

    def placement_order(self, model: str) -> List[int]:
        """The model's stable preferred-worker rotation.

        Sharding by a deterministic hash of the model name spreads
        *first choices* across the pool (so co-served models do not all
        pile onto worker 0) while keeping each model's batches sticky to
        the same few workers — which is what makes the ship-once ledger
        pay off.  Salted hashes (``hash``) are banned here: placement
        must replay across processes and runs.  Memoised per model
        until the pool's index space or membership changes; callers
        must not mutate the list.
        """
        order = self._placements.get(model)
        if order is None:
            start = zlib.crc32(model.encode()) % self.workers
            order = self._placements[model] = [
                (start + k) % self.workers for k in range(self.workers)
            ]
        return order

    def _place(self, model: str, now: float,
               exclude: Tuple[int, ...] = ()) -> Optional[int]:
        for worker in self.placement_order(model):
            if worker in exclude:
                continue
            if self.alive[worker] and worker not in self._running:
                allowed, transition = self.breaker.allow(
                    (model, worker), now
                )
                if transition is not None:
                    self._record("breaker", model, worker, transition,
                                 round(now, 9))
                if allowed:
                    return worker
        return None

    def _free_beside(self, model: str, worker: int) -> int:
        """Idle workers other than ``worker`` that a cut of ``model``
        could go to now.  A pair whose breaker is not closed is not
        counted: whether it may probe is :meth:`_place`'s to decide."""
        return sum(
            1 for other in self.idle_workers()
            if other != worker
            and self.breaker.state((model, other)) == BREAKER_CLOSED
        )

    def _ship_if_needed(self, name: str, worker: int, epoch: int,
                        now: float,
                        actions: List[object]) -> bool:
        """Update the ship-once ledger; returns True on a fresh ship."""
        if name in self.shipped[worker]:
            return False
        self.shipped[worker].add(name)
        self._ships.inc()
        self._record("ship", worker, epoch, name, round(now, 9))
        actions.append(ShipAction(worker=worker, epoch=epoch, model=name))
        return True

    def _placed(self, assignment: Assignment, now: float,
                actions: List[object]) -> None:
        """Ship if needed, arm the hedge clock, record and emit one
        freshly bound assignment."""
        name, worker = assignment.queue, assignment.worker
        epoch = self.epochs[worker]
        newly = self._ship_if_needed(name, worker, epoch, now, actions)
        if self.retry_policy.hedging_enabled:
            queue = self._queues.get(name)
            self._flights[assignment.batch_id] = _Flight(
                assignment, started=now,
                estimate_s=queue.service_s if queue is not None else 0.0,
            )
        self._record(
            "assign", assignment.batch_id, name, worker, epoch,
            assignment.size, assignment.parts[0][0].seq, round(now, 9),
        )
        actions.append(AssignAction(
            assignment=assignment, epoch=epoch, newly_shipped=newly,
        ))

    def ship_everywhere(self, name: str, now: float) -> List[ShipAction]:
        """Warm the pool: ship ``name`` to every live worker that does
        not hold it yet."""
        if name not in self._queues:
            raise ValidationError(f"no cluster model named {name!r}")
        actions: List[ShipAction] = []
        for worker in range(self.workers):
            if self.alive[worker]:
                self._ship_if_needed(
                    name, worker, self.epochs[worker], now, actions
                )
        return actions

    def dispatch(self, now: float,
                 limit: Optional[int] = None) -> List[object]:
        """Cut and place every batch that can run right now.

        First releases due backoff parks and quarantine cohorts, then
        walks the ready queues in fair-share order, pins each cut to the
        first eligible worker of the model's placement rotation
        (circuit breakers veto failing (model, worker) pairs), and
        emits the engine's work list: a :class:`ShipAction` the first
        time a (worker, epoch) sees a model, then the
        :class:`AssignAction` for the batch itself.  A queue no eligible worker can take is skipped without
        starving the others.  Finally, batches in flight past their
        hedge threshold get a :class:`HedgeAction` (when hedging is on).
        ``limit`` caps the fresh cuts of this call, for an engine that
        cannot start them all at once (one in-thread evaluator): what
        it cannot start yet stays queued, and fills.

        A pool has several evaluators where the pump thread has one, so
        a queue with ``lanes`` does not hand everything it has ready to
        the first of them: a cut made with other eligible workers free
        (and cuts left under ``limit``) takes its share of the ready
        batches and leaves them theirs (:meth:`SchedulerCore.assign`,
        ``among``) — one client's eight ciphertexts are 4 + 4 on two
        idle workers, and all eight on the only idle one.
        """
        actions: List[object] = []
        self._release_parked(now)
        self._dispatch_cohorts(now, actions)
        cuts = 0
        while limit is None or cuts < limit:
            progressed = False
            for name in self.ready_queues(now):
                worker = self._place(name, now)
                if worker is None:
                    continue
                among = 1
                if self.lanes(name) > 1:
                    among += self._free_beside(name, worker)
                    if limit is not None:
                        among = min(among, limit - cuts)
                assignment = self.assign(now, worker=worker, queue=name,
                                         among=among)
                if assignment is None:
                    self.breaker.release_probe((name, worker))
                    continue  # the whole cut was cancelled
                self._placed(assignment, now, actions)
                progressed = True
                cuts += 1
                break  # re-evaluate fair-share order after every cut
            if not progressed:
                break
        if self.retry_policy.hedging_enabled:
            self._check_hedges(now, actions)
        return actions

    # ------------------------------------------------------------------
    # Fault domains: backoff parks, quarantine cohorts, hedges
    # ------------------------------------------------------------------

    def _release_parked(self, now: float) -> None:
        """Requeue parked queries whose backoff has elapsed."""
        released: List[str] = []
        while self._parked and self._parked[0][0] <= now:
            _, _, single = heapq.heappop(self._parked)
            if self.requeue(single, now):
                released.append(single.queue)
        for name in dict.fromkeys(released):
            # The crashed queries were already cut once; re-flush so a
            # requeued partial batch re-cuts now instead of waiting for
            # a flush nobody will send again.
            self.flush(name)

    def _dispatch_cohorts(self, now: float,
                          actions: List[object]) -> None:
        """Re-execute due quarantine cohorts on breaker-cleared workers."""
        deferred: List[Tuple[float, int, dict]] = []
        while self._cohorts and self._cohorts[0][0] <= now:
            release_t, order, cohort = heapq.heappop(self._cohorts)
            name = cohort["queue"]
            if name not in self._queues:
                # Unregistered while the cohort waited: nowhere to ship
                # it, so its queries fail as a parked retry's would.
                for single in cohort["runs"]:
                    self.requeue(single, now)
                continue
            worker = self._place(name, now)
            if worker is None:
                deferred.append((release_t, order, cohort))
                continue
            assignment = self.assign_direct(
                name, cohort["runs"], worker, now
            )
            if assignment is None:
                self.breaker.release_probe((name, worker))
                continue  # every cohort query was cancelled meanwhile
            self._quarantined[assignment.batch_id] = cohort["origin"]
            self._placed(assignment, now, actions)
        for entry in deferred:
            heapq.heappush(self._cohorts, entry)

    def _unhedged(self) -> List[_Flight]:
        """Flights that may still earn a hedge, in batch order: no
        replica yet, and a model still served to ship it to."""
        return [
            flight for _, flight in sorted(self._flights.items())
            if flight.hedge_worker is None
            and flight.assignment.queue in self._queues
        ]

    def _check_hedges(self, now: float, actions: List[object]) -> None:
        """Speculatively re-place batches stuck past the hedge threshold."""
        for flight in self._unhedged():
            threshold = self.retry_policy.hedge_after_s(flight.estimate_s)
            if now - flight.started < threshold:
                continue
            assignment = flight.assignment
            name = assignment.queue
            worker = self._place(name, now,
                                 exclude=(assignment.worker,))
            if worker is None:
                continue
            epoch = self.epochs[worker]
            newly = self._ship_if_needed(name, worker, epoch, now,
                                         actions)
            self._running[worker] = assignment
            flight.hedge_worker = worker
            self._hedges.inc()
            self._record("hedge", assignment.batch_id, assignment.worker,
                         worker, epoch, round(now, 9))
            actions.append(HedgeAction(
                assignment=assignment, worker=worker, epoch=epoch,
                newly_shipped=newly,
            ))

    def next_wake_time(self, now: float) -> Optional[float]:
        """Earliest future moment a dispatch could make progress.

        Covers slack-cut deadlines, backoff park releases, quarantine
        cohort releases, hedge thresholds, and (while retry work is
        pending) circuit-breaker reopen times — the engine's one timer
        seam, so parked work can never stall a run.
        """
        times: List[float] = []
        cut = self.next_cut_time()
        if cut is not None:
            times.append(cut)
        if self._parked:
            times.append(self._parked[0][0])
        if self._cohorts:
            times.append(self._cohorts[0][0])
        if self.retry_policy.hedging_enabled:
            for flight in self._unhedged():
                times.append(
                    flight.started
                    + self.retry_policy.hedge_after_s(flight.estimate_s)
                )
        if self._parked or self._cohorts:
            reopen = self.breaker.next_transition_time()
            if reopen is not None:
                times.append(reopen)
        return min(times) if times else None

    # ------------------------------------------------------------------
    # Completion + the epoch guard
    # ------------------------------------------------------------------

    def complete(self, assignment: Assignment, epoch: int, now: float,
                 outcome: str = OUTCOME_OK,
                 worker: Optional[int] = None,
                 failed=None) -> bool:
        """Account one finished assignment — unless its worker epoch is
        stale.

        A completion echoing an epoch the router has since bumped comes
        from a superseded worker incarnation: its queries were already
        requeued (crash) or belong to a retired worker.
        Counting it would double-complete queries, so it is dropped and
        recorded.  ``worker`` identifies the delivering worker when it
        may differ from the binding (hedged batches); it defaults to
        ``assignment.worker``.  ``failed`` maps the positions of the
        assignment's batches whose evaluation raised to the cause their
        futures quote (:meth:`SchedulerCore.complete`).  Returns True
        when accepted.
        """
        if worker is None:
            worker = assignment.worker
        if (
            epoch != self.epochs[worker]
            or self._running.get(worker) is not assignment
        ):
            self._stale.inc()
            self._record("stale", assignment.batch_id, worker, epoch,
                         round(now, 9))
            return False
        flight = self._flights.pop(assignment.batch_id, None)
        if flight is not None and flight.hedge_worker is not None:
            # Two executors raced: the loser leaves the in-flight map
            # and the winner is the worker of record.
            if worker == flight.hedge_worker:
                del self._running[assignment.worker]
                assignment.worker = worker
                self._hedge_wins.inc()
            else:
                del self._running[flight.hedge_worker]
            self._record("hedge_win", assignment.batch_id, worker,
                         round(now, 9))
        self._quarantined.pop(assignment.batch_id, None)
        if outcome == OUTCOME_OK:
            healed = self.breaker.record_success(
                (assignment.queue, worker), now
            )
            if healed is not None:
                self._record("breaker", assignment.queue, worker,
                             healed, round(now, 9))
        super().complete(assignment, now, outcome, failed)
        return True

    # ------------------------------------------------------------------
    # Liveness: heartbeats, crashes, restarts
    # ------------------------------------------------------------------

    def worker_started(self, worker: int, now: float) -> None:
        """Seed the liveness clock when the engine spawns/hears a worker."""
        self.last_heartbeat[worker] = now

    def heartbeat(self, worker: int, epoch: int, now: float) -> bool:
        """Record a worker heartbeat; stale-epoch beats are ignored."""
        if epoch != self.epochs[worker] or not self.alive[worker]:
            return False
        self.last_heartbeat[worker] = now
        self._heartbeats.inc()
        return True

    def check_health(self, now: float) -> List[int]:
        """Workers whose heartbeats have gone silent past the timeout.

        The caller decides the response (normally
        :meth:`crash_worker` + respawn + :meth:`restart_worker`).
        """
        dead = []
        for worker in range(self.workers):
            beat = self.last_heartbeat[worker]
            if (
                self.alive[worker]
                and beat is not None
                and now - beat > self.heartbeat_timeout_s
            ):
                dead.append(worker)
        return dead

    def crash_worker(self, worker: int,
                     now: float) -> Optional[Assignment]:
        """Declare a worker dead: bump its epoch, park its batch.

        The epoch bump is what invalidates any completion the dead
        incarnation still manages to deliver.  The in-flight batch (if
        any) takes the fault-domain path: queries with retries left
        **park** behind the policy's deterministic backoff; queries
        that exhausted ``max_retries`` enter **quarantine** — bisected
        into cohorts that re-execute independently until the poison
        query is isolated in the dead-letter queue.  Hedged batches
        survive a single crash by promoting the other replica.  The
        worker stays out of placement until :meth:`restart_worker`, and
        the (model, worker) breaker records the failure.

        Returns the interrupted assignment when its queries left the
        worker (parked/quarantined), or None when the batch survives on
        a hedge replica or the worker was idle.
        """
        self.epochs[worker] += 1
        self.alive[worker] = False
        self.shipped[worker] = set()
        assignment = self._running.pop(worker, None)
        self._crashes.inc()
        self._record("crash", worker, self.epochs[worker], round(now, 9))
        if assignment is None:
            return None
        trip = self.breaker.record_failure(
            (assignment.queue, worker), now
        )
        if trip is not None:
            self._breaker_trips.inc()
            self._record("breaker", assignment.queue, worker, trip,
                         round(now, 9))
        flight = self._flights.get(assignment.batch_id)
        if flight is not None and flight.hedge_worker is not None:
            if worker == flight.hedge_worker:
                # The hedge replica died; the primary runs on.
                self._record("hedge_drop", assignment.batch_id, worker,
                             round(now, 9))
            else:
                # The primary died; the replica is the sole executor.
                assignment.worker = flight.hedge_worker
                self._record("hedge_promote", assignment.batch_id,
                             worker, flight.hedge_worker, round(now, 9))
            flight.hedge_worker = None
            flight.started = now  # re-arm the hedge window
            return None
        self._flights.pop(assignment.batch_id, None)
        if assignment.span is not None:
            self.tracer.end(assignment.span, now, outcome="crash")
        self._handle_crashed(assignment, now)
        return assignment

    def _handle_crashed(self, assignment: Assignment, now: float) -> None:
        """Decide the fate of every query freed by a worker crash, as runs
        of one (their futures stay RUNNING: a retry is live at its cut)."""
        queue = assignment.queue
        singles = [one for run in assignment.runs() for one in run.singles()]
        origin = self._quarantined.pop(assignment.batch_id, None)
        if origin is not None:
            # A quarantine cohort crashed again: narrow further.
            if len(singles) == 1:
                self._dead_letter(queue, singles[0], origin, now)
            else:
                self._quarantine(queue, singles, origin, now)
            return
        exhausted: List[QueryRun] = []
        for single in singles:
            if single.retries >= self.max_retries:
                exhausted.append(single)
                continue
            single.retries += 1
            self._retries.inc()
            release = now + self.retry_policy.backoff_s(
                single.retries, key=f"{queue}:{single.seq}"
            )
            heapq.heappush(
                self._parked,
                (release, next(self._park_order), single),
            )
            self._parks.inc()
            self._record("park", queue, single.seq, single.retries,
                         round(release, 9), round(now, 9))
        if exhausted:
            self._quarantine(queue, exhausted, assignment.batch_id, now)

    def _quarantine(self, queue: str, singles: List[QueryRun],
                    origin: int, now: float) -> None:
        """Bisect a worker-killing query group into re-execution cohorts.

        A group of one gets a single solo cohort (its last chance); a
        larger group splits in half, so log2(size) crash rounds isolate
        one poison query while every innocent neighbor completes.
        """
        mid = len(singles) // 2
        halves = [h for h in (singles[:mid], singles[mid:]) if h]
        release = now + self.retry_policy.backoff_s(
            1, key=f"bisect:{origin}:{len(singles)}"
        )
        for half in halves:
            for single in half:
                single.retries += 1
                self._retries.inc()
            heapq.heappush(
                self._cohorts,
                (release, next(self._park_order),
                 {"queue": queue, "runs": half, "origin": origin}),
            )
        self._bisections.inc()
        self._record(
            "bisect", origin, queue, len(singles), len(halves[0]),
            len(halves[-1]) if len(halves) > 1 else 0,
            round(release, 9), round(now, 9),
        )

    def _dead_letter(self, queue: str, single: QueryRun,
                     origin: int, now: float) -> None:
        """Terminally isolate one bisection-convicted poison query."""
        attempts = single.retries + 1
        self._dead_letters.inc()
        self.dlq.append(DeadLetter(
            model=queue,
            tenant=single.tenant,
            seq=single.seq,
            origin_batch=origin,
            attempts=attempts,
            reason=(
                f"crashed {attempts} worker(s); isolated by quarantine "
                f"bisection from batch {origin}"
            ),
            time=round(now, 9),
        ))
        self._record("dead_letter", queue, single.tenant, single.seq,
                     origin, round(now, 9))
        # Counted apart from failed; resolved when the engine drains.
        self._dead_lettered.inc()
        self._pending_failures.append((single.futures[0], PoisonQueryError(
            f"query seq={single.seq} (model {queue!r}) crashed "
            f"{attempts} workers and was quarantined to the "
            f"dead-letter queue",
            model=queue, tenant=single.tenant, seq=single.seq,
            attempts=attempts,
        )))

    def record_degrade(self, model: str, from_engine: str,
                       to_engine: str, now: float) -> None:
        """Account a worker-reported engine degradation (auditable).

        The per-model counter rises on every degraded batch (what
        ``repro metrics`` reports); the decision record lands once per
        (model, to_engine) so a long soak's log stays readable.
        """
        self.metrics.counter(
            "cluster_degraded", labels={"model": model}
        ).inc()
        if (model, to_engine) not in self._degraded_seen:
            self._degraded_seen.add((model, to_engine))
            self._record("degrade", model, from_engine, to_engine,
                         round(now, 9))

    def restart_worker(self, worker: int, now: float) -> int:
        """Bring a worker (back) into placement under a fresh epoch.

        Replaces a crashed worker.  The ship ledger is cleared — the new
        incarnation owns nothing until the router ships it — and the new
        epoch is returned for the engine to hand to the spawned process.
        """
        if worker in self.retired:
            raise ValidationError(
                f"cannot restart worker {worker}: it was retired or "
                f"abandoned and its id is never reused"
            )
        if worker in self._running:
            raise ValidationError(
                f"cannot restart worker {worker} with batch "
                f"{self._running[worker].batch_id} in flight; crash it "
                f"first"
            )
        self.epochs[worker] += 1
        self.alive[worker] = True
        self.shipped[worker] = set()
        self.last_heartbeat[worker] = now
        self._restarts.inc()
        self._record("restart", worker, self.epochs[worker],
                     round(now, 9))
        return self.epochs[worker]

    def abandon_worker(self, worker: int, deaths: int,
                       now: float) -> None:
        """Give up on a crashed worker instead of restarting it.

        The engine calls this in place of :meth:`restart_worker` when
        ``deaths`` replacements in a row died at start-up.  The worker
        stays dead (its id is never reused) and the decision is
        recorded.  If it was the last one, the pool is exhausted:
        admission closes and every queued, parked and quarantined
        query fails with :class:`WorkerPoolExhaustedError` — nothing
        is left waiting for a worker that will never come, and
        conservation holds.
        """
        if self.alive[worker] or worker in self.retired:
            raise ValidationError(
                f"cannot abandon worker {worker}: only a crashed worker "
                f"is given up on"
            )
        self.last_heartbeat[worker] = None
        self.retired.add(worker)
        self._placements.clear()
        self._retires.inc()
        self._record("abandon", worker, self.epochs[worker], deaths,
                     round(now, 9))
        if self.live_workers:
            return
        self.close()
        waiting = [single for _, _, single in self._parked]
        for _, _, cohort in self._cohorts:
            waiting.extend(cohort["runs"])
        self._parked.clear()
        self._cohorts.clear()
        for single in waiting:
            self.requeue(single, now)
        self.fail_pending(
            lambda single: WorkerPoolExhaustedError(
                f"query seq={single.seq} (model {single.queue!r}) has no "
                f"worker left to run on: worker {worker}, the last of "
                f"the pool, died at start-up {deaths} times in a row"
            ),
            now,
        )

    # ------------------------------------------------------------------
    # Elastic pool: scale-up / scale-down under controller actuation
    # ------------------------------------------------------------------

    def add_worker(self, now: float) -> int:
        """Grow the pool by one live worker; returns its (fresh) id.

        The id extends the index space (ids are never reused, like
        epochs), starts at epoch 0 with an empty ship ledger, and enters
        placement immediately.  Growing the pool re-shapes every model's
        placement rotation — deterministically, since the rotation is a
        pure function of (model, pool size).
        """
        worker = self.workers
        self.alive.append(True)
        self.epochs.append(0)
        self.last_heartbeat.append(None)
        self.shipped.append(set())
        self._placements.clear()
        self._scale_ups.inc()
        self.metrics.gauge("cluster_workers").set(self.workers)
        self._record("add_worker", worker, round(now, 9))
        return worker

    def retire_worker(self, worker: int, now: float) -> None:
        """Permanently remove an **idle** worker from placement.

        Unlike :meth:`crash_worker` (which expects a restart), a retired
        worker never comes back: its id stays dead and its epoch is
        bumped so any straggling completion from it is dropped as stale.
        Refuses while a batch is in flight (in-flight epoch safety) and
        refuses to retire the last live worker.
        """
        if not self.alive[worker]:
            raise ValidationError(
                f"worker {worker} is not alive; only live idle workers "
                f"can be retired"
            )
        if worker in self._running:
            raise ValidationError(
                f"cannot retire worker {worker} with batch "
                f"{self._running[worker].batch_id} in flight"
            )
        if self.live_workers < 2:
            raise ValidationError(
                "cannot retire the last live worker"
            )
        self.retired.add(worker)
        self._placements.clear()
        self.epochs[worker] += 1
        self.alive[worker] = False
        self.shipped[worker] = set()
        self.last_heartbeat[worker] = None
        self._retires.inc()
        self._record("retire", worker, self.epochs[worker], round(now, 9))

    def retirable_worker(self) -> int:
        """The worker a scale-down retires: the highest-id idle one.

        A deterministic choice that keeps low worker ids (the crc32
        placement anchors) stable.
        """
        idle = self.idle_workers()
        if not idle:
            raise ValidationError("no idle worker to retire")
        return idle[-1]


# ---------------------------------------------------------------------------
# The facade over worker processes
# ---------------------------------------------------------------------------

# Down here because the facade opens a RouterCore: service.py imports
# this module when a service is constructed, not when it is loaded.
from repro.serve.service import CopseService  # noqa: E402


class ClusterService(CopseService):
    """:class:`CopseService` over a pool of ``workers`` processes.

    Same facade, same router, same pump; only the
    :class:`~repro.serve.transport.Transport` differs, so what this
    constructor adds is what only a process pool has: the liveness
    horizon, the crash policy (``max_retries`` backoff-parked retries,
    then quarantine; ``retry_policy`` / ``breaker`` / ``dlq_limit``) and
    ``worker_entry``, the worker target tests swap for a chaos shim.
    """

    def __init__(
        self,
        workers: int = 2,
        engine: str = "tape",
        backend: Optional[str] = None,
        default_deadline_ms: Optional[float] = None,
        max_queue: Optional[int] = None,
        verify_oracle: bool = True,
        tracer=None,
        clock: Optional[Clock] = None,
        max_retries: int = 1,
        heartbeat_interval_s: float = 5.0,
        heartbeat_timeout_s: float = DEFAULT_HEARTBEAT_TIMEOUT_S,
        retry_policy: Optional[RetryPolicy] = None,
        breaker: Optional[CircuitBreaker] = None,
        dlq_limit: int = 64,
        worker_entry=None,
    ):
        clock = clock if clock is not None else RealClock()
        self._open(
            ProcessTransport(
                verify_oracle, clock, heartbeat_interval_s, worker_entry
            ),
            workers,
            engine=engine,
            backend=backend,
            clock=clock,
            default_deadline_ms=default_deadline_ms,
            max_queue=max_queue,
            verify_oracle=verify_oracle,
            tracer=tracer,
            max_retries=max_retries,
            heartbeat_timeout_s=heartbeat_timeout_s,
            retry_policy=retry_policy,
            breaker=breaker,
            dlq_limit=dlq_limit,
        )
        self._start_pump()
