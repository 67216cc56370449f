"""Multi-process serve cluster: a placing/verifying router over workers.

The threaded :class:`~repro.serve.service.CopseService` keeps every
batch evaluation inside one GIL-bound process.  This module shards the
same scheduler over a pool of **worker processes** in the PR 4 style —
one pure decision core, thin engines:

* :class:`RouterCore` — the pure front end.  It wraps the existing
  :class:`~repro.serve.scheduler.SchedulerCore` (bounded queues,
  fair-share batch cutting, requeue at the original seq) and adds the
  cluster concerns: deterministic model->worker **placement** (each
  model prefers a stable rotation of the pool), **ship-once** tracking
  (a worker receives a model's
  :class:`~repro.serve.transport.ShippedModel` envelope exactly once
  per (worker, epoch), keyed by the compiled model's fingerprint),
  **worker epochs** (a crash bumps the epoch; completions that echo a
  stale epoch are dropped), **heartbeat liveness**, and **draining
  restarts** for redeploys.  Every method takes an explicit ``now`` and
  every choice lands in an ordered decision record — the determinism
  witness.  :class:`~repro.serve.loadgen.SimRunner` drives this core
  from a discrete-event loop under a virtual clock.
* :class:`ClusterService` — the thin real engine: actual
  ``multiprocessing`` (spawn) workers behind pipes, a receiver thread
  that completes batches, detects dead pipes, respawns crashed workers
  under a new epoch, and re-dispatches.  Queries submitted to a
  1-worker and an N-worker cluster decrypt to identical bits — the
  workers are pure functions of (shipped model, features).

The fault-domain layer (:mod:`repro.serve.faults`) rides on the same
decision core: crashed batches park behind a **deterministic backoff**
instead of requeueing immediately, a batch that keeps killing workers is
**bisected** until the poison query is isolated in a bounded
**dead-letter queue**, per ``(model, worker)`` **circuit breakers**
steer placement away from failing pairs, and (when enabled) a batch in
flight past ``k x`` its cost estimate is **hedged** onto a second worker
— first valid completion wins, the loser is discarded by the existing
epoch/busy staleness check.

Decision records are ``(kind, ...)`` tuples ordered by emission:
``("ship", worker, epoch, model, t)``,
``("assign", batch_id, queue, worker, epoch, size, first_seq, t)``,
``("crash", worker, new_epoch, t)``, ``("restart", worker, epoch, t)``,
``("drain", worker, t)``, ``("redeploy", model, fingerprint, t)``,
``("stale", batch_id, worker, epoch, t)``, plus the fault-domain kinds:
``("park", queue, seq, attempt, release_t, t)``,
``("bisect", origin_batch, queue, size, left, right, release_t, t)``,
``("dead_letter", queue, tenant, seq, origin_batch, t)``,
``("breaker", model, worker, state, t)``,
``("hedge", batch_id, primary, worker, epoch, t)``,
``("hedge_win", batch_id, winner, t)``,
``("hedge_promote", batch_id, dead, survivor, t)``,
``("hedge_drop", batch_id, dead, t)`` and
``("degrade", model, from_engine, to_engine, t)``.
"""

from __future__ import annotations

import heapq
import itertools
import threading
import zlib
from concurrent.futures import Future
from concurrent.futures import wait as wait_futures
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.errors import (
    PoisonQueryError,
    RejectedQuery,
    ServeError,
    ValidationError,
    WorkerPoolExhaustedError,
)
from repro.serve.faults import (
    CircuitBreaker,
    DeadLetter,
    DeadLetterQueue,
    RetryPolicy,
)
from repro.serve.packing import validate_queries
from repro.serve.scheduler import (
    OUTCOME_ERROR,
    OUTCOME_OK,
    Assignment,
    QueryTicket,
    SchedulerCore,
    SchedulerStats,
    deliver_failures,
)
from repro.serve.simclock import MS, RealClock
from repro.serve.transport import (
    MSG_EVAL,
    MSG_LOAD,
    MSG_PING,
    MSG_PONG,
    MSG_READY,
    MSG_RESULT,
    MSG_STOP,
    BatchRequest,
    ShippedModel,
)

__all__ = [
    "ShipAction",
    "AssignAction",
    "HedgeAction",
    "RouterCore",
    "ClusterService",
]

#: Default liveness horizon: a worker silent for this long is declared
#: dead by :meth:`RouterCore.check_health`.  Generous, because a worker
#: evaluating a batch cannot answer pings until it finishes — pipe EOF,
#: not the heartbeat, is the fast path for real process death.
DEFAULT_HEARTBEAT_TIMEOUT_S = 60.0

#: Respawn budget: :class:`ClusterService` gives up on a worker slot
#: once this many incarnations in a row died before their first
#: ``MSG_READY`` (a broken environment, an unimportable ``__main__``
#: under spawn) — respawning such a worker again would crash-loop.
MAX_STARTUP_DEATHS = 3


@dataclass(frozen=True)
class ShipAction:
    """Engine instruction: send ``model``'s envelope to ``worker``."""

    worker: int
    epoch: int
    model: str


@dataclass
class AssignAction:
    """Engine instruction: evaluate ``assignment`` on its bound worker."""

    assignment: Assignment
    epoch: int
    #: True when a ShipAction for the same worker precedes this batch —
    #: the simulator charges the ship latency to this batch.
    newly_shipped: bool = False


@dataclass
class HedgeAction:
    """Engine instruction: *also* evaluate ``assignment`` on ``worker``.

    Emitted when a batch has been in flight past its hedge threshold:
    the engine sends the same batch to a second worker and lets the
    first valid completion win (the loser is dropped by the epoch/busy
    staleness check).  ``assignment.worker`` still names the primary.
    """

    assignment: Assignment
    worker: int
    epoch: int
    newly_shipped: bool = False


class _Flight:
    """Hedge bookkeeping for one in-flight batch (hedging enabled only)."""

    __slots__ = ("assignment", "started", "estimate_s", "hedge_worker",
                 "hedge_epoch")

    def __init__(self, assignment: Assignment, started: float,
                 estimate_s: float):
        self.assignment = assignment
        self.started = started
        self.estimate_s = estimate_s
        self.hedge_worker: Optional[int] = None
        self.hedge_epoch: Optional[int] = None


class RouterCore:
    """Pure cluster placement/failover over a :class:`SchedulerCore`.

    Thread-unsafe by design, like the scheduler core it wraps: engines
    serialize access and pass ``now`` explicitly, so simulated and real
    clusters make identical routing decisions from identical inputs.
    """

    def __init__(
        self,
        workers: int,
        max_retries: int = 1,
        record_decisions: bool = True,
        tracer=None,
        metrics=None,
        heartbeat_timeout_s: float = DEFAULT_HEARTBEAT_TIMEOUT_S,
        retry_policy: Optional[RetryPolicy] = None,
        breaker: Optional[CircuitBreaker] = None,
        dlq_limit: int = 64,
    ):
        if workers < 1:
            raise ValidationError(
                f"cluster workers must be >= 1, got {workers}"
            )
        if max_retries < 0:
            raise ValidationError(
                f"max_retries must be >= 0, got {max_retries}"
            )
        if heartbeat_timeout_s <= 0:
            raise ValidationError(
                f"heartbeat_timeout_s must be > 0, got "
                f"{heartbeat_timeout_s}"
            )
        self.core = SchedulerCore(
            workers=workers, tracer=tracer, metrics=metrics,
        )
        self.workers = workers
        #: Backoff-parked retries a ticket gets before its next crash
        #: sends it to quarantine.
        self.max_retries = max_retries
        self.tracer = tracer
        self.heartbeat_timeout_s = heartbeat_timeout_s
        self.epochs: List[int] = [0] * workers
        self.alive: List[bool] = [True] * workers
        self.draining: List[bool] = [False] * workers
        #: Ids retired or abandoned for good: the scheduler core has
        #: forgotten them, so they never restart.
        self.retired: set = set()
        #: Last heartbeat per worker (None until the engine reports one).
        self.last_heartbeat: List[Optional[float]] = [None] * workers
        #: Per-worker map of model name -> shipped fingerprint, reset on
        #: every epoch change: the ship-exactly-once ledger.
        self.shipped: List[Dict[str, str]] = [{} for _ in range(workers)]
        self._busy: Dict[int, Assignment] = {}
        #: model name -> current fingerprint (the placement/ship key).
        self._models: Dict[str, str] = {}
        self.decisions: Optional[List[Tuple]] = (
            [] if record_decisions else None
        )
        # -- fault-domain state (see repro.serve.faults) --------------
        self.retry_policy = (
            retry_policy if retry_policy is not None else RetryPolicy()
        )
        self.breaker = breaker if breaker is not None else CircuitBreaker()
        self.dlq = DeadLetterQueue(limit=dlq_limit)
        #: Tickets waiting out a crash backoff: (release_t, order, ticket).
        self._parked: List[Tuple[float, int, QueryTicket]] = []
        #: Quarantine cohorts awaiting solo re-execution:
        #: (release_t, order, {"queue", "tickets", "origin"}).
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
        self._drains = m.counter("cluster_drains")
        self._heartbeats = m.counter("cluster_heartbeats")
        self._stale = m.counter("cluster_epoch_invalidated")
        self._redeploys = m.counter("cluster_redeploys")
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
    # Shared surface (delegated to the scheduler core)
    # ------------------------------------------------------------------

    @property
    def metrics(self):
        return self.core.metrics

    def add_model(
        self,
        name: str,
        capacity: int,
        weight: float = 1.0,
        max_pending: Optional[int] = None,
        service_ms: Optional[float] = None,
        fingerprint: Optional[str] = None,
    ) -> None:
        """Register one served model (queue + placement identity).

        ``fingerprint`` keys the ship-once ledger; profile-only callers
        (the simulator) may omit it and get a synthetic stand-in.
        """
        self.core.add_queue(
            name,
            capacity=capacity,
            weight=weight,
            max_pending=max_pending,
            service_ms=service_ms,
        )
        self._models[name] = (
            fingerprint if fingerprint is not None else f"profile:{name}"
        )

    def remove_model(self, name: str,
                     now: Optional[float] = None) -> int:
        self._models.pop(name, None)
        for ledger in self.shipped:
            ledger.pop(name, None)
        return self.core.remove_queue(name, now=now)

    def submit(self, name: str, payload, now: float, tenant="default",
               deadline=None, priority: int = 0):
        return self.submit_many(
            name, (payload,), now, tenant=tenant, deadline=deadline,
            priority=priority,
        )[0]

    def submit_many(self, name: str, payloads, now: float,
                    tenant="default", deadline=None, priority: int = 0):
        return self.core.submit_many(
            name, payloads, now, tenant=tenant, deadline=deadline,
            priority=priority,
        )

    def flush(self, name: Optional[str] = None) -> None:
        self.core.flush(name)

    def drain_failures(self):
        return self.core.drain_failures()

    def stats(self) -> SchedulerStats:
        stats = self.core.stats()
        self.metrics.gauge("cluster_workers_alive").set(
            sum(1 for a in self.alive if a)
        )
        self.metrics.gauge("cluster_dlq_depth").set(len(self.dlq))
        self.metrics.gauge("cluster_parked").set(
            len(self._parked)
            + sum(len(c["tickets"]) for _, _, c in self._cohorts)
        )
        return stats

    @property
    def outstanding(self) -> int:
        # Parked tickets and quarantine cohorts left the scheduler's
        # queues but still owe their callers a resolution.
        return (
            self.core.outstanding
            + len(self._parked)
            + sum(len(c["tickets"]) for _, _, c in self._cohorts)
        )

    def set_weight(self, name: str, weight: float, now: float) -> float:
        """Retune a model's fair-share weight; returns the old one."""
        old = self.core.set_weight(name, weight)
        self._record("set_weight", name, round(weight, 9), round(now, 9))
        return old

    def set_admission_limit(self, name: str, limit: Optional[int],
                            now: float) -> Optional[int]:
        """Rebound a model's admission limit; returns the old one."""
        old = self.core.set_max_pending(name, limit)
        self._record(
            "set_admission_limit", name,
            -1 if limit is None else limit, round(now, 9),
        )
        return old

    def next_cut_time(self) -> Optional[float]:
        return self.core.next_cut_time()

    def close(self) -> None:
        self.core.close()

    # ------------------------------------------------------------------
    # Decision recording
    # ------------------------------------------------------------------

    def _record(self, *fields) -> None:
        if self.decisions is not None:
            self.decisions.append(fields)

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
        must replay across processes and runs.
        """
        start = zlib.crc32(model.encode()) % self.workers
        return [(start + k) % self.workers for k in range(self.workers)]

    def _place(self, model: str, now: float,
               exclude: Tuple[int, ...] = ()) -> Optional[int]:
        for worker in self.placement_order(model):
            if worker in exclude:
                continue
            if (
                self.alive[worker]
                and not self.draining[worker]
                and worker not in self._busy
            ):
                allowed, transition = self.breaker.allow(
                    (model, worker), now
                )
                if transition is not None:
                    self._record("breaker", model, worker, transition,
                                 round(now, 9))
                if allowed:
                    return worker
        return None

    def _ship_if_needed(self, name: str, worker: int, epoch: int,
                        now: float,
                        actions: List[object]) -> bool:
        """Update the ship-once ledger; returns True on a fresh ship."""
        fingerprint = self._models[name]
        if self.shipped[worker].get(name) == fingerprint:
            return False
        self.shipped[worker][name] = fingerprint
        self._ships.inc()
        self._record("ship", worker, epoch, name, round(now, 9))
        if self.tracer is not None:
            self.tracer.event(
                "ship", now, track=f"worker:{worker}",
                model=name, epoch=epoch,
            )
        actions.append(ShipAction(worker=worker, epoch=epoch, model=name))
        return True

    def _track_flight(self, assignment: Assignment, now: float) -> None:
        if not self.retry_policy.hedging_enabled:
            return
        self._flights[assignment.batch_id] = _Flight(
            assignment, started=now,
            estimate_s=self.core.service_estimate_s(assignment.queue),
        )

    def dispatch(self, now: float) -> List[object]:
        """Cut and place every batch that can run right now.

        First releases due backoff parks and quarantine cohorts, then
        walks the scheduler's ready queues in fair-share order, pins
        each cut to the first eligible worker of the model's placement
        rotation (circuit breakers veto failing (model, worker) pairs),
        and emits the engine's work list: a :class:`ShipAction` the
        first time a (worker, epoch) sees a model (or a redeployed
        fingerprint), then the :class:`AssignAction` for the batch
        itself.  A queue no eligible worker can take is skipped without
        starving the others.  Finally, batches in flight past their
        hedge threshold get a :class:`HedgeAction` (when hedging is on).
        """
        actions: List[object] = []
        self._release_parked(now)
        self._dispatch_cohorts(now, actions)
        while True:
            progressed = False
            for name in self.core.ready_queues(now):
                worker = self._place(name, now)
                if worker is None:
                    continue
                assignment = self.core.assign(now, worker=worker,
                                              queue=name)
                if assignment is None:
                    self.breaker.release_probe((name, worker))
                    continue  # the whole cut was cancelled
                epoch = self.epochs[worker]
                newly = self._ship_if_needed(name, worker, epoch, now,
                                             actions)
                self._busy[worker] = assignment
                self._track_flight(assignment, now)
                self._record(
                    "assign", assignment.batch_id, name, worker, epoch,
                    assignment.size, assignment.tickets[0].seq,
                    round(now, 9),
                )
                actions.append(AssignAction(
                    assignment=assignment, epoch=epoch,
                    newly_shipped=newly,
                ))
                progressed = True
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
        """Requeue parked tickets whose backoff has elapsed."""
        released: List[str] = []
        while self._parked and self._parked[0][0] <= now:
            _, _, ticket = heapq.heappop(self._parked)
            if self.core.requeue(ticket):
                released.append(ticket.queue)
        for name in dict.fromkeys(released):
            # The crashed tickets were already cut once; re-flush so a
            # requeued partial batch re-cuts now instead of waiting for
            # a flush nobody will send again.
            self.core.flush(name)

    def _dispatch_cohorts(self, now: float,
                          actions: List[object]) -> None:
        """Re-execute due quarantine cohorts on breaker-cleared workers."""
        deferred: List[Tuple[float, int, dict]] = []
        while self._cohorts and self._cohorts[0][0] <= now:
            release_t, order, cohort = heapq.heappop(self._cohorts)
            name = cohort["queue"]
            worker = self._place(name, now)
            if worker is None:
                deferred.append((release_t, order, cohort))
                continue
            assignment = self.core.assign_direct(
                name, cohort["tickets"], worker, now
            )
            if assignment is None:
                self.breaker.release_probe((name, worker))
                continue  # every cohort ticket was cancelled meanwhile
            epoch = self.epochs[worker]
            newly = self._ship_if_needed(name, worker, epoch, now,
                                         actions)
            self._busy[worker] = assignment
            self._quarantined[assignment.batch_id] = cohort["origin"]
            self._track_flight(assignment, now)
            self._record(
                "assign", assignment.batch_id, name, worker, epoch,
                assignment.size, assignment.tickets[0].seq,
                round(now, 9),
            )
            actions.append(AssignAction(
                assignment=assignment, epoch=epoch, newly_shipped=newly,
            ))
        for entry in deferred:
            heapq.heappush(self._cohorts, entry)

    def _check_hedges(self, now: float, actions: List[object]) -> None:
        """Speculatively re-place batches stuck past the hedge threshold."""
        for batch_id in sorted(self._flights):
            flight = self._flights[batch_id]
            if flight.hedge_worker is not None:
                continue
            threshold = self.retry_policy.hedge_after_s(flight.estimate_s)
            if now - flight.started < threshold:
                continue
            assignment = flight.assignment
            name = assignment.queue
            worker = self._place(name, now,
                                 exclude=(assignment.worker,))
            if worker is None:
                continue
            self.core.reserve_worker(worker)
            epoch = self.epochs[worker]
            newly = self._ship_if_needed(name, worker, epoch, now,
                                         actions)
            self._busy[worker] = assignment
            flight.hedge_worker = worker
            flight.hedge_epoch = epoch
            self._hedges.inc()
            self._record("hedge", batch_id, assignment.worker, worker,
                         epoch, round(now, 9))
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
        cut = self.core.next_cut_time()
        if cut is not None:
            times.append(cut)
        if self._parked:
            times.append(self._parked[0][0])
        if self._cohorts:
            times.append(self._cohorts[0][0])
        if self.retry_policy.hedging_enabled:
            for flight in self._flights.values():
                if flight.hedge_worker is None:
                    times.append(
                        flight.started
                        + self.retry_policy.hedge_after_s(
                            flight.estimate_s
                        )
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
                 worker: Optional[int] = None) -> bool:
        """Account one finished batch — unless its worker epoch is stale.

        A completion echoing an epoch the router has since bumped comes
        from a superseded worker incarnation: its tickets were already
        requeued (crash) or belong to a drained-and-restarted worker.
        Counting it would double-complete queries, so it is dropped and
        recorded.  ``worker`` identifies the delivering worker when it
        may differ from the binding (hedged batches); it defaults to
        ``assignment.worker``.  Returns True when accepted.
        """
        if worker is None:
            worker = assignment.worker
        if (
            epoch != self.epochs[worker]
            or self._busy.get(worker) is not assignment
        ):
            self._stale.inc()
            self._record("stale", assignment.batch_id, worker, epoch,
                         round(now, 9))
            return False
        flight = self._flights.pop(assignment.batch_id, None)
        if flight is not None and flight.hedge_worker is not None:
            # Two executors raced; settle the loser before accounting.
            if worker == flight.hedge_worker:
                self._busy.pop(assignment.worker, None)
                self.core.rebind(assignment, worker)
                self._hedge_wins.inc()
            else:
                self._busy.pop(flight.hedge_worker, None)
                self.core.release_worker(flight.hedge_worker)
            self._record("hedge_win", assignment.batch_id, worker,
                         round(now, 9))
        del self._busy[worker]
        self._quarantined.pop(assignment.batch_id, None)
        if outcome == OUTCOME_OK:
            healed = self.breaker.record_success(
                (assignment.queue, worker), now
            )
            if healed is not None:
                self._record("breaker", assignment.queue, worker,
                             healed, round(now, 9))
        self.core.complete(assignment, now, outcome)
        return True

    # ------------------------------------------------------------------
    # Liveness: heartbeats, crashes, restarts, draining
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
        any) takes the fault-domain path: tickets with retries left
        **park** behind the policy's deterministic backoff; tickets
        that exhausted ``max_retries`` enter **quarantine** — bisected
        into cohorts that re-execute independently until the poison
        query is isolated in the dead-letter queue.  Hedged batches
        survive a single crash by promoting the other replica.  The
        worker stays out of placement until :meth:`restart_worker`, and
        the (model, worker) breaker records the failure.

        Returns the interrupted assignment when its tickets left the
        worker (parked/quarantined), or None when the batch survives on
        a hedge replica or the worker was idle.
        """
        self.epochs[worker] += 1
        self.alive[worker] = False
        self.draining[worker] = False
        self.shipped[worker] = {}
        assignment = self._busy.pop(worker, None)
        self._crashes.inc()
        self._record("crash", worker, self.epochs[worker], round(now, 9))
        if self.tracer is not None:
            self.tracer.event(
                "crash", now, track=f"worker:{worker}",
                epoch=self.epochs[worker],
            )
        if assignment is None:
            self.core.count_crash()
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
            self.core.count_crash()
            if worker == flight.hedge_worker:
                # The hedge replica died; the primary runs on.
                self.core.release_worker(worker)
                self._record("hedge_drop", assignment.batch_id, worker,
                             round(now, 9))
            else:
                # The primary died; promote the hedge to sole executor.
                survivor = flight.hedge_worker
                self.core.rebind(assignment, survivor)
                self._record("hedge_promote", assignment.batch_id,
                             worker, survivor, round(now, 9))
            flight.hedge_worker = None
            flight.hedge_epoch = None
            flight.started = now  # re-arm the hedge window
            return None
        self._flights.pop(assignment.batch_id, None)
        tickets = self.core.release_crashed(assignment, now)
        self._handle_crashed_tickets(assignment, tickets, now)
        return assignment

    def _handle_crashed_tickets(self, assignment: Assignment,
                                tickets: List[QueryTicket],
                                now: float) -> None:
        """Decide the fate of every ticket freed by a worker crash."""
        queue = assignment.queue
        origin = self._quarantined.pop(assignment.batch_id, None)
        if origin is not None:
            # A quarantine cohort crashed again: narrow further.
            if len(tickets) == 1:
                self._dead_letter(queue, tickets[0], origin, now)
            else:
                self._quarantine(queue, tickets, origin, now)
            return
        exhausted: List[QueryTicket] = []
        for ticket in tickets:
            if ticket.retries >= self.max_retries:
                exhausted.append(ticket)
                continue
            self.core.prepare_retry(ticket, now)
            release = now + self.retry_policy.backoff_s(
                ticket.retries, key=f"{queue}:{ticket.seq}"
            )
            heapq.heappush(
                self._parked,
                (release, next(self._park_order), ticket),
            )
            self._parks.inc()
            self._record("park", queue, ticket.seq, ticket.retries,
                         round(release, 9), round(now, 9))
        if exhausted:
            self._quarantine(queue, exhausted, assignment.batch_id, now)

    def _quarantine(self, queue: str, tickets: List[QueryTicket],
                    origin: int, now: float) -> None:
        """Bisect a worker-killing ticket group into re-execution cohorts.

        A group of one gets a single solo cohort (its last chance); a
        larger group splits in half, so log2(size) crash rounds isolate
        one poison query while every innocent neighbor completes.
        """
        mid = len(tickets) // 2
        halves = [h for h in (tickets[:mid], tickets[mid:]) if h]
        release = now + self.retry_policy.backoff_s(
            1, key=f"bisect:{origin}:{len(tickets)}"
        )
        for half in halves:
            for ticket in half:
                self.core.prepare_retry(ticket, now)
            heapq.heappush(
                self._cohorts,
                (release, next(self._park_order),
                 {"queue": queue, "tickets": half, "origin": origin}),
            )
        self._bisections.inc()
        self._record(
            "bisect", origin, queue, len(tickets), len(halves[0]),
            len(halves[-1]) if len(halves) > 1 else 0,
            round(release, 9), round(now, 9),
        )

    def _dead_letter(self, queue: str, ticket: QueryTicket,
                     origin: int, now: float) -> None:
        """Terminally isolate one bisection-convicted poison query."""
        attempts = ticket.retries + 1
        self._dead_letters.inc()
        self.dlq.append(DeadLetter(
            model=queue,
            tenant=ticket.tenant,
            seq=ticket.seq,
            origin_batch=origin,
            attempts=attempts,
            reason=(
                f"crashed {attempts} worker(s); isolated by quarantine "
                f"bisection from batch {origin}"
            ),
            time=round(now, 9),
        ))
        self._record("dead_letter", queue, ticket.tenant, ticket.seq,
                     origin, round(now, 9))
        if self.tracer is not None:
            self.tracer.event(
                "dead_letter", now, track=f"tenant:{ticket.tenant}",
                model=queue, seq=ticket.seq,
            )
        self.core.dead_letter_ticket(ticket, PoisonQueryError(
            f"query seq={ticket.seq} (model {queue!r}) crashed "
            f"{attempts} workers and was quarantined to the "
            f"dead-letter queue",
            model=queue, tenant=ticket.tenant, seq=ticket.seq,
            attempts=attempts,
        ), now)

    def record_degrade(self, model: str, from_engine: str,
                       to_engine: str, now: float) -> None:
        """Account a worker-reported engine degradation (auditable).

        The per-model counter rises on every degraded batch (the
        control plane's signal); the decision record lands once per
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

        Used both to replace a crashed worker and to finish a draining
        redeploy.  The ship ledger is cleared — the new incarnation owns
        nothing until the router ships it — and the new epoch is
        returned for the engine to hand to the spawned process.
        """
        if worker in self.retired:
            raise ValidationError(
                f"cannot restart worker {worker}: it was retired or "
                f"abandoned and its id is never reused"
            )
        if worker in self._busy:
            raise ValidationError(
                f"cannot restart worker {worker} with batch "
                f"{self._busy[worker].batch_id} in flight; drain first"
            )
        self.epochs[worker] += 1
        self.alive[worker] = True
        self.draining[worker] = False
        self.shipped[worker] = {}
        self.last_heartbeat[worker] = now
        self._restarts.inc()
        self._record("restart", worker, self.epochs[worker],
                     round(now, 9))
        if self.tracer is not None:
            self.tracer.event(
                "restart", now, track=f"worker:{worker}",
                epoch=self.epochs[worker],
            )
        return self.epochs[worker]

    def abandon_worker(self, worker: int, deaths: int,
                       now: float) -> None:
        """Give up on a crashed worker instead of restarting it.

        The engine calls this in place of :meth:`restart_worker` when
        ``deaths`` replacements in a row died at start-up.  The worker
        stays dead (its id is never reused) and the decision is
        recorded.  If it was the last one, the pool is exhausted:
        admission closes and every queued, parked and quarantined
        ticket fails with :class:`WorkerPoolExhaustedError` — nothing
        is left waiting for a worker that will never come, and
        conservation holds.
        """
        self.last_heartbeat[worker] = None
        self.retired.add(worker)
        self._retires.inc()
        self._record("abandon", worker, self.epochs[worker], deaths,
                     round(now, 9))
        if self.tracer is not None:
            self.tracer.event(
                "abandon", now, track=f"worker:{worker}", deaths=deaths,
            )
        if self.live_workers:
            self.core.remove_worker(worker)
            return
        self.core.close()
        waiting = [ticket for _, _, ticket in self._parked]
        for _, _, cohort in self._cohorts:
            waiting.extend(cohort["tickets"])
        self._parked.clear()
        self._cohorts.clear()
        for ticket in waiting:
            self.core.requeue(ticket)
        self.core.fail_pending(
            lambda ticket: WorkerPoolExhaustedError(
                f"query seq={ticket.seq} (model {ticket.queue!r}) has no "
                f"worker left to run on: worker {worker}, the last of "
                f"the pool, died at start-up {deaths} times in a row"
            ),
            now,
        )

    def drain(self, worker: int, now: float) -> None:
        """Stop placing new batches on a worker (in-flight work finishes)."""
        if not self.draining[worker]:
            self.draining[worker] = True
            self._drains.inc()
            self._record("drain", worker, round(now, 9))

    def drained(self, worker: int) -> bool:
        return worker not in self._busy

    def redeploy_model(self, name: str, fingerprint: str,
                       now: float) -> None:
        """Publish a new fingerprint for ``name``.

        Every worker's ledger entry is now stale, so the next batch
        placed on each worker re-ships the new envelope first — a
        rolling redeploy with no restart needed.  (Engines that must
        also replace worker *code* drain + restart each worker instead.)
        """
        if name not in self._models:
            raise ValidationError(f"no cluster model named {name!r}")
        self._models[name] = fingerprint
        self._redeploys.inc()
        self._record("redeploy", name, fingerprint, round(now, 9))

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
        worker = self.core.add_worker()
        # Core ids and router index space only ever grow together, so
        # the fresh id always lands exactly one past the current lists.
        while len(self.epochs) <= worker:
            self.epochs.append(0)
            self.alive.append(True)
            self.draining.append(False)
            self.last_heartbeat.append(None)
            self.shipped.append({})
        self.workers = len(self.epochs)
        self._scale_ups.inc()
        self.metrics.gauge("cluster_workers").set(self.workers)
        self._record("add_worker", worker, round(now, 9))
        if self.tracer is not None:
            self.tracer.event(
                "add_worker", now, track=f"worker:{worker}",
            )
        return worker

    def retire_worker(self, worker: int, now: float) -> None:
        """Permanently remove an **idle** worker from placement.

        Unlike :meth:`crash_worker` (which expects a restart), a retired
        worker never comes back: its id stays dead, its epoch is bumped
        so any straggling completion from it is dropped as stale, and
        the scheduler core forgets it.  Refuses while a batch is in
        flight (drain first — in-flight epoch safety) and refuses to
        retire the last live worker.
        """
        if not self.alive[worker]:
            raise ValidationError(
                f"worker {worker} is not alive; only live idle workers "
                f"can be retired"
            )
        if worker in self._busy:
            raise ValidationError(
                f"cannot retire worker {worker} with batch "
                f"{self._busy[worker].batch_id} in flight; drain first"
            )
        live = sum(
            1 for w in range(self.workers)
            if self.alive[w] and w != worker
        )
        if live < 1:
            raise ValidationError(
                "cannot retire the last live worker"
            )
        self.core.remove_worker(worker)
        self.retired.add(worker)
        self.epochs[worker] += 1
        self.alive[worker] = False
        self.draining[worker] = False
        self.shipped[worker] = {}
        self.last_heartbeat[worker] = None
        self._retires.inc()
        self._record("retire", worker, self.epochs[worker], round(now, 9))
        if self.tracer is not None:
            self.tracer.event(
                "retire", now, track=f"worker:{worker}",
                epoch=self.epochs[worker],
            )

    def idle_live_workers(self) -> List[int]:
        """Live, non-draining workers with no batch in flight."""
        return [
            w for w in range(self.workers)
            if self.alive[w] and not self.draining[w]
            and w not in self._busy
        ]

    def retirable_worker(self) -> int:
        """The worker a scale-down retires: the highest-id idle one.

        A deterministic choice that keeps low worker ids (the crc32
        placement anchors) stable.
        """
        idle = self.idle_live_workers()
        if not idle:
            raise ValidationError("no idle worker to retire")
        return idle[-1]

    @property
    def live_workers(self) -> int:
        return sum(1 for a in self.alive if a)


# ---------------------------------------------------------------------------
# Real engine: multiprocessing workers behind pipes
# ---------------------------------------------------------------------------


class _ClusterQuery:
    """Router payload for one real query: features plus its future."""

    __slots__ = ("features", "future")

    def __init__(self, features):
        self.features = features
        self.future: "Future" = Future()


class ClusterService:
    """The ``register / submit / flush / stats`` facade over real workers.

    A thin engine in the PR 4 sense: all placement/failover logic lives
    in the :class:`RouterCore`; this class only moves bytes — spawning
    ``workers`` processes (``multiprocessing`` *spawn* context, so every
    shipped object must pickle), sending ship/eval messages from
    :meth:`RouterCore.dispatch`, and running one receiver thread that
    completes batches, answers the router's cut timers, pings for
    heartbeats, and replaces crashed workers under a fresh epoch.

    The registry, session keys, and every query future stay router-side;
    workers see raw integer features and return plain numbers.
    """

    #: Receiver wake-up granularity: the loop re-checks cut timers and
    #: liveness at least this often (slack cuts in real mode are
    #: best-effort at this resolution).
    POLL_INTERVAL_S = 0.05

    def __init__(
        self,
        workers: int = 2,
        engine: str = "tape",
        backend: Optional[str] = None,
        max_retries: int = 1,
        default_deadline_ms: Optional[float] = None,
        max_queue: Optional[int] = None,
        verify_oracle: bool = True,
        tracer=None,
        metrics=None,
        clock=None,
        heartbeat_interval_s: float = 5.0,
        heartbeat_timeout_s: float = DEFAULT_HEARTBEAT_TIMEOUT_S,
        retry_policy: Optional[RetryPolicy] = None,
        breaker: Optional[CircuitBreaker] = None,
        dlq_limit: int = 64,
        worker_entry=None,
    ):
        from multiprocessing import get_context

        from repro.serve.registry import ModelRegistry

        if heartbeat_interval_s <= 0:
            raise ValidationError(
                f"heartbeat_interval_s must be > 0, got "
                f"{heartbeat_interval_s}"
            )
        if heartbeat_interval_s >= heartbeat_timeout_s:
            raise ValidationError(
                f"heartbeat_interval_s ({heartbeat_interval_s}) must be "
                f"< heartbeat_timeout_s ({heartbeat_timeout_s}); a "
                f"worker pinged less often than the liveness horizon "
                f"would always look dead"
            )
        self.clock = clock if clock is not None else RealClock()
        self.engine = engine
        self.backend = backend
        self.verify_oracle = verify_oracle
        self.default_deadline_ms = default_deadline_ms
        self.max_queue = max_queue
        self.heartbeat_interval_s = heartbeat_interval_s
        #: Spawn target for pool processes; tests swap in a chaos shim
        #: (see repro.serve.faults.chaos_worker_main).  Must be
        #: spawn-picklable.
        self._worker_entry = worker_entry
        self.router = RouterCore(
            workers=workers,
            max_retries=max_retries,
            record_decisions=True,
            tracer=tracer,
            metrics=metrics,
            heartbeat_timeout_s=heartbeat_timeout_s,
            retry_policy=retry_policy,
            breaker=breaker,
            dlq_limit=dlq_limit,
        )
        self.registry = ModelRegistry(metrics=self.router.metrics)
        self._mp = get_context("spawn")
        self._lock = threading.Lock()
        self._completion = threading.Condition(self._lock)
        self._envelopes: Dict[str, ShippedModel] = {}
        self._registered: Dict[str, object] = {}
        #: batch_id -> (assignment, epoch) awaiting a worker result.
        self._inflight: Dict[int, Tuple[Assignment, int]] = {}
        self._procs: List[object] = [None] * workers
        self._conns: List[object] = [None] * workers
        #: Per worker slot, incarnations spawned since one last reported
        #: ``MSG_READY`` (see :data:`MAX_STARTUP_DEATHS`).
        self._unready_spawns: List[int] = [0] * workers
        self._closed = False
        now = self.clock.now()
        for worker in range(workers):
            self._spawn(worker, self.router.epochs[worker], now)
        self._receiver = threading.Thread(
            target=self._receive_loop, name="cluster-receiver", daemon=True
        )
        self._receiver.start()

    # -- lifecycle ------------------------------------------------------

    def __enter__(self) -> "ClusterService":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def _spawn(self, worker: int, epoch: int, now: float) -> None:
        from repro.serve.worker import worker_main

        entry = (
            self._worker_entry if self._worker_entry is not None
            else worker_main
        )
        parent, child = self._mp.Pipe()
        proc = self._mp.Process(
            target=entry,
            args=(child, worker, epoch),
            daemon=True,
            name=f"copse-worker-{worker}",
        )
        proc.start()
        child.close()
        self._procs[worker] = proc
        self._conns[worker] = parent
        self._unready_spawns[worker] += 1
        self.router.worker_started(worker, now)

    def close(self) -> None:
        """Stop the pool (idempotent).  Pending queries fail loudly.

        A receiver thread that outlives its join timeout is a leak, not
        a nuisance: it still holds pipe handles and can race a later
        service in the same process.  The leak is counted
        (``cluster_receiver_leaked``) and warned about instead of being
        swallowed.
        """
        import warnings

        with self._lock:
            if self._closed:
                return
            self._closed = True
            self.router.close()
            conns = [c for c in self._conns if c is not None]
        for conn in conns:
            try:
                conn.send((MSG_STOP,))
            except (OSError, ValueError, BrokenPipeError):
                pass
        self._receiver.join(timeout=5.0)
        if self._receiver.is_alive():
            self.router.metrics.counter("cluster_receiver_leaked").inc()
            warnings.warn(
                "ClusterService receiver thread failed to stop within "
                "5s of close(); leaking it (pipe handles stay held)",
                RuntimeWarning,
                stacklevel=2,
            )
        for proc in self._procs:
            if proc is not None:
                proc.join(timeout=5.0)
                if proc.is_alive():
                    proc.terminate()
        for conn in conns:
            try:
                conn.close()
            except OSError:
                pass
        failures = self.router.drain_failures()
        deliver_failures(failures)

    @property
    def closed(self) -> bool:
        return self._closed

    # -- registration ---------------------------------------------------

    def register_model(self, name: str, model, **kwargs):
        """Compile/encrypt once router-side and announce to the router.

        The worker pool receives the resulting
        :class:`~repro.serve.transport.ShippedModel` lazily, exactly
        once per (worker, epoch), when placement first assigns the model
        there.  Accepts :meth:`ModelRegistry.register` keywords.
        """
        kwargs.setdefault("engine", self.engine)
        kwargs.setdefault("backend", self.backend)
        registered = self.registry.register(name, model, **kwargs)
        envelope = ShippedModel.from_registered(registered)
        with self._lock:
            try:
                self.router.add_model(
                    name,
                    capacity=registered.layout.capacity,
                    max_pending=self.max_queue,
                    service_ms=registered.estimated_batch_ms,
                    fingerprint=envelope.fingerprint,
                )
            except ValidationError:
                self.registry.unregister(name)
                raise
            self._envelopes[name] = envelope
            self._registered[name] = registered
        return registered

    def preload(self, name: str) -> None:
        """Eagerly ship ``name`` to every live worker (warm the pool)."""
        now = self.clock.now()
        with self._lock:
            envelope = self._envelopes[name]
            for worker in range(self.router.workers):
                if not self.router.alive[worker]:
                    continue
                if self.router.shipped[worker].get(name) == (
                    envelope.fingerprint
                ):
                    continue
                self.router.shipped[worker][name] = envelope.fingerprint
                self.router._ships.inc()
                self.router._record(
                    "ship", worker, self.router.epochs[worker], name,
                    round(now, 9),
                )
                self._send_locked(worker, (MSG_LOAD, envelope))

    # -- control-plane seams --------------------------------------------

    def set_tenant_weight(self, name: str, weight: float) -> float:
        """Retune a model queue's fair-share weight; returns the old."""
        now = self.clock.now()
        with self._lock:
            return self.router.set_weight(name, weight, now)

    def set_admission_limit(self, name: str,
                            limit: Optional[int]) -> Optional[int]:
        """Rebound a model queue's admission limit; returns the old."""
        now = self.clock.now()
        with self._lock:
            return self.router.set_admission_limit(name, limit, now)

    def add_worker(self) -> int:
        """Grow the pool by one spawned worker; returns its fresh id."""
        now = self.clock.now()
        with self._lock:
            if self._closed:
                raise ValidationError("cluster is closed")
            worker = self.router.add_worker(now)
            while len(self._procs) <= worker:
                self._procs.append(None)
                self._conns.append(None)
                self._unready_spawns.append(0)
            self._spawn(worker, self.router.epochs[worker], now)
            self._dispatch_locked(now)
        return worker

    def remove_worker(self) -> int:
        """Permanently stop the highest-id **idle** worker; returns its
        id (never reused).

        Refuses (via the router) while every worker has a batch in
        flight or when it is the last live worker — the in-flight
        epoch-safety invariant the control plane's guards also enforce.
        """
        now = self.clock.now()
        with self._lock:
            worker = self.router.retirable_worker()
            self.router.retire_worker(worker, now)
            conn = self._conns[worker]
            proc = self._procs[worker]
            self._conns[worker] = None
            self._procs[worker] = None
        if conn is not None:
            try:
                conn.send((MSG_STOP,))
            except (OSError, ValueError, BrokenPipeError):
                pass
            try:
                conn.close()
            except OSError:
                pass
        if proc is not None:
            proc.join(timeout=5.0)
            if proc.is_alive():
                proc.terminate()
        return worker

    def set_model_engine(self, name: str, engine: str,
                         expected_fingerprint: Optional[str] = None
                         ) -> None:
        """Flip a model's execution engine across the cluster, live.

        Drains in-flight work first (a torn batch must not straddle the
        flip), mutates the registry entry, and publishes a fresh ship
        key through :meth:`RouterCore.redeploy_model` — the compiled
        fingerprint is engine-independent, so the key is suffixed with
        the engine to force every worker ledger stale.  A mismatched
        ``expected_fingerprint`` fails closed before anything changes.
        """
        self.flush()
        self.drain()
        now = self.clock.now()
        with self._lock:
            registered = self.registry.set_engine(
                name, engine, expected_fingerprint=expected_fingerprint
            )
            envelope = ShippedModel.from_registered(registered)
            self._envelopes[name] = envelope
            self.router.redeploy_model(
                name, f"{envelope.fingerprint}:{registered.engine}", now
            )

    @property
    def workers(self) -> int:
        with self._lock:
            return self.router.live_workers

    # -- serving --------------------------------------------------------

    def submit(self, name: str, features, tenant: str = "default",
               deadline_ms: Optional[float] = None,
               priority: int = 0) -> "Future":
        """Admit one query; returns a future of its
        :class:`~repro.serve.batcher.ClassificationResult`.  The block
        of one: see :meth:`submit_many`."""
        return self.submit_many(
            name, (features,), tenant, deadline_ms, priority
        )[0]

    def submit_many(self, name: str, feature_lists, tenant: str = "default",
                    deadline_ms: Optional[float] = None,
                    priority: int = 0) -> List["Future"]:
        """Admit a block of queries; returns their futures, in order.

        The block is validated whole before any of it is admitted, and
        admitted under one lock hold, one clock read (one
        ``submit_time`` and deadline for the block) and one dispatch.
        A :class:`~repro.errors.RejectedQuery` part-way leaves the
        queries ahead of it admitted (their tickets on the exception's
        ``admitted``).
        """
        layout = self.registry.get(name).layout
        payloads = [
            _ClusterQuery(features)
            for features in validate_queries(layout, feature_lists)
        ]
        # Retries chain new futures onto these; callers hold the first.
        futures = [payload.future for payload in payloads]
        effective = (
            deadline_ms if deadline_ms is not None
            else self.default_deadline_ms
        )
        now = self.clock.now()
        refusal = None
        with self._lock:
            deadline = None if effective is None else now + effective * MS
            try:
                self.router.submit_many(
                    name, payloads, now, tenant=tenant, deadline=deadline,
                    priority=priority,
                )
            except RejectedQuery as exc:
                refusal = exc  # what it admitted still dispatches
            self._dispatch_locked(now)
            failures = self.router.drain_failures()
        deliver_failures(failures)
        if refusal is not None:
            raise refusal
        return futures

    def classify_many(self, name: str, feature_lists,
                      tenant: str = "default") -> List:
        """Submit many queries, dispatch, and return results in order.

        Validates the whole request before admitting any of it; when
        admission control refuses one part-way, what was admitted is
        still served before the refusal propagates.  An empty request
        returns ``[]`` without taking the router lock.
        """
        self.registry.get(name)  # name resolution (or raise)
        if not len(feature_lists):
            return []
        try:
            futures = self.submit_many(name, feature_lists, tenant)
        except RejectedQuery as refusal:
            self.flush(name)  # serve what was admitted ahead of it
            wait_futures([ticket.future for ticket in refusal.admitted])
            raise
        self.flush(name)
        wait_futures(futures)
        return [f.result() for f in futures]

    def flush(self, name: Optional[str] = None) -> None:
        now = self.clock.now()
        with self._lock:
            self.router.flush(name)
            self._dispatch_locked(now)
            failures = self.router.drain_failures()
        deliver_failures(failures)

    def drain(self, timeout: Optional[float] = None) -> bool:
        """Block until no admitted query is queued or in flight."""
        with self._completion:
            return self._completion.wait_for(
                lambda: self.router.outstanding == 0, timeout=timeout
            )

    def pending(self, name: Optional[str] = None) -> int:
        """Admitted queries still queued (not yet cut into a batch)."""
        with self._lock:
            return self.router.core.pending(name)

    def stats(self) -> SchedulerStats:
        with self._lock:
            return self.router.stats()

    @property
    def metrics(self):
        return self.router.metrics

    def metrics_snapshot(self) -> Dict:
        with self._lock:
            self.router.stats()
            return self.router.metrics.snapshot()

    @property
    def decisions(self) -> List[Tuple]:
        with self._lock:
            return list(self.router.decisions or [])

    def dlq(self) -> List[Dict]:
        """The quarantined (dead-lettered) queries, oldest first."""
        with self._lock:
            return self.router.dlq.as_dicts()

    # -- engine internals ----------------------------------------------

    def _send_locked(self, worker: int, message) -> None:
        """Send to a worker; a dead pipe is the receive loop's to handle.

        A worker that died leaves EOF on its pipe, which the receive
        loop turns into the crash path (epoch bump, ship ledger cleared,
        in-flight batch re-placed) — so a failed send here loses
        nothing, and no raw ``OSError`` reaches ``submit``/``preload``.
        """
        try:
            self._conns[worker].send(message)
        except (OSError, ValueError):  # BrokenPipeError is an OSError
            pass

    def _dispatch_locked(self, now: float) -> None:
        for action in self.router.dispatch(now):
            if isinstance(action, ShipAction):
                self._send_locked(
                    action.worker, (MSG_LOAD, self._envelopes[action.model])
                )
                continue
            assignment = action.assignment
            worker = (
                action.worker if isinstance(action, HedgeAction)
                else assignment.worker
            )
            request = BatchRequest(
                batch_id=assignment.batch_id,
                model=assignment.queue,
                epoch=action.epoch,
                features=tuple(
                    tuple(t.payload.features) for t in assignment.tickets
                ),
                verify_oracle=self.verify_oracle,
            )
            # A hedge send reuses the primary's inflight entry: results
            # carry (worker, epoch), so either replica can resolve it.
            self._inflight[assignment.batch_id] = (assignment,
                                                   action.epoch)
            self._send_locked(worker, (MSG_EVAL, request))

    def _receive_loop(self) -> None:
        from multiprocessing.connection import wait as conn_wait

        last_ping = self.clock.now()
        while True:
            with self._lock:
                if self._closed:
                    return
                conns = [c for c in self._conns if c is not None]
                now = self.clock.now()
                wake_at = self.router.next_wake_time(now)
            timeout = self.POLL_INTERVAL_S
            if wake_at is not None:
                timeout = min(timeout, max(0.0, wake_at - now))
            try:
                ready = conn_wait(conns, timeout)
            except OSError:
                ready = []
            resolutions = []
            with self._lock:
                if self._closed:
                    return
                now = self.clock.now()
                for conn in ready:
                    try:
                        worker = self._conns.index(conn)
                    except ValueError:
                        continue  # replaced while we waited
                    try:
                        message = conn.recv()
                    except (EOFError, OSError):
                        self._handle_crash_locked(worker, now)
                        continue
                    resolution = self._handle_message_locked(
                        worker, message, now
                    )
                    if resolution is not None:
                        resolutions.append(resolution)
                for worker in self.router.check_health(now):
                    self._kill_locked(worker)
                    self._handle_crash_locked(worker, now)
                if now - last_ping >= self.heartbeat_interval_s:
                    last_ping = now
                    for worker, conn in enumerate(self._conns):
                        if conn is not None:  # None: retired worker
                            self._send_locked(worker, (MSG_PING,))
                self._dispatch_locked(now)
                failures = self.router.drain_failures()
                self._completion.notify_all()
            deliver_failures(failures)
            for resolve in resolutions:
                resolve()

    def _handle_message_locked(self, worker: int, message, now: float):
        tag = message[0]
        if tag == MSG_RESULT:
            return self._handle_result_locked(message[1], now)
        if tag in (MSG_READY, MSG_PONG):
            current = self.router.heartbeat(worker, message[2], now)
            if current and tag == MSG_READY:
                self._unready_spawns[worker] = 0
        # MSG_LOADED is informational; the ledger was updated at ship time.
        return None

    def _handle_result_locked(self, result, now: float):
        entry = self._inflight.pop(result.batch_id, None)
        if entry is None:
            return None  # duplicated or hedged-and-already-resolved
        assignment, _ = entry
        # Trust what the result *says* about its origin, not what the
        # dispatch remembered: a hedged batch resolves from whichever
        # replica answered first.
        worker = result.worker
        epoch = result.epoch
        if result.error is not None:
            # Deterministic worker-side failure: no retry (a second run
            # would fail identically); every ticket fails loudly.
            self.router.complete(assignment, epoch, now, OUTCOME_ERROR,
                                 worker=worker)
            return None
        if (
            result.bitvectors is None
            or len(result.bitvectors) != assignment.size
        ):
            # A truncated/corrupted completion envelope.  Fail closed:
            # the sender is lying about the batch shape, so treat it as
            # a worker fault — kill it and take the crash/respawn path
            # (the batch parks or quarantines; nothing is resolved from
            # a malformed result).
            self._inflight[assignment.batch_id] = entry
            if (
                worker < len(self.router.epochs)
                and epoch == self.router.epochs[worker]
                and self.router.alive[worker]
            ):
                self._kill_locked(worker)
                self._handle_crash_locked(worker, now)
            return None
        if result.degraded_engine is not None:
            registered = self._registered.get(assignment.queue)
            from_engine = (
                registered.engine if registered is not None else ""
            )
            self.router.record_degrade(
                assignment.queue, from_engine, result.degraded_engine,
                now,
            )
        if not self.router.complete(assignment, epoch, now, OUTCOME_OK,
                                    worker=worker):
            return None  # stale epoch: tickets already requeued
        registered = self._registered[assignment.queue]
        tickets = list(assignment.tickets)

        def resolve() -> None:
            from repro.serve.batcher import classification_results

            outcomes = classification_results(
                registered, result.batch_id,
                [ticket.payload.features for ticket in tickets],
                result.bitvectors, result.inference_ms, result.oracle_ok,
            )
            for ticket, outcome in zip(tickets, outcomes):
                future = ticket.payload.future
                if not future.done():
                    future.set_result(outcome)

        return resolve

    def _kill_locked(self, worker: int) -> None:
        proc = self._procs[worker]
        if proc is not None and proc.is_alive():
            proc.terminate()

    def _handle_crash_locked(self, worker: int, now: float) -> None:
        """Pipe EOF / liveness timeout: crash, respawn, re-place.

        The router decides the batch's fate (park behind backoff,
        quarantine-bisect, promote a hedge replica); this engine only
        drops the dead inflight entry and respawns the process.  A
        None return means the batch survives on its hedge replica, so
        the inflight entry stays.  A slot whose last
        :data:`MAX_STARTUP_DEATHS` incarnations all died before
        reporting ready is abandoned, not respawned.
        """
        if not self.router.alive[worker]:
            return
        interrupted = self.router.crash_worker(worker, now)
        if interrupted is not None:
            self._inflight.pop(interrupted.batch_id, None)
        try:
            self._conns[worker].close()
        except OSError:
            pass
        proc = self._procs[worker]
        if proc is not None:
            proc.join(timeout=0.5)
            if proc.is_alive():
                proc.terminate()
        if self._closed:
            return
        deaths = self._unready_spawns[worker]
        if deaths >= MAX_STARTUP_DEATHS:
            self._conns[worker] = None
            self._procs[worker] = None
            self.router.abandon_worker(worker, deaths, now)
            return
        epoch = self.router.restart_worker(worker, now)
        # restart_worker reset the liveness clock; _spawn re-seeds it
        # once the replacement is up.
        self._spawn(worker, epoch, now)


def _check_cluster_args(workers: int) -> None:
    if workers < 1:
        raise ValidationError(f"--workers must be >= 1, got {workers}")
