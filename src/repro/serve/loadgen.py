"""Deterministic load generation + the discrete-event serve simulator.

The serve stack's interesting behaviors — deadline-forced cuts,
admission rejections, fair sharing under skew, crash backoff, quarantine
— only show up under sustained, bursty, multi-tenant load, which
wall-clock tests cannot exercise without flakiness.  This module replays
exactly that load under a :class:`~repro.serve.simclock.VirtualClock`:

* :func:`generate_arrivals` — a seeded open-loop arrival schedule:
  per-tenant Poisson processes (``rate_qps``) plus periodic bursts,
  merged into one deterministic timeline;
* :class:`FaultPlan` — the chaos matrix: worker crashes and hangs at
  fixed virtual times, slowed batches, corrupted ships and completions,
  lost and duplicated completions, poison queries;
* :class:`SimRunner` — the one simulator: a discrete-event loop driving
  the *same* decision core (:class:`~repro.serve.cluster.RouterCore`, a
  :class:`~repro.serve.scheduler.SchedulerCore`) the real
  :class:`~repro.serve.cluster.ClusterService` runs, with per-model
  service times taken from the cost model (the circuits are
  input-independent, so a batch's simulated cost is a constant of the
  model — no FHE evaluation is needed to know how long it takes).  Each
  event kind is one handler method behind :data:`EVENT_TABLE`.

Everything is seeded and the virtual clock never sleeps, so a
10^5-query soak with mixed tenants, bursts, and mid-run worker crashes
replays in seconds of real time and makes *identical* routing decisions
(and byte-identical stats) on every run.
"""

from __future__ import annotations

import heapq
import itertools
import math
import zlib
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.errors import RejectedQuery, ValidationError, require_at_least
from repro.serve.cluster import (
    DEFAULT_HEARTBEAT_TIMEOUT_S,
    HedgeAction,
    RouterCore,
    ShipAction,
)
from repro.serve.faults import CircuitBreaker, RetryPolicy
from repro.serve.scheduler import (
    OUTCOME_OK,
    QueryFuture,
    SchedulerStats,
    deliver_failures,
)
from repro.serve.simclock import MS, VirtualClock

__all__ = [
    "ModelProfile",
    "TenantSpec",
    "FaultPlan",
    "Arrival",
    "generate_arrivals",
    "offered_load",
    "SimReport",
    "SimRunner",
]


@dataclass(frozen=True)
class ModelProfile:
    """What the simulator needs to know about one served model."""

    name: str
    #: Queries packed per batch (the layout capacity).
    capacity: int
    #: Simulated service time of one batch evaluation, in ms.  Constant
    #: per model because the batched circuit is input-independent.
    service_ms: float
    weight: float = 1.0
    max_pending: Optional[int] = None

    def __post_init__(self) -> None:
        if self.capacity < 1:
            raise ValidationError(
                f"profile {self.name!r}: capacity must be >= 1"
            )
        if self.service_ms <= 0:
            raise ValidationError(
                f"profile {self.name!r}: service_ms must be > 0"
            )

    @classmethod
    def from_registered(cls, registered, weight: float = 1.0,
                        max_pending: Optional[int] = None) -> "ModelProfile":
        """Profile a :class:`~repro.serve.registry.RegisteredModel`.

        The service time is the cached plan's analyzed cost — the same
        estimate the production scheduler uses for slack cuts.
        """
        service_ms = registered.estimated_batch_ms
        if service_ms is None:
            raise ValidationError(
                f"model {registered.name!r} has no cached plan to "
                f"estimate batch cost from; pass an explicit profile"
            )
        return cls(
            name=registered.name,
            capacity=registered.layout.capacity,
            service_ms=service_ms,
            weight=weight,
            max_pending=max_pending,
        )


@dataclass(frozen=True)
class TenantSpec:
    """One tenant's traffic shape against one model."""

    name: str
    model: str
    #: Open-loop Poisson arrival rate (queries/second of virtual time).
    rate_qps: float = 0.0
    #: Optional periodic bursts: every ``burst_every_s`` seconds,
    #: ``burst_size`` queries arrive at the same instant.
    burst_every_s: Optional[float] = None
    burst_size: int = 0
    #: Relative deadline applied to every query (None = best-effort).
    deadline_ms: Optional[float] = None
    priority: int = 0

    def __post_init__(self) -> None:
        if self.rate_qps < 0:
            raise ValidationError(
                f"tenant {self.name!r}: rate_qps must be >= 0"
            )
        if self.rate_qps == 0 and not self.burst_size:
            raise ValidationError(
                f"tenant {self.name!r} generates no traffic: give it a "
                f"rate_qps or a burst"
            )
        # Either would keep generate_arrivals from returning (a NaN
        # period is not > 0 either).
        if self.burst_size < 0 or (
            self.burst_size and not (self.burst_every_s or 0) > 0
        ):
            raise ValidationError(
                f"tenant {self.name!r}: a burst needs burst_size > 0 and "
                f"burst_every_s > 0, got {self.burst_size} every "
                f"{self.burst_every_s}"
            )


@dataclass(frozen=True)
class FaultPlan:
    """Deterministic fault injection for one simulation run.

    The chaos matrix :class:`SimRunner` injects.  Everything is
    counter- or timeline-based, never random: two runs of the same plan
    inject byte-identical faults.
    """

    #: Virtual times at which a worker dies mid-whatever-it-is-doing.
    #: The k-th crash hits worker ``k % workers`` (the pool size the
    #: run started with); the worker restarts immediately under a new
    #: epoch (the pool keeps its size) but its in-flight batch parks
    #: behind the retry backoff.  A worker the controller has retired
    #: by then is skipped.
    worker_crashes: Tuple[float, ...] = ()
    #: Every Nth dispatched batch takes ``slow_factor`` times its normal
    #: service time (0 disables).  Models stragglers/GC pauses.
    slow_every: int = 0
    slow_factor: float = 1.0
    #: Each slowed batch is ``slow_ramp`` slower than the previous one
    #: (a degrading-worker ramp; 0 keeps the factor flat).
    slow_ramp: float = 0.0
    #: Virtual times at which a worker freezes *silently*: no EOF, no
    #: completions, no heartbeats.  Only the heartbeat-liveness path
    #: can detect it.  The k-th hang hits worker ``k % workers``;
    #: a worker retired by then is skipped.
    worker_hangs: Tuple[float, ...] = ()
    #: Every Nth shipped model envelope arrives corrupted; the worker's
    #: fail-closed verify kills it at load time (0 disables).
    corrupt_ship_every: int = 0
    #: Every Nth completion envelope arrives truncated; the router
    #: fail-closed treats the sender as faulty (0 disables).
    corrupt_completion_every: int = 0
    #: Every Nth completion is silently lost in transit (0 disables).
    #: Recovery needs hedging: enable it in the retry policy or the
    #: stuck batch never resolves.
    drop_completion_every: int = 0
    #: Every Nth completion arrives twice; the duplicate must drop as
    #: stale (0 disables).
    duplicate_completion_every: int = 0
    #: Arrival indices whose query is poison: any worker evaluating a
    #: batch containing it dies mid-batch.  Quarantine bisection must
    #: isolate it into the dead-letter queue.
    poison_queries: Tuple[int, ...] = ()

    def __post_init__(self) -> None:
        if self.slow_every < 0:
            raise ValidationError("slow_every must be >= 0")
        if self.slow_every and self.slow_factor < 1.0:
            raise ValidationError(
                f"slow_factor must be >= 1, got {self.slow_factor}"
            )
        if self.slow_ramp < 0:
            raise ValidationError(
                f"slow_ramp must be >= 0, got {self.slow_ramp}"
            )
        for field_name in (
            "corrupt_ship_every", "corrupt_completion_every",
            "drop_completion_every", "duplicate_completion_every",
        ):
            value = getattr(self, field_name)
            if value < 0:
                raise ValidationError(
                    f"{field_name} must be >= 0, got {value}"
                )
        if any(index < 0 for index in self.poison_queries):
            raise ValidationError(
                "poison_queries are arrival indices and must be >= 0"
            )
        for name in ("worker_crashes", "worker_hangs"):
            if not all(0 <= at < math.inf for at in getattr(self, name)):
                raise ValidationError(  # NaN is not 0 <= at either
                    f"{name} must be finite virtual times >= 0, got "
                    f"{getattr(self, name)}"
                )


@dataclass(frozen=True)
class Arrival:
    """One query arriving at a fixed virtual time."""

    time: float
    tenant: str
    model: str
    deadline_ms: Optional[float]
    priority: int


def generate_arrivals(
    tenants: Sequence[TenantSpec],
    seed: int,
    total_queries: Optional[int] = None,
    duration_s: Optional[float] = None,
) -> List[Arrival]:
    """A deterministic merged arrival timeline for ``tenants``.

    Each tenant gets its own child RNG (derived from ``seed`` and its
    position), so adding a tenant never perturbs the others' streams.
    Stop after ``total_queries`` arrivals or at ``duration_s`` of
    virtual time, whichever is given (at least one must be).
    """
    if total_queries is None and duration_s is None:
        raise ValidationError(
            "generate_arrivals needs total_queries or duration_s"
        )
    if total_queries is not None:
        require_at_least("total_queries", total_queries, 1)
    if not tenants:
        raise ValidationError("generate_arrivals needs at least one tenant")

    def tenant_stream(index: int, spec: TenantSpec):
        rng = np.random.default_rng([seed, index])
        t = 0.0
        burst_k = 1
        while True:
            nxt_poisson = (
                t + float(rng.exponential(1.0 / spec.rate_qps))
                if spec.rate_qps > 0 else None
            )
            nxt_burst = (
                spec.burst_every_s * burst_k if spec.burst_size else None
            )
            if nxt_burst is not None and (
                nxt_poisson is None or nxt_burst <= nxt_poisson
            ):
                t, size = nxt_burst, spec.burst_size
                burst_k += 1
            else:
                t, size = nxt_poisson, 1
            for _ in range(size):
                yield Arrival(
                    time=t,
                    tenant=spec.name,
                    model=spec.model,
                    deadline_ms=spec.deadline_ms,
                    priority=spec.priority,
                )

    # Merge the per-tenant streams by (time, tenant index) — a total,
    # deterministic order even for simultaneous (burst) arrivals.
    streams = [
        iter(tenant_stream(i, spec)) for i, spec in enumerate(tenants)
    ]
    heads: List[Tuple[float, int, int, Arrival]] = []
    tiebreak = itertools.count()
    for i, stream in enumerate(streams):
        arrival = next(stream)
        heads.append((arrival.time, i, next(tiebreak), arrival))
    heapq.heapify(heads)

    out: List[Arrival] = []
    while heads:
        _, i, _, arrival = heapq.heappop(heads)
        if duration_s is not None and arrival.time > duration_s:
            continue  # this tenant's stream ran past the horizon
        out.append(arrival)
        if total_queries is not None and len(out) >= total_queries:
            break
        nxt = next(streams[i])
        heapq.heappush(heads, (nxt.time, i, next(tiebreak), nxt))
    return out


def offered_load(
    tenants: Sequence[TenantSpec],
    profiles: Sequence[ModelProfile],
    threads: int,
) -> float:
    """Mean worker utilization the tenants' rates imply.

    Each model contributes ``rate / capacity`` batches per second, each
    costing ``service_ms``; dividing by the pool size gives the classic
    rho.  Bursts add load on top, so treat this as a lower bound.
    """
    require_at_least("threads", threads, 1)
    by_model = {p.name: p for p in profiles}
    rho = 0.0
    for spec in tenants:
        profile = by_model.get(spec.model)
        if profile is None:
            raise ValidationError(
                f"tenant {spec.name!r} names model {spec.model!r}, which "
                f"has no profile (profiled: {', '.join(sorted(by_model))})"
            )
        rate = spec.rate_qps
        if spec.burst_size and spec.burst_every_s:
            rate += spec.burst_size / spec.burst_every_s
        rho += rate / profile.capacity * profile.service_ms * MS
    return rho / threads


class _SimQuery:
    """Minimal router payload: just a future."""

    __slots__ = ("future",)

    def __init__(self):
        self.future = QueryFuture()


@dataclass
class SimReport:
    """Everything one simulation run produced."""

    stats: SchedulerStats
    #: The router's decision log, ``(kind, ...)`` tuples in emission
    #: order (see :mod:`repro.serve.cluster`) — the determinism witness.
    decisions: List[Tuple]
    #: Virtual seconds from first arrival to last completion.
    duration_s: float
    #: Total simulated batch-evaluation ms across the run.
    service_ms_total: float
    #: Slots available across all dispatched batches (for fill rate).
    capacity_total: int
    #: The pool size the run started with.
    threads: int
    #: The order queries were packed into batches: tenant -> seq list.
    #: FIFO-within-tenant holds iff each list is sorted.
    packed_order: Dict[str, List[int]] = field(default_factory=dict)
    #: Simulated per-query "bits": arrival index -> deterministic result
    #: hash (the bit-identity key of chaos soaks).
    results: Dict[int, int] = field(default_factory=dict)
    #: Dead-lettered (quarantined) queries, as dicts.
    dead_letters: List[Dict] = field(default_factory=list)

    def service_stats(self):
        """The run as a :class:`~repro.serve.service.ServiceStats`.

        FHE-op fields are zero (the simulator never evaluates circuits);
        scheduling fields carry the full picture.  Byte-identical across
        same-seed runs — the soak determinism lock compares exactly
        this object's ``render()``.
        """
        from repro.serve.service import ServiceStats

        return ServiceStats(
            queries=self.stats.completed,
            batches=self.stats.batches,
            capacity_total=self.capacity_total,
            phase_ms={},
            op_counts={},
            inference_ms=round(self.service_ms_total, 6),
            data_encrypt_ms=0.0,
            setup_ms=0.0,
            oracle_failures=0,
            threads=self.threads,
            scheduler=self.stats,
        )


#: Completion-event fault flags (decided deterministically at schedule
#: time from the FaultPlan's counters), by the plan field that sets each.
_F_CORRUPT, _F_DROP, _F_DUP = 1, 2, 4
_COMPLETION_FAULTS = (
    ("corrupt_completion_every", _F_CORRUPT),
    ("drop_completion_every", _F_DROP),
    ("duplicate_completion_every", _F_DUP),
)


def _sim_result(queue: str, index: int) -> int:
    # The simulated "bits": a pure function of (model, query), so a
    # faulted run must reproduce the fault-free values exactly or the
    # identity check fails.
    return zlib.crc32(f"{queue}:{index}".encode())


class SimRunner:
    """Discrete-event execution of a :class:`RouterCore`.

    One instance runs one simulation (the router's counters are
    cumulative).  ``run`` replays an arrival list against the given
    model profiles, injecting the fault plan, and returns a
    :class:`SimReport`.  Crashes go through the router's epoch protocol
    (crash -> immediate respawn under a new epoch -> re-ship on next
    placement), and every routing decision — ship, assign, crash,
    restart, park, stale-drop — lands in the report's decision log.
    ``ship_ms`` charges a simulated one-time shipping latency to the
    first batch a (worker, epoch) runs per model.

    The runner is also a control-plane target
    (:class:`~repro.control.actuator.Plant`): ``stats`` / ``metrics``
    to observe, ``add_worker`` / ``remove_worker`` to actuate, at the
    virtual clock's current instant.
    """

    def __init__(
        self,
        profiles: Sequence[ModelProfile],
        workers: int = 2,
        max_retries: int = 1,
        tracer=None,
        metrics=None,
        ship_ms: float = 0.0,
        controller=None,
        control_interval_s: float = 1.0,
        retry_policy: Optional[RetryPolicy] = None,
        breaker: Optional[CircuitBreaker] = None,
        heartbeat_interval_s: float = 1.0,
        heartbeat_timeout_s: float = DEFAULT_HEARTBEAT_TIMEOUT_S,
        dlq_limit: int = 64,
    ):
        if not profiles:
            raise ValidationError("SimRunner needs at least one profile")
        if ship_ms < 0:
            raise ValidationError(f"ship_ms must be >= 0, got {ship_ms}")
        if controller is not None and control_interval_s <= 0:
            raise ValidationError(
                f"control_interval_s must be > 0, got {control_interval_s}"
            )
        if heartbeat_interval_s <= 0:
            raise ValidationError(
                f"heartbeat_interval_s must be > 0, got "
                f"{heartbeat_interval_s}"
            )
        self.profiles: Dict[str, ModelProfile] = {
            p.name: p for p in profiles
        }
        #: The pool size the run starts with (scheduled crashes and
        #: hangs rotate over it).
        self.workers = workers
        self.ship_ms = ship_ms
        self.heartbeat_interval_s = heartbeat_interval_s
        self.clock = VirtualClock()
        #: Optional span tracer threaded into the core.  Every event the
        #: simulation processes is timestamped by the virtual clock, so a
        #: traced run exports byte-identical JSONL/Chrome traces per
        #: seed (the trace-determinism soak locks exactly this).
        self.tracer = tracer
        self.router = RouterCore(
            workers=workers,
            max_retries=max_retries,
            tracer=tracer,
            metrics=metrics,
            heartbeat_timeout_s=heartbeat_timeout_s,
            retry_policy=retry_policy,
            breaker=breaker,
            dlq_limit=dlq_limit,
        )
        for profile in profiles:
            self.router.add_model(
                profile.name,
                capacity=profile.capacity,
                weight=profile.weight,
                max_pending=profile.max_pending,
                service_ms=profile.service_ms,
            )
        #: Optional control plane (``repro.control.Controller``): ticked
        #: every ``control_interval_s`` of virtual time while the run
        #: has work, between event processing and dispatch — so an
        #: actuation (a scale-up or -down) affects the very next
        #: placement decision, deterministically.
        self.controller = controller
        self.control_interval_s = control_interval_s
        self._used = False
        # -- run state (one run per instance) --------------------------
        self._faults = FaultPlan()
        self._events: List[Tuple[float, int, int, object]] = []
        self._order = itertools.count()
        self._timers_scheduled: set = set()
        self._remaining_arrivals = 0
        self._last_completion_t = 0.0
        self._service_ms_total = 0.0
        self._capacity_total = 0
        self._packed_order: Dict[str, List[int]] = {}
        #: Fault counters: dispatched batches, slowed batches so far,
        #: shipped envelopes, scheduled completions.
        self._batch_counter = 0
        self._slow_hits = 0
        self._ship_counter = 0
        self._completion_counter = 0
        #: query seq -> arrival index (the bit-identity key).
        self._seq_value: Dict[int, int] = {}
        self._results: Dict[int, int] = {}
        self._poison_seqs: set = set()
        self._hung: set = set()
        self._dropped_batches: set = set()

    # -- the actuation surface (see repro.control.actuator.Plant) -------

    @property
    def metrics(self):
        return self.router.metrics

    def stats(self) -> SchedulerStats:
        return self.router.stats()

    def add_worker(self) -> int:
        """Grow the simulated pool mid-run; returns the new worker id."""
        now = self.clock.now()
        worker = self.router.add_worker(now)
        self.router.worker_started(worker, now)
        return worker

    def remove_worker(self) -> int:
        """Retire the highest-id idle simulated worker; returns its id."""
        worker = self.router.retirable_worker()
        self.router.retire_worker(worker, self.clock.now())
        return worker

    # -- the event loop --------------------------------------------------

    def _push(self, time: float, kind: str, data: object) -> None:
        heapq.heappush(
            self._events, (time, _RANK[kind], next(self._order), data)
        )

    def run(self, arrivals: Sequence[Arrival],
            faults: FaultPlan = FaultPlan()) -> SimReport:
        if self._used:
            raise ValidationError(
                "a SimRunner runs once; build a fresh one per run"
            )
        self._used = True
        self._faults = faults
        clock, router = self.clock, self.router
        for worker in range(self.workers):
            router.worker_started(worker, 0.0)

        for index, arrival in enumerate(arrivals):
            self._push(arrival.time, "arrival", (index, arrival))
        for k, crash_time in enumerate(faults.worker_crashes):
            self._push(crash_time, "crash", (k % self.workers, None))
        for k, hang_time in enumerate(faults.worker_hangs):
            self._push(hang_time, "hang", k % self.workers)
        if faults.worker_hangs:
            self._push(self.heartbeat_interval_s, "health", None)
        if self.controller is not None:
            self._push(self.control_interval_s, "control", None)
        self._remaining_arrivals = len(arrivals)
        flushed = False

        while self._events or router.outstanding:
            if not self._events:
                # Only partial batches remain and nothing will ever cut
                # them: the end-of-run flush (mirrors service.flush()).
                router.flush()
                self._dispatch(clock.now())
                if not self._events:
                    break  # every remaining future is terminal
                continue
            time, rank, _, data = heapq.heappop(self._events)
            now = clock.advance_to(time)
            EVENT_TABLE[rank][1](self, data, now)
            if self._remaining_arrivals == 0 and not flushed:
                router.flush()
                flushed = True
            self._dispatch(now)
            # The sim is single-threaded, so "outside the lock" is
            # trivially satisfied here.
            deliver_failures(router.drain_failures())

        deliver_failures(router.drain_failures())
        first_t = arrivals[0].time if arrivals else 0.0
        return SimReport(
            stats=router.stats(),
            decisions=list(router.decisions),
            duration_s=max(0.0, self._last_completion_t - first_t),
            service_ms_total=self._service_ms_total,
            capacity_total=self._capacity_total,
            threads=self.workers,
            packed_order=self._packed_order,
            results=self._results,
            dead_letters=[
                dict(entry.as_dict(),
                     value=self._seq_value.get(entry.seq))
                for entry in router.dlq.entries()
            ],
        )

    def _has_work(self) -> bool:
        # Periodic events re-arm only while the run still has work: an
        # idle control or health loop must not keep the simulation alive.
        return self._remaining_arrivals > 0 or self.router.outstanding > 0

    def _crash_and_respawn(self, worker: int, now: float) -> None:
        self.router.crash_worker(worker, now)
        # The pool keeps its size: the replacement spawns immediately
        # under the bumped epoch with an empty ship ledger (its first
        # batch per model pays ship_ms again).
        self.router.restart_worker(worker, now)
        self._hung.discard(worker)

    def _dispatch(self, now: float) -> None:
        faults, router = self._faults, self.router
        ship_delay: Dict[int, float] = {}
        corrupted_ship: set = set()
        for action in router.dispatch(now):
            if isinstance(action, ShipAction):
                ship_delay[action.worker] = (
                    ship_delay.get(action.worker, 0.0) + self.ship_ms
                )
                if faults.corrupt_ship_every:
                    self._ship_counter += 1
                    if self._ship_counter % faults.corrupt_ship_every == 0:
                        corrupted_ship.add(action.worker)
                continue
            assignment = action.assignment
            hedge = isinstance(action, HedgeAction)
            worker = action.worker if hedge else assignment.worker
            self._batch_counter += 1
            profile = self.profiles[assignment.queue]
            service_ms = profile.service_ms
            if (
                faults.slow_every
                and self._batch_counter % faults.slow_every == 0
            ):
                # Optionally ramp: each hit is slower than the last.
                service_ms *= (
                    faults.slow_factor + faults.slow_ramp * self._slow_hits
                )
                self._slow_hits += 1
            service_ms += ship_delay.pop(worker, 0.0)
            self._service_ms_total += service_ms
            if not hedge:
                self._capacity_total += profile.capacity
                for run in assignment.runs():
                    self._packed_order.setdefault(
                        run.tenant, []
                    ).extend(run.seqs())
            if worker in corrupted_ship:
                # The envelope arrived corrupted: the worker's
                # fail-closed verify kills it at load time.
                corrupted_ship.discard(worker)
                self._push(now + service_ms * MS, "crash",
                           (worker, router.epochs[worker]))
            elif any(seq in self._poison_seqs
                     for run in assignment.runs() for seq in run.seqs()):
                # Poison: the worker dies mid-batch, no completion.
                self._push(now + 0.5 * service_ms * MS, "crash",
                           (worker, router.epochs[worker]))
            else:
                self._push(
                    now + service_ms * MS, "completion",
                    (assignment, action.epoch, worker,
                     self._completion_flags()),
                )
        wake_at = router.next_wake_time(now)
        if wake_at is not None and wake_at > now:
            key = round(wake_at, 9)
            if key not in self._timers_scheduled:
                self._timers_scheduled.add(key)
                self._push(wake_at, "timer", None)

    def _completion_flags(self) -> int:
        """The transit faults the next scheduled completion suffers."""
        self._completion_counter += 1
        flags = 0
        for field_name, flag in _COMPLETION_FAULTS:
            every = getattr(self._faults, field_name)
            if every and self._completion_counter % every == 0:
                flags |= flag
        return flags

    # -- event handlers (one per row of EVENT_TABLE) ---------------------

    def _on_completion(self, data, now: float) -> None:
        assignment, epoch, worker, flags = data
        router = self.router
        if worker in self._hung and router.epochs[worker] == epoch:
            return  # frozen mid-batch: the result never arrives
        if (
            flags & _F_DROP
            and assignment.batch_id not in self._dropped_batches
        ):
            # Lost completion: at most once per batch, so the hedge
            # replica's result can still land.
            self._dropped_batches.add(assignment.batch_id)
            return
        if flags & _F_CORRUPT:
            # Corrupted completion envelope: fail-closed — the engine
            # treats the sender as faulty and crashes it (the batch
            # takes the normal park/quarantine path).
            if router.epochs[worker] == epoch and router.alive[worker]:
                self._crash_and_respawn(worker, now)
            return
        # A superseded incarnation's batch is dropped and recorded by
        # the router; the crash path already parked its queries.
        if router.complete(assignment, epoch, now, OUTCOME_OK,
                           worker=worker):
            self._last_completion_t = now
            for seq in [k for run in assignment.runs() for k in run.seqs()]:
                index = self._seq_value.get(seq)
                if index is not None:
                    self._results[index] = _sim_result(
                        assignment.queue, index
                    )
        if flags & _F_DUP:
            # The duplicate arrives on the heels of the first copy and
            # must drop as stale.
            router.complete(assignment, epoch, now, OUTCOME_OK,
                            worker=worker)

    def _on_crash(self, data, now: float) -> None:
        worker, guard_epoch = data
        router = self.router
        if guard_epoch is None:
            # Scheduled by the fault plan: a worker the controller has
            # retired meanwhile is gone, not restartable.
            if worker in router.retired:
                return
        elif (
            not router.alive[worker]
            or router.epochs[worker] != guard_epoch
        ):
            # Fault-induced, epoch-guarded: a respawned incarnation must
            # not die for its predecessor's poison.
            return
        self._crash_and_respawn(worker, now)

    def _on_arrival(self, data, now: float) -> None:
        index, arrival = data
        self._remaining_arrivals -= 1
        deadline = (
            None if arrival.deadline_ms is None
            else now + arrival.deadline_ms * MS
        )
        try:
            run = self.router.submit(
                arrival.model,
                _SimQuery(),
                now,
                tenant=arrival.tenant,
                deadline=deadline,
                priority=arrival.priority,
            )
        except RejectedQuery:
            return  # counted by the core; open-loop load sheds
        self._seq_value[run.seq] = index
        if index in self._faults.poison_queries:
            self._poison_seqs.add(run.seq)

    def _on_timer(self, data, now: float) -> None:
        # Carries no state: popping it (advancing the clock) is what
        # makes due cuts/parks/hedges visible to the dispatch that
        # follows every event.
        pass

    def _on_control(self, data, now: float) -> None:
        self.controller.tick(now)
        if self._has_work():
            self._push(now + self.control_interval_s, "control", None)

    def _on_health(self, data, now: float) -> None:
        router = self.router
        for worker in range(router.workers):
            if router.alive[worker] and worker not in self._hung:
                router.heartbeat(worker, router.epochs[worker], now)
        for worker in router.check_health(now):
            self._crash_and_respawn(worker, now)
        if self._has_work():
            self._push(now + self.heartbeat_interval_s, "health", None)

    def _on_hang(self, worker, now: float) -> None:
        # The router is NOT told: a hung worker looks alive until its
        # heartbeats go silent past the timeout.
        if worker not in self.router.retired:
            self._hung.add(worker)


#: Event kind -> handler.  Row order is processing order at equal
#: timestamps: completions free workers before crashes, arrivals,
#: timers, control ticks (which observe a fully-settled instant), health
#: checks, and hangs look at the pool.
EVENT_TABLE: Tuple[Tuple[str, Callable], ...] = (
    ("completion", SimRunner._on_completion),
    ("crash", SimRunner._on_crash),
    ("arrival", SimRunner._on_arrival),
    ("timer", SimRunner._on_timer),
    ("control", SimRunner._on_control),
    ("health", SimRunner._on_health),
    ("hang", SimRunner._on_hang),
)
_RANK: Dict[str, int] = {
    kind: rank for rank, (kind, _) in enumerate(EVENT_TABLE)
}
