"""Deterministic load generation + the discrete-event serve simulator.

The serve stack's interesting behaviors — deadline-forced cuts,
admission rejections, fair sharing under skew, crash backoff, quarantine
— only show up under sustained, bursty, multi-tenant load, which
wall-clock tests cannot exercise without flakiness.  This module replays
exactly that load under a :class:`~repro.serve.simclock.VirtualClock`:

* :func:`generate_arrivals` — a seeded open-loop arrival schedule:
  per-tenant Poisson processes (``rate_qps``) plus periodic bursts,
  merged into one deterministic timeline;
* :class:`VirtualTransport` — simulated workers behind the facade's
  :class:`~repro.serve.transport.Transport` seam: a batch takes its
  model's service time, taken from the cost model (the circuits are
  input-independent, so a batch's simulated cost is a constant of the
  model — no FHE evaluation is needed to know how long it takes), and
  the :class:`~repro.serve.faults.FaultPlan` chaos matrix (re-exported
  here) is injected on the way: crashes and hangs at fixed virtual
  times, slowed batches, corrupted ships and completions, lost and
  duplicated completions, poison queries.  It owns the one event heap;
  each event kind is one handler behind :data:`EVENT_TABLE`;
* :class:`SimRunner` — the one simulator: an arrival source over the
  *same* facade spine the live service runs
  (:class:`~repro.serve.service.CopseService` and its
  :class:`~repro.serve.cluster.RouterCore`), whose pump step it calls
  after every event instead of leaving it to a thread.

Everything is seeded and the virtual clock never sleeps, so a
10^5-query soak with mixed tenants, bursts, and mid-run worker crashes
replays in seconds of real time and makes *identical* routing decisions
(and byte-identical stats) on every run.
"""

from __future__ import annotations

import functools
import heapq
import itertools
import math
import zlib
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.errors import RejectedQuery, ValidationError, require_at_least
from repro.serve.batcher import BatchRecord
from repro.serve.cluster import DEFAULT_HEARTBEAT_TIMEOUT_S
from repro.serve.faults import CircuitBreaker, FaultPlan, RetryPolicy, _every
from repro.serve.scheduler import QueryFuture, SchedulerStats
from repro.serve.service import CopseService, ServiceStats
from repro.serve.simclock import MS, VirtualClock
from repro.serve.transport import (
    Completion,
    HedgeAction,
    Heartbeat,
    ShipAction,
    Transport,
    WorkerDied,
)

__all__ = [
    "ModelProfile",
    "TenantSpec",
    "FaultPlan",
    "Arrival",
    "generate_arrivals",
    "offered_load",
    "SimReport",
    "VirtualTransport",
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
        if not 0 < self.service_ms < math.inf:  # NaN is not > 0 either
            raise ValidationError(
                f"profile {self.name!r}: service_ms must be finite and "
                f"> 0, got {self.service_ms}"
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
        # Either would keep generate_arrivals from returning or time
        # its arrivals at NaN (which is not >= 0 either).
        if not 0 <= self.rate_qps < math.inf:
            raise ValidationError(
                f"tenant {self.name!r}: rate_qps must be finite and >= 0, "
                f"got {self.rate_qps}"
            )
        if self.deadline_ms is not None and not (
            0 < self.deadline_ms < math.inf
        ):
            raise ValidationError(
                f"tenant {self.name!r}: deadline_ms must be finite and "
                f"> 0, got {self.deadline_ms}"
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


def _sim_result(queue: str, index: int) -> int:
    # The simulated "bits": a pure function of (model, query), so a
    # faulted run must reproduce the fault-free values exactly or the
    # identity check fails.
    return zlib.crc32(f"{queue}:{index}".encode())


class VirtualTransport(Transport):
    """Simulated workers under a virtual clock, the fault plan injected.

    It owns the simulation's one event heap — batch outcomes, the plan's
    crashes, hangs and heartbeat rounds, the driver's arrivals, timers
    and control ticks — popped in time order, :data:`EVENT_TABLE` row
    order at equal times.  ``send`` schedules an assignment's outcome
    ``service_ms`` ahead (plus ``ship_ms`` after a fresh ship; slowed,
    or a crash instead, as the plan says); ``wait`` advances the clock
    to the next event and returns what it made happen, as the real
    transports do: :class:`Completion` (booking the simulated cost as
    ``inference_ms``), :class:`WorkerDied` or :class:`Heartbeat`.
    """

    def __init__(self, clock: VirtualClock, profiles: Dict[str, ModelProfile],
                 heartbeat_interval_s: float, ship_ms: float):
        if not heartbeat_interval_s > 0:  # NaN is not either
            raise ValidationError(
                f"heartbeat_interval_s must be > 0, got "
                f"{heartbeat_interval_s}"
            )
        if not ship_ms >= 0:
            raise ValidationError(f"ship_ms must be >= 0, got {ship_ms}")
        super().__init__(False, clock)
        self.heartbeat_interval_s = heartbeat_interval_s
        self.profiles = profiles
        self.ship_ms = ship_ms
        self.faults = FaultPlan()
        #: ``(time, EVENT_TABLE rank, push order, data)``, a heap.
        self.events: List[Tuple[float, int, int, object]] = []
        self._order = itertools.count()
        #: worker -> the epoch of its live incarnation.
        self._epochs: Dict[int, int] = {}
        #: Wake-up times with a timer event already queued.
        self._timers: set = set()
        self._hung: set = set()
        #: Batches whose completion was lost once already.
        self._dropped: set = set()
        #: Seqs of the poison queries admitted so far.
        self._poison: set = set()
        #: The event just popped is a heartbeat round.
        self._beat = False
        #: Fault counters: batches sent, slowed, shipped; completions.
        self._sent = self._slowed = self._ships = self._completions = 0
        #: query seq -> arrival index (the bit-identity key).
        self.index: Dict[int, int] = {}
        # -- what the run produced (see SimReport) ----------------------
        self.service_ms_total = 0.0
        self.capacity_total = 0
        self.packed_order: Dict[str, List[int]] = {}
        self.results: Dict[int, int] = {}
        self.last_completion_t = 0.0

    def push(self, time: float, kind: str, data: object = None) -> None:
        heapq.heappush(
            self.events, (time, _RANK[kind], next(self._order), data)
        )

    def inject(self, faults: FaultPlan, workers: int) -> None:
        """Schedule ``faults``: the k-th crash or hang hits worker
        ``k % workers``; heartbeat rounds run only to catch a hang."""
        self.faults = faults
        for k, at in enumerate(faults.worker_crashes):
            self.push(at, "crash", (k % workers, None))
        for k, at in enumerate(faults.worker_hangs):
            self.push(at, "hang", k % workers)
        if faults.worker_hangs:
            self.push(self.heartbeat_interval_s, "health")

    def admit(self, seq: int, index: int) -> None:
        self.index[seq] = index
        if index in self.faults.poison_queries:
            self._poison.add(seq)

    def stepped(self, wake_at: Optional[float], busy: bool) -> None:
        """The facade has stepped: arm the timer of its next wake-up
        and, after a heartbeat round, the next round while ``busy``."""
        now = self.clock.now()
        if self._beat and busy:
            self.push(now + self.heartbeat_interval_s, "health")
        self._beat = False
        if wake_at is not None and wake_at > now:
            key = round(wake_at, 9)
            if key not in self._timers:
                self._timers.add(key)
                self.push(wake_at, "timer")

    def start_worker(self, worker: int, epoch: int) -> None:
        self._epochs[worker] = epoch

    def stop_worker(self, worker: int, graceful: bool = False) -> None:
        self._epochs.pop(worker, None)
        self._hung.discard(worker)

    def heartbeat_round(self, now: float) -> bool:
        return self._beat

    def send(self, action) -> None:
        if isinstance(action, ShipAction):
            return  # charged to the batch it precedes (newly_shipped)
        faults, now = self.faults, self.clock.now()
        assignment, epoch = action.assignment, action.epoch
        hedge = isinstance(action, HedgeAction)
        worker = action.worker if hedge else assignment.worker
        profile = self.profiles[assignment.queue]
        service_ms = profile.service_ms
        self._sent += 1
        if _every(self._sent, faults.slow_every):
            # Optionally ramp: each hit is slower than the last.
            service_ms *= faults.slow_factor + faults.slow_ramp * self._slowed
            self._slowed += 1
        corrupted = False
        if action.newly_shipped:
            service_ms += self.ship_ms
            self._ships += 1
            corrupted = _every(self._ships, faults.corrupt_ship_every)
        self.service_ms_total += service_ms
        if not hedge:
            self.capacity_total += profile.capacity
            for run in assignment.runs():
                self.packed_order.setdefault(run.tenant, []).extend(
                    run.seqs()
                )
        if corrupted:  # the worker's fail-closed verify kills it at load
            self.push(now + service_ms * MS, "crash", (worker, epoch))
        elif self._poison and any(
            seq in self._poison
            for run in assignment.runs() for seq in run.seqs()
        ):  # poison: the worker dies mid-batch, no completion
            self.push(now + 0.5 * service_ms * MS, "crash", (worker, epoch))
        else:
            self._completions = n = self._completions + 1
            self.push(now + service_ms * MS, "completion", (
                assignment, epoch, worker, service_ms,
                _every(n, faults.corrupt_completion_every),
                _every(n, faults.drop_completion_every),
                _every(n, faults.duplicate_completion_every),
            ))

    def wait(self, timeout: Optional[float] = None) -> List[object]:
        """Advance to the next event; what it made happen."""
        time, rank, _, data = heapq.heappop(self.events)
        return EVENT_TABLE[rank][1](self, data, self.clock.advance_to(time))

    # -- event handlers (one per row of EVENT_TABLE) ---------------------

    def _deliver(self, data, now: float) -> List[object]:
        assignment, epoch, worker, service_ms, corrupt, drop, dup = data
        if worker in self._hung and self._epochs.get(worker) == epoch:
            return []  # frozen mid-batch: the result never arrives
        if drop and assignment.batch_id not in self._dropped:
            # Lost, at most once per batch: a hedge replica's can land.
            self._dropped.add(assignment.batch_id)
            return []
        if corrupt:  # a truncated envelope: the facade kills the sender
            return [WorkerDied(worker, epoch)]
        capacity = self.profiles[assignment.queue].capacity
        share = service_ms / len(assignment.fills)
        completion = Completion(assignment, worker, epoch, [
            BatchRecord(assignment.queue, assignment.batch_id + k, fill,
                        capacity, {}, {}, share, 0.0, None)
            for k, fill in enumerate(assignment.fills)
        ], functools.partial(self._answer, assignment, now))
        # A duplicate arrives on the heels of the first: it drops stale.
        return [completion, completion] if dup else [completion]

    def _answer(self, assignment, now: float) -> None:
        self.last_completion_t = now
        for run in assignment.runs():
            for seq in run.seqs():
                index = self.index.get(seq)
                if index is not None:
                    self.results[index] = _sim_result(assignment.queue,
                                                      index)

    def _kill(self, data, now: float) -> List[object]:
        # The plan's crashes hit the live incarnation (a retired worker
        # has none); a fault's is epoch-guarded by the facade, so a
        # respawned worker does not die for its predecessor's poison.
        worker, epoch = data
        epoch = self._epochs.get(worker) if epoch is None else epoch
        return [] if epoch is None else [WorkerDied(worker, epoch)]

    def _call(self, call, now: float) -> List[object]:
        # The driver's events.  A timer carries nothing: popping it
        # (advancing the clock) is what makes due cuts, parks and hedges
        # visible to the step that follows every event.
        if call is not None:
            call(now)
        return []

    def _ping(self, data, now: float) -> List[object]:
        self._beat = True
        return [Heartbeat(worker, epoch)
                for worker, epoch in self._epochs.items()
                if worker not in self._hung]

    def _freeze(self, worker, now: float) -> List[object]:
        # Nobody is told: a hung worker looks alive until its
        # heartbeats go silent past the timeout.
        if worker in self._epochs:
            self._hung.add(worker)
        return []


#: Event kind -> handler.  Row order is processing order at equal
#: timestamps: completions free workers before crashes, arrivals,
#: timers, control ticks (which observe a fully-settled instant), health
#: checks, and hangs look at the pool.
EVENT_TABLE: Tuple[Tuple[str, Callable], ...] = (
    ("completion", VirtualTransport._deliver),
    ("crash", VirtualTransport._kill),
    ("arrival", VirtualTransport._call),
    ("timer", VirtualTransport._call),
    ("control", VirtualTransport._call),
    ("health", VirtualTransport._ping),
    ("hang", VirtualTransport._freeze),
)
_RANK: Dict[str, int] = {
    kind: rank for rank, (kind, _) in enumerate(EVENT_TABLE)
}


class SimRunner:
    """Discrete-event execution of the serve facade: an arrival source.

    One instance runs one simulation (the router's counters are
    cumulative).  :attr:`service` is the live spine — a
    :class:`~repro.serve.service.CopseService` over a
    :class:`VirtualTransport`, with no pump thread: ``run`` submits each
    arrival at its virtual time, ticks the ``controller`` every
    ``control_interval_s`` while there is work, and steps the facade's
    pump after every event, so crashes take the facade's crash ->
    restart path and every routing decision lands in the report's
    decision log.  ``ship_ms`` charges a simulated one-time shipping
    latency to the first batch a (worker, epoch) runs per model.  The
    control plane's target (:class:`~repro.control.actuator.Plant`) is
    :attr:`service`, acting at the virtual clock's current instant.
    """

    def __init__(
        self,
        profiles: Sequence[ModelProfile],
        workers: int = 2,
        max_retries: int = 1,
        tracer=None,
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
        if controller is not None and not control_interval_s > 0:
            raise ValidationError(
                f"control_interval_s must be > 0, got {control_interval_s}"
            )
        #: The pool size the run starts with.
        self.workers = workers
        self.clock = VirtualClock()
        #: Timestamped by the virtual clock: a traced run exports
        #: byte-identical traces per seed.
        self.tracer = tracer
        self.controller = controller
        self.control_interval_s = control_interval_s
        self.transport = VirtualTransport(
            self.clock, {p.name: p for p in profiles},
            heartbeat_interval_s, ship_ms,
        )
        self.service = CopseService.__new__(CopseService)
        self.service._open(
            self.transport, workers, clock=self.clock, tracer=tracer,
            max_retries=max_retries,
            heartbeat_timeout_s=heartbeat_timeout_s,
            retry_policy=retry_policy, breaker=breaker, dlq_limit=dlq_limit,
        )
        self.router = self.service.router
        for p in profiles:
            self.router.add_model(p.name, capacity=p.capacity,
                                  weight=p.weight, max_pending=p.max_pending,
                                  service_ms=p.service_ms)
        self._used = False
        self._arrivals_left = 0

    def run(self, arrivals: Sequence[Arrival],
            faults: FaultPlan = FaultPlan()) -> SimReport:
        if self._used:
            raise ValidationError(
                "a SimRunner runs once; build a fresh one per run"
            )
        policy = self.router.retry_policy
        if faults.drop_completion_every and not policy.hedging_enabled:
            # Nothing else resolves a lost completion: its worker would
            # stay busy for good and the run would not end, or would
            # end with its queries outstanding.
            raise ValidationError(
                f"FaultPlan.drop_completion_every="
                f"{faults.drop_completion_every} needs hedging, and the "
                f"RetryPolicy's hedge_factor is {policy.hedge_factor}: "
                f"only a hedge resolves a batch whose completion is lost"
            )
        self._used = True
        transport, router = self.transport, self.router
        transport.inject(faults, self.workers)
        for index, arrival in enumerate(arrivals):
            transport.push(arrival.time, "arrival",
                           functools.partial(self._arrive, index, arrival))
        if self.controller is not None:
            transport.push(self.control_interval_s, "control", self._control)
        self._arrivals_left = len(arrivals)
        flushed = False
        while transport.events or router.outstanding:
            stalled = not transport.events
            if stalled:
                # Only partial batches remain and nothing will ever cut
                # them: the end-of-run flush (mirrors service.flush()).
                router.flush()
                waited = []
            else:
                waited = transport.wait()
                if self._arrivals_left == 0 and not flushed:
                    router.flush()
                    flushed = True
            transport.stepped(self.service._pump_once(waited),
                              self._has_work())
            if stalled and not transport.events:
                break  # every remaining future is terminal
        first_t = arrivals[0].time if arrivals else 0.0
        return SimReport(
            stats=router.stats(),
            decisions=list(router.decisions),
            duration_s=max(0.0, transport.last_completion_t - first_t),
            service_ms_total=transport.service_ms_total,
            capacity_total=transport.capacity_total,
            threads=self.workers,
            packed_order=transport.packed_order,
            results=transport.results,
            dead_letters=[
                dict(entry.as_dict(), value=transport.index.get(entry.seq))
                for entry in router.dlq.entries()
            ],
        )

    def _has_work(self) -> bool:
        # Periodic events re-arm only while the run still has work: an
        # idle control or health loop must not keep the simulation alive.
        return self._arrivals_left > 0 or self.router.outstanding > 0

    def _arrive(self, index: int, arrival: Arrival, now: float) -> None:
        self._arrivals_left -= 1
        deadline = (
            None if arrival.deadline_ms is None
            else now + arrival.deadline_ms * MS
        )
        try:
            run = self.router.submit(
                arrival.model, _SimQuery(), now, tenant=arrival.tenant,
                deadline=deadline, priority=arrival.priority,
            )
        except RejectedQuery:
            return  # counted by the core; open-loop load sheds
        self.transport.admit(run.seq, index)

    def _control(self, now: float) -> None:
        self.controller.tick(now)
        if self._has_work():
            self.transport.push(now + self.control_interval_s, "control",
                                self._control)
