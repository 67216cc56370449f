"""Fault-domain policy objects for the serve cluster.

Everything here is a *pure policy*: deterministic state machines the
:class:`~repro.serve.cluster.RouterCore` consults when a worker fails,
with no clocks, threads, or randomness of their own — the PR 4
decision-core discipline.  Given the same inputs at the same ``now``
values, every object here makes the same choices, which is what lets a
chaos soak replay byte-identical decision logs.

* :class:`RetryPolicy` — exponential backoff with **deterministic
  seeded jitter** (a crc32 hash of ``(seed, key, attempt)``, not a live
  RNG) replacing the scheduler's original immediate requeue, plus the
  hedged re-execution knobs: a batch in flight past
  ``hedge_factor x`` its estimated service time is speculatively
  re-dispatched to a second worker; first valid completion wins and the
  loser is discarded by the existing epoch/busy staleness check.
* :class:`CircuitBreaker` — per ``(model, worker)`` closed / open /
  half-open states.  Enough consecutive failures open the pair (the
  router places that model elsewhere); after ``open_s`` one half-open
  probe is allowed, and its outcome decides closed vs. re-open.
* :class:`DeadLetterQueue` — the bounded terminal parking lot for
  queries that quarantine bisection isolated as poison.  Inspectable
  via ``repro serve`` stats and the ``repro dlq`` CLI.
* The degradation ladder — the ordered engine fallback chain
  ``megakernel -> tape -> plan -> eager`` walked when an engine
  raises, so a broken fast path degrades to a slower correct one
  instead of failing the batch;
  :func:`evaluate_batches_down_ladder` is the one walk, run by the
  worker's reduce function in a worker process and on the in-process
  pump thread alike.
* :class:`FaultPlan` — the one chaos matrix (crashes, hangs, slowed
  batches, corrupted ships and completions, lost and duplicated
  completions, poison queries).  The simulator's virtual transport
  injects all of it; :func:`chaos_worker_main`, the **test-only** shim
  around a real ``multiprocessing`` worker, injects what a pipe can
  carry, so the recovery paths are exercised end-to-end, not just in
  simulation.
"""

from __future__ import annotations

import math
import zlib
from collections import deque
from dataclasses import dataclass, replace
from typing import Deque, Dict, List, Optional, Tuple

from repro.errors import (
    ValidationError, require_at_least, require_int, require_real,
)
from repro.core.engines import ENGINES
from repro.serve.batched_runtime import evaluate_registered_batches
from repro.serve.simclock import MS

__all__ = [
    "RetryPolicy",
    "CircuitBreaker",
    "BREAKER_CLOSED",
    "BREAKER_OPEN",
    "BREAKER_HALF_OPEN",
    "DeadLetter",
    "DeadLetterQueue",
    "ENGINE_LADDER",
    "degrade_engine",
    "evaluate_batches_down_ladder",
    "FaultPlan",
    "chaos_worker_main",
]


# ---------------------------------------------------------------------------
# Retry / backoff / hedging policy
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class RetryPolicy:
    """Backoff and hedging knobs for crash recovery.

    ``backoff_s`` is a pure function of ``(seed, key, attempt)``: the
    jitter comes from a crc32 hash, never a live RNG, so two runs of the
    same fault timeline park and release retries at identical virtual
    times.  Hedging is off by default (``hedge_factor=0``): speculative
    re-execution changes which worker completes a batch, so engines only
    enable it when the workload opts in.
    """

    #: First retry delay; attempt ``n`` waits ``base * multiplier**(n-1)``.
    base_delay_ms: float = 25.0
    multiplier: float = 2.0
    max_delay_ms: float = 1000.0
    #: Jitter fraction in ``[0, 1)``: the deterministic hash shifts each
    #: delay by up to this fraction of itself.
    jitter: float = 0.25
    #: Seeds the jitter hash (vary per run to decorrelate retry storms).
    seed: int = 0
    #: A batch in flight past ``hedge_factor x`` its estimated service
    #: time is speculatively re-executed on a second worker (0 = never).
    hedge_factor: float = 0.0
    #: Floor on the hedge trigger, guarding against tiny/zero estimates.
    hedge_min_ms: float = 50.0

    def __post_init__(self) -> None:
        for name in ("base_delay_ms", "multiplier", "max_delay_ms",
                     "jitter", "hedge_factor", "hedge_min_ms"):
            require_real(name, getattr(self, name))
        if self.base_delay_ms < 0:
            raise ValidationError(
                f"base_delay_ms must be >= 0, got {self.base_delay_ms}"
            )
        if self.multiplier < 1.0:
            raise ValidationError(
                f"multiplier must be >= 1, got {self.multiplier}"
            )
        if self.max_delay_ms < self.base_delay_ms:
            raise ValidationError(
                f"max_delay_ms ({self.max_delay_ms}) must be >= "
                f"base_delay_ms ({self.base_delay_ms})"
            )
        if not 0.0 <= self.jitter < 1.0:
            raise ValidationError(
                f"jitter must be in [0, 1), got {self.jitter}"
            )
        if self.hedge_factor < 0:
            raise ValidationError(
                f"hedge_factor must be >= 0, got {self.hedge_factor}"
            )
        if self.hedge_min_ms < 0:
            raise ValidationError(
                f"hedge_min_ms must be >= 0, got {self.hedge_min_ms}"
            )

    @classmethod
    def immediate(cls) -> "RetryPolicy":
        """The pre-backoff behavior: requeue with zero delay."""
        return cls(base_delay_ms=0.0, max_delay_ms=0.0, jitter=0.0)

    def backoff_s(self, attempt: int, key: str = "") -> float:
        """Seconds to park before retry ``attempt`` (1-based) of ``key``."""
        if attempt < 1:
            raise ValidationError(f"attempt must be >= 1, got {attempt}")
        delay_ms = min(
            self.base_delay_ms * self.multiplier ** (attempt - 1),
            self.max_delay_ms,
        )
        if self.jitter > 0 and delay_ms > 0:
            digest = zlib.crc32(
                f"{self.seed}:{key}:{attempt}".encode()
            )
            fraction = (digest % 10_000) / 10_000.0
            delay_ms *= 1.0 + self.jitter * fraction
        return delay_ms * MS

    @property
    def hedging_enabled(self) -> bool:
        return self.hedge_factor > 0

    def hedge_after_s(self, estimate_s: float) -> float:
        """In-flight seconds after which a batch earns a hedge."""
        return max(
            self.hedge_min_ms * MS, self.hedge_factor * estimate_s
        )


# ---------------------------------------------------------------------------
# Circuit breakers
# ---------------------------------------------------------------------------

BREAKER_CLOSED = "closed"        #: normal: placement allowed
BREAKER_OPEN = "open"            #: tripped: placement refused
BREAKER_HALF_OPEN = "half_open"  #: probing: one trial placement allowed


class _BreakerState:
    __slots__ = ("state", "failures", "opened_at", "probe_taken")

    def __init__(self) -> None:
        self.state = BREAKER_CLOSED
        self.failures = 0
        self.opened_at = 0.0
        self.probe_taken = False


class CircuitBreaker:
    """Per-key closed/open/half-open breaker bank.

    Keys are ``(model, worker)`` pairs in the router, but the bank is
    key-agnostic.  ``failure_threshold`` consecutive failures open a
    key; after ``open_s`` the next :meth:`allow` moves it to half-open
    and admits exactly one probe, whose success/failure closes or
    re-opens it.  All transitions are returned to the caller so they
    can land in the decision log.
    """

    def __init__(self, failure_threshold: int = 3, open_s: float = 2.0):
        require_int("failure_threshold", failure_threshold)
        require_real("open_s", open_s)
        if failure_threshold < 1:
            raise ValidationError(
                f"failure_threshold must be >= 1, got {failure_threshold}"
            )
        if open_s <= 0:
            raise ValidationError(f"open_s must be > 0, got {open_s}")
        self.failure_threshold = failure_threshold
        self.open_s = open_s
        self._states: Dict[Tuple, _BreakerState] = {}

    def _state(self, key: Tuple) -> _BreakerState:
        state = self._states.get(key)
        if state is None:
            state = self._states[key] = _BreakerState()
        return state

    def state(self, key: Tuple) -> str:
        entry = self._states.get(key)
        return entry.state if entry is not None else BREAKER_CLOSED

    def allow(self, key: Tuple, now: float) -> Tuple[bool, Optional[str]]:
        """May the caller place on ``key`` right now?

        Returns ``(allowed, transition)`` where ``transition`` is
        ``"half_open"`` when this call moved an expired open breaker
        into its probe window (callers record it).
        """
        entry = self._states.get(key)
        if entry is None or entry.state == BREAKER_CLOSED:
            return True, None
        if entry.state == BREAKER_OPEN:
            if now - entry.opened_at >= self.open_s:
                entry.state = BREAKER_HALF_OPEN
                entry.probe_taken = True  # this caller takes the probe
                return True, BREAKER_HALF_OPEN
            return False, None
        # Half-open: exactly one in-flight probe at a time.
        if entry.probe_taken:
            return False, None
        entry.probe_taken = True
        return True, None

    def release_probe(self, key: Tuple) -> None:
        """Un-take a half-open probe that never actually placed.

        The router may clear :meth:`allow` but then find nothing to
        assign (the whole cut was cancelled); without this, the probe
        slot would stay consumed forever and the key could never heal.
        """
        entry = self._states.get(key)
        if entry is not None and entry.state == BREAKER_HALF_OPEN:
            entry.probe_taken = False

    def record_failure(self, key: Tuple, now: float) -> Optional[str]:
        """Count one failure; returns ``"open"`` when this one trips."""
        entry = self._state(key)
        if entry.state == BREAKER_HALF_OPEN:
            entry.state = BREAKER_OPEN
            entry.opened_at = now
            entry.failures = self.failure_threshold
            entry.probe_taken = False
            return BREAKER_OPEN
        entry.failures += 1
        if (
            entry.state == BREAKER_CLOSED
            and entry.failures >= self.failure_threshold
        ):
            entry.state = BREAKER_OPEN
            entry.opened_at = now
            entry.probe_taken = False
            return BREAKER_OPEN
        return None

    def record_success(self, key: Tuple, now: float) -> Optional[str]:
        """Count one success; returns ``"closed"`` when a probe heals."""
        entry = self._states.get(key)
        if entry is None:
            return None
        if entry.state == BREAKER_HALF_OPEN:
            entry.state = BREAKER_CLOSED
            entry.failures = 0
            entry.probe_taken = False
            return BREAKER_CLOSED
        entry.failures = 0
        return None

    def next_transition_time(self) -> Optional[float]:
        """Earliest moment any open breaker becomes probe-eligible."""
        times = [
            entry.opened_at + self.open_s
            for entry in self._states.values()
            if entry.state == BREAKER_OPEN
        ]
        return min(times) if times else None


# ---------------------------------------------------------------------------
# Dead-letter queue
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class DeadLetter:
    """One quarantined query's terminal record."""

    model: str
    tenant: str
    seq: int
    #: The batch whose repeated crashes started the bisection.
    origin_batch: int
    #: Worker crashes this query survived before isolation.
    attempts: int
    reason: str
    time: float

    def as_dict(self) -> Dict:
        return {
            "model": self.model,
            "tenant": self.tenant,
            "seq": self.seq,
            "origin_batch": self.origin_batch,
            "attempts": self.attempts,
            "reason": self.reason,
            "time": self.time,
        }


class DeadLetterQueue:
    """Bounded FIFO of :class:`DeadLetter` entries.

    Bounded because a pathological poison storm must not grow router
    memory without limit: the oldest entries age out and the drop is
    counted (``dropped``), never silent.
    """

    def __init__(self, limit: int = 64):
        require_int("dlq_limit", limit)
        if limit < 1:
            raise ValidationError(f"dlq limit must be >= 1, got {limit}")
        self.limit = limit
        self._entries: Deque[DeadLetter] = deque(maxlen=limit)
        self.dropped = 0
        self.total = 0

    def __len__(self) -> int:
        return len(self._entries)

    def append(self, entry: DeadLetter) -> None:
        if len(self._entries) == self.limit:
            self.dropped += 1
        self._entries.append(entry)
        self.total += 1

    def entries(self) -> List[DeadLetter]:
        return list(self._entries)

    def as_dicts(self) -> List[Dict]:
        return [entry.as_dict() for entry in self._entries]


# ---------------------------------------------------------------------------
# The degradation ladder
# ---------------------------------------------------------------------------

#: Fastest-first engine chain a worker walks when an engine raises.
ENGINE_LADDER = tuple(reversed(ENGINES))


def degrade_engine(engine: str) -> Optional[str]:
    """The next engine down the ladder, or None at the bottom."""
    if engine not in ENGINE_LADDER[:-1]:
        return None
    return ENGINE_LADDER[ENGINE_LADDER.index(engine) + 1]


def evaluate_batches_down_ladder(registered, batches,
                                 verify_oracle: bool = False,
                                 on_stage=None) -> List:
    """Evaluate batches on the registered engine, degrading on failure.

    The batches go through
    :func:`~repro.serve.batched_runtime.evaluate_registered_batches`
    together.  When an engine raises for one of them, that batch is
    retried one rung down :data:`ENGINE_LADDER` (fastest first) instead
    of failing — a broken fast path degrades to a slower correct one —
    beside whichever others failed with it; the rest are answered.
    Past the last rung the registered engine's own exception stands:
    it is the failure to diagnose, and the last rung's is chained to
    it as context.  Returns, per batch, ``(evaluation, degraded)`` —
    ``degraded`` is None, or ``(registered engine, engine that
    answered)`` for the router to audit
    (:meth:`~repro.serve.cluster.RouterCore.record_degrade`) — or that
    exception.
    """
    engine = first = registered.engine
    outcomes: List = [None] * len(batches)
    pending = list(range(len(batches)))
    while pending and engine is not None:
        evaluations = evaluate_registered_batches(
            registered, [batches[i] for i in pending], engine=engine,
            verify_oracle=verify_oracle, on_stage=on_stage,
        )
        failed = []
        for i, evaluation in zip(pending, evaluations):
            if not isinstance(evaluation, BaseException):
                outcomes[i] = (
                    evaluation, None if engine == first else (first, engine)
                )
                continue
            failed.append(i)
            if engine == first:
                outcomes[i] = evaluation
            else:
                outcomes[i].__context__ = evaluation
        pending = failed
        engine = degrade_engine(engine)
    return outcomes


# ---------------------------------------------------------------------------
# The chaos matrix, and its shim for real worker processes
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class FaultPlan:
    """The one chaos matrix: deterministic, never random.

    The simulator's :class:`~repro.serve.loadgen.VirtualTransport`
    injects every field; :func:`chaos_worker_main`, the shim around a
    real worker process, the ones a pipe can carry (ships, completions,
    poison).  A count ``every`` fires on the ``every``-th, ``2 *
    every``-th, ... event of its kind (0: never), counted over the run
    by the simulator and per process by the shim.
    """

    #: Virtual times at which a worker dies mid-whatever-it-is-doing:
    #: the k-th hits worker ``k % workers`` (the pool the run started
    #: with), unless retired by then.  It restarts at once under a new
    #: epoch; its in-flight batch parks behind the retry backoff.
    worker_crashes: Tuple[float, ...] = ()
    #: Every Nth dispatched batch takes ``slow_factor`` times its
    #: service time (stragglers, GC pauses), each one ``slow_ramp``
    #: slower than the last (a degrading worker).
    slow_every: int = 0
    slow_factor: float = 1.0
    slow_ramp: float = 0.0
    #: Virtual times at which a worker freezes *silently* (no EOF, no
    #: completions, no heartbeats: only liveness can catch it), aimed
    #: like ``worker_crashes``.
    worker_hangs: Tuple[float, ...] = ()
    #: Every Nth shipped model envelope arrives corrupted: the worker's
    #: fail-closed verify kills it at load time.
    corrupt_ship_every: int = 0
    #: Every Nth completion arrives truncated: the facade fails closed
    #: and kills its sender.
    corrupt_completion_every: int = 0
    #: Every Nth completion is lost in transit: only a hedge (see
    #: :class:`RetryPolicy`) resolves its batch, so the simulator
    #: refuses the field unless its policy hedges.  The shim of a real
    #: worker takes it as it is: without a hedge the batch keeps its
    #: worker busy, as far as the router can tell, for good.
    drop_completion_every: int = 0
    #: Every Nth completion arrives twice; the second drops as stale.
    duplicate_completion_every: int = 0
    #: Queries that kill the worker evaluating them, for quarantine
    #: bisection to isolate into the dead-letter queue: arrival indices
    #: in the simulator, feature vectors (tuples) on a real worker,
    #: which sees nothing else of a query.
    poison_queries: Tuple = ()

    def __post_init__(self) -> None:
        for name in ("slow_factor", "slow_ramp"):
            require_real(name, getattr(self, name))
        if self.slow_every and self.slow_factor < 1.0:
            raise ValidationError(
                f"slow_factor must be >= 1, got {self.slow_factor}"
            )
        if self.slow_ramp < 0:
            raise ValidationError(
                f"slow_ramp must be >= 0, got {self.slow_ramp}"
            )
        for name in (
            "slow_every", "corrupt_ship_every", "corrupt_completion_every",
            "drop_completion_every", "duplicate_completion_every",
        ):
            # n % -2 == 0 on every 2nd event: a negative count is a typo.
            require_at_least(name, getattr(self, name), 0)
        for query in self.poison_queries:
            for index in query if isinstance(query, tuple) else (query,):
                require_at_least("poison_queries", index, 0)
        for name in ("worker_crashes", "worker_hangs"):
            if not all(0 <= at < math.inf for at in getattr(self, name)):
                raise ValidationError(  # NaN is not 0 <= at either
                    f"{name} must be finite virtual times >= 0, got "
                    f"{getattr(self, name)}"
                )


def _every(count: int, every: int) -> bool:
    """Does the ``count``-th event fire a fault set to ``every``?"""
    return every > 0 and count % every == 0


class _ChaosConnection:
    """Duplex-pipe wrapper applying a :class:`FaultPlan` in a worker."""

    def __init__(self, conn, plan: FaultPlan):
        self._conn = conn
        self._plan = plan
        self._poison = set(plan.poison_queries)
        self._ships = 0
        self._results = 0

    def recv(self):
        import os

        message = self._conn.recv()
        tag = message[0]
        if tag == "load":
            self._ships += 1
            if _every(self._ships, self._plan.corrupt_ship_every):
                shipped = message[1]
                return (tag, replace(
                    shipped, fingerprint=shipped.fingerprint + ":corrupt"
                ))
        if tag == "eval" and self._poison and any(
            tuple(f) in self._poison for f in message[1].features
        ):
            os._exit(17)  # poison: die mid-batch, no goodbye
        return message

    def send(self, message) -> None:
        if message[0] != "result":
            self._conn.send(message)
            return
        plan = self._plan
        self._results = n = self._results + 1
        if _every(n, plan.drop_completion_every):
            return
        result = message[1]
        if _every(n, plan.corrupt_completion_every) and result.bitvectors:
            message = ("result", replace(
                result, bitvectors=result.bitvectors[:-1]
            ))
        self._conn.send(message)
        if _every(n, plan.duplicate_completion_every):
            self._conn.send(message)

    def close(self) -> None:
        self._conn.close()


def chaos_worker_main(plan: FaultPlan, conn, worker_id: int,
                      epoch: int) -> None:
    """A :func:`~repro.serve.worker.worker_main` with chaos injected.

    Picklable entry point for tests:
    ``functools.partial(chaos_worker_main, plan)`` plugs into
    :class:`~repro.serve.cluster.ClusterService`'s ``worker_entry``
    seam.  The worker logic is the production one — only the transport
    misbehaves.
    """
    from repro.serve.worker import worker_main

    worker_main(_ChaosConnection(conn, plan), worker_id, epoch)
