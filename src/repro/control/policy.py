"""Control policies: pure snapshot -> typed-proposal functions.

A policy never actuates anything.  It looks at one
:class:`~repro.control.signals.ControlSnapshot` (plus its own bounded
hysteresis state) and emits zero or more typed :class:`Proposal`s; the
guard rail (:mod:`repro.control.guards`) decides whether each one may be
applied, and the plant (:mod:`repro.control.actuator`) applies it.  That
split keeps policies free to be aggressive — a proposal is a *request*,
and everything unsafe about it is someone else's veto.

Determinism contract: ``propose`` must be a pure function of the
snapshot sequence it has seen (no clocks, no randomness, no ambient
reads), so the decision log replays byte-identically per seed.
:class:`AutoscalePolicy`, the one built-in policy, carries only sustain
counters and the previous snapshot's miss count as state.

Hysteresis shows up twice, on purpose: policies require a condition to
*sustain* for N consecutive ticks before proposing (so one noisy sample
cannot flap the pool), and the guards enforce a per-kind cooldown after
every actuation (so even a sustained condition actuates at a bounded
rate).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

from repro.errors import ValidationError
from repro.control.signals import ControlSnapshot

__all__ = [
    "Proposal",
    "ScaleWorkers",
    "Policy",
    "AutoscalePolicy",
]


# ---------------------------------------------------------------------------
# Typed proposals
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Proposal:
    """Base proposal: a typed, auditable request for one actuation."""

    reason: str

    #: Stable kind tag; keys the guards' cooldown ledger and the
    #: decision log.
    kind = "proposal"

    def log_fields(self) -> Tuple:
        """The deterministic fields recorded in the decision log."""
        return (self.kind,)


@dataclass(frozen=True)
class ScaleWorkers(Proposal):
    """Grow (+delta) or shrink (-delta) the worker pool."""

    delta: int = 0
    kind = "scale_workers"

    def log_fields(self) -> Tuple:
        return (self.kind, self.delta)


# ---------------------------------------------------------------------------
# Policies
# ---------------------------------------------------------------------------

class Policy:
    """Base policy: override :meth:`propose`."""

    #: Stable name recorded with every proposal in the decision log.
    name = "policy"

    def propose(self, snapshot: ControlSnapshot) -> List[Proposal]:
        raise NotImplementedError


class AutoscalePolicy(Policy):
    """SLO/backlog-driven worker scaling with sustain hysteresis.

    Scale-up pressure: p99 latency above the SLO *while deadline misses
    are still accruing* (the latency histogram is cumulative, so the
    windowed miss counter is what distinguishes live overload from the
    historical tail a past burst left behind), or backlog per live
    worker at/above ``backlog_high``.  Scale-down pressure: backlog per
    worker at/below ``backlog_low`` **and** no new deadline misses this
    window **and** at least one idle worker.  Either condition must
    hold for ``sustain_up`` / ``sustain_down`` *consecutive* ticks
    before a proposal is emitted, and the counter resets after
    proposing — one noisy tick can neither flap the pool nor
    double-fire.  With no per-query deadlines in the workload the SLO
    gate never fires and the policy is backlog-driven.
    """

    name = "autoscale"

    def __init__(
        self,
        slo_p99_ms: Optional[float] = None,
        backlog_high: float = 4.0,
        backlog_low: float = 0.5,
        sustain_up: int = 2,
        sustain_down: int = 4,
        step: int = 1,
    ):
        if slo_p99_ms is not None and slo_p99_ms <= 0:
            raise ValidationError("slo_p99_ms must be > 0")
        if backlog_low >= backlog_high:
            raise ValidationError(
                f"backlog_low ({backlog_low}) must be < backlog_high "
                f"({backlog_high})"
            )
        if sustain_up < 1 or sustain_down < 1:
            raise ValidationError("sustain counts must be >= 1")
        if step < 1:
            raise ValidationError("step must be >= 1")
        self.slo_p99_ms = slo_p99_ms
        self.backlog_high = backlog_high
        self.backlog_low = backlog_low
        self.sustain_up = sustain_up
        self.sustain_down = sustain_down
        self.step = step
        self._up = 0
        self._down = 0
        self._last_misses: Optional[int] = None

    def propose(self, s: ControlSnapshot) -> List[Proposal]:
        prev_misses = self._last_misses
        self._last_misses = s.deadline_misses
        # Misses accrued since the previous tick: the windowed signal.
        # The first tick has no window and reads as healthy.
        new_misses = (
            0 if prev_misses is None
            else max(0, s.deadline_misses - prev_misses)
        )
        backlog = s.backlog_per_worker
        slo_miss = (
            self.slo_p99_ms is not None
            and s.latency_p99_ms > self.slo_p99_ms
            and new_misses > 0
        )
        over = slo_miss or backlog >= self.backlog_high
        under = (
            backlog <= self.backlog_low
            and s.free_workers > 0
            and new_misses == 0
        )
        if over:
            self._up += 1
            self._down = 0
        elif under:
            self._down += 1
            self._up = 0
        else:
            self._up = 0
            self._down = 0

        if self._up >= self.sustain_up:
            self._up = 0
            why = (
                f"p99 {s.latency_p99_ms}ms > slo {self.slo_p99_ms}ms"
                if slo_miss else
                f"backlog/worker {round(backlog, 9)} >= "
                f"{self.backlog_high}"
            )
            return [ScaleWorkers(
                delta=self.step,
                reason=f"sustained overload x{self.sustain_up}: {why}",
            )]
        if self._down >= self.sustain_down:
            self._down = 0
            return [ScaleWorkers(
                delta=-self.step,
                reason=(
                    f"sustained underload x{self.sustain_down}: "
                    f"backlog/worker {round(backlog, 9)} <= "
                    f"{self.backlog_low}"
                ),
            )]
        return []

