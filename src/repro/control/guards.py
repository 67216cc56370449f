"""Guard rail: every proposal is verified against declared invariants.

Nothing the policies propose reaches the plant without passing this
layer, and the layer **fails closed**: a proposal the rail does not
recognize, a scale-down past the idle head-room — all rejected with a
recorded reason, never silently dropped.  The controller writes a
``guard ... rejected:reason`` record for each veto, so an audit of the
decision log always explains why an actuation did or did not happen.

Invariants enforced here (the declared contract, see DESIGN.md):

* worker count stays inside ``[workers_min, workers_max]``;
* a scale-down never exceeds the currently *idle* workers — in-flight
  epoch safety: a busy worker is never torn down under a running batch;
* at most one actuation per proposal kind per ``cooldown_s`` window.

The rail's only mutable state is the per-kind last-applied ledger that
implements the cooldown; everything else is a pure function of (config,
proposal, snapshot), so guard verdicts replay deterministically.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional

from repro.errors import ValidationError
from repro.control.policy import Proposal, ScaleWorkers
from repro.control.signals import ControlSnapshot

__all__ = ["GuardConfig", "GuardRail"]


@dataclass(frozen=True)
class GuardConfig:
    """The declared invariants one :class:`GuardRail` enforces."""

    workers_min: int = 1
    workers_max: int = 8
    #: Seconds between actuations of the same proposal kind.
    cooldown_s: float = 5.0

    def __post_init__(self) -> None:
        if self.workers_min < 1:
            raise ValidationError("workers_min must be >= 1")
        if self.workers_max < self.workers_min:
            raise ValidationError(
                f"workers_max ({self.workers_max}) must be >= "
                f"workers_min ({self.workers_min})"
            )
        if self.cooldown_s < 0:
            raise ValidationError("cooldown_s must be >= 0")


class GuardRail:
    """Stateful verifier: :meth:`check` vets, :meth:`record_applied` arms
    the cooldown.

    The controller calls ``check`` for every proposal and
    ``record_applied`` only after the plant actually applied it, so a
    rejected or failed actuation never consumes the cooldown window.
    """

    def __init__(self, config: Optional[GuardConfig] = None):
        self.config = config if config is not None else GuardConfig()
        #: proposal kind -> time of last *applied* actuation.
        self._last_applied: Dict[str, float] = {}

    # -- verdicts ------------------------------------------------------

    def check(self, proposal: Proposal, snapshot: ControlSnapshot,
              now: float) -> Optional[str]:
        """Vet one proposal; returns None to pass, else the rejection
        reason (recorded, never silently dropped)."""
        cfg = self.config
        last = self._last_applied.get(proposal.kind)
        if last is not None and now - last < cfg.cooldown_s:
            return (
                f"cooldown: {proposal.kind} applied at t={last}, "
                f"{cfg.cooldown_s}s window"
            )
        if isinstance(proposal, ScaleWorkers):
            return self._check_scale(proposal, snapshot)
        return f"unknown proposal kind {proposal.kind!r}"  # fail closed

    def record_applied(self, proposal: Proposal, now: float) -> None:
        self._last_applied[proposal.kind] = now

    # -- per-kind invariants -------------------------------------------

    def _check_scale(self, p: ScaleWorkers,
                     s: ControlSnapshot) -> Optional[str]:
        cfg = self.config
        if p.delta == 0:
            return "scale delta is zero"
        target = s.live_workers + p.delta
        if target < cfg.workers_min:
            return (
                f"target {target} below workers_min {cfg.workers_min}"
            )
        if target > cfg.workers_max:
            return (
                f"target {target} above workers_max {cfg.workers_max}"
            )
        if p.delta < 0 and -p.delta > s.free_workers:
            return (
                f"scale-down of {-p.delta} exceeds {s.free_workers} "
                f"idle workers (in-flight epoch safety)"
            )
        return None
