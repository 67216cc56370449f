"""Guard rail: every proposal is verified against declared invariants.

Nothing the policies propose reaches the plant without passing this
layer, and the layer **fails closed**: a proposal the rail does not
recognize, a switch whose fingerprint it cannot vouch for, a scale-down
past the idle head-room — all rejected with a recorded reason, never
silently dropped.  The controller writes a ``guard ... rejected:reason``
record for each veto, so an audit of the decision log always explains
why an actuation did or did not happen.

Invariants enforced here (the declared contract, see DESIGN.md):

* worker count stays inside ``[workers_min, workers_max]``;
* a scale-down never exceeds the currently *idle* workers — in-flight
  epoch safety: a busy worker is never torn down under a running batch;
* weight changes are bounded per step (``max_weight_step`` ratio) and
  in absolute range ``[weight_min, weight_max]``;
* admission limits stay inside ``[admission_min, admission_max]``;
* engine/backend switches only when the proposal's fingerprint matches
  the one declared in the guard config for that model (a switch for an
  undeclared model is rejected — fail closed);
* at most one actuation per proposal kind per ``cooldown_s`` window.

The rail's only mutable state is the per-kind last-applied ledger that
implements the cooldown; everything else is a pure function of (config,
proposal, snapshot), so guard verdicts replay deterministically.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Mapping, Optional

from repro.errors import ValidationError
from repro.core.engines import ENGINES as _ENGINES
from repro.control.policy import (
    AdjustTenantWeight,
    Proposal,
    ScaleWorkers,
    SetAdmissionLimit,
    SwitchBackend,
    SwitchEngine,
)
from repro.control.signals import ControlSnapshot

__all__ = ["GuardConfig", "GuardRail"]


@dataclass(frozen=True)
class GuardConfig:
    """The declared invariants one :class:`GuardRail` enforces."""

    workers_min: int = 1
    workers_max: int = 8
    weight_min: float = 0.125
    weight_max: float = 16.0
    #: Max multiplicative change per weight actuation (>= 1).
    max_weight_step: float = 4.0
    admission_min: int = 1
    admission_max: Optional[int] = None
    #: Seconds between actuations of the same proposal kind.
    cooldown_s: float = 5.0
    #: model -> compiled fingerprint engine/backend switches must match.
    #: A switch for a model absent here is rejected (fail closed).
    fingerprints: Mapping[str, str] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.workers_min < 1:
            raise ValidationError("workers_min must be >= 1")
        if self.workers_max < self.workers_min:
            raise ValidationError(
                f"workers_max ({self.workers_max}) must be >= "
                f"workers_min ({self.workers_min})"
            )
        if self.weight_min <= 0 or self.weight_max < self.weight_min:
            raise ValidationError(
                "need 0 < weight_min <= weight_max"
            )
        if self.max_weight_step < 1.0:
            raise ValidationError("max_weight_step must be >= 1")
        if self.admission_min < 1:
            raise ValidationError("admission_min must be >= 1")
        if (
            self.admission_max is not None
            and self.admission_max < self.admission_min
        ):
            raise ValidationError(
                "admission_max must be >= admission_min"
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
        if isinstance(proposal, AdjustTenantWeight):
            return self._check_weight(proposal, snapshot)
        if isinstance(proposal, SetAdmissionLimit):
            return self._check_admission(proposal)
        if isinstance(proposal, SwitchEngine):
            return self._check_switch(
                proposal.model, proposal.expected_fingerprint,
                what=f"engine {proposal.engine!r}",
                valid=proposal.engine in _ENGINES,
            )
        if isinstance(proposal, SwitchBackend):
            return self._check_switch(
                proposal.model, proposal.expected_fingerprint,
                what=f"backend {proposal.backend!r}",
                valid=bool(proposal.backend),
            )
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

    def _check_weight(self, p: AdjustTenantWeight,
                      s: ControlSnapshot) -> Optional[str]:
        cfg = self.config
        q = s.queue(p.queue)
        if q is None:
            return f"unknown queue {p.queue!r}"
        if p.weight < cfg.weight_min or p.weight > cfg.weight_max:
            return (
                f"weight {p.weight} outside "
                f"[{cfg.weight_min}, {cfg.weight_max}]"
            )
        if q.weight > 0:
            ratio = max(p.weight / q.weight, q.weight / p.weight)
            if ratio > cfg.max_weight_step:
                return (
                    f"weight change {q.weight} -> {p.weight} exceeds "
                    f"max step ratio {cfg.max_weight_step}"
                )
        return None

    def _check_admission(self, p: SetAdmissionLimit) -> Optional[str]:
        cfg = self.config
        if p.limit is None:
            return (
                "removing the admission bound is not guardable; "
                "propose a finite limit"
            )
        if p.limit < cfg.admission_min:
            return (
                f"limit {p.limit} below admission_min "
                f"{cfg.admission_min}"
            )
        if cfg.admission_max is not None and p.limit > cfg.admission_max:
            return (
                f"limit {p.limit} above admission_max "
                f"{cfg.admission_max}"
            )
        return None

    def _check_switch(self, model: str, fingerprint: Optional[str],
                      what: str, valid: bool) -> Optional[str]:
        if not valid:
            return f"invalid switch target {what}"
        declared = self.config.fingerprints.get(model)
        if declared is None:
            return (
                f"no declared fingerprint for model {model!r}; "
                f"switches are fail-closed"
            )
        if fingerprint != declared:
            return (
                f"fingerprint {fingerprint} does not match declared "
                f"{declared} for model {model!r}"
            )
        return None
