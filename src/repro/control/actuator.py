"""The plant: the actuation seam the controller drives.

A *plant* is whatever the controller observes and actuates — the
protocol is two methods:

* ``observe(now) -> ControlSnapshot`` — refresh the shared metrics
  registry (``stats()`` writes the point-in-time gauges) and capture it;
* ``apply(proposal, now)`` — perform one guard-approved actuation, or
  raise :class:`~repro.errors.ValidationError` if the mechanism itself
  refuses (the controller records that as a failed apply — the guards
  *and* the mechanism both fail closed).

One :class:`Plant` covers the serve stack, because its targets — the
live facade (:class:`~repro.serve.service.CopseService`, in-thread or,
as :class:`~repro.serve.cluster.ClusterService`, over worker processes)
and the discrete-event :class:`~repro.serve.loadgen.SimRunner` — share
one actuation surface: ``stats()``, ``metrics``, ``add_worker()``,
``remove_worker()`` (retire the *highest-id* idle worker — a
deterministic choice that also keeps low worker ids, the crc32 placement
anchors, stable), ``set_tenant_weight``, ``set_admission_limit`` and,
where the target has engines or backends to switch,
``set_model_engine`` / ``set_model_backend`` (the facade drains, changes
the registry entry and re-ships it to every worker).  A target without
the method a proposal needs cannot apply it: the simulator's service
times are fixed model profiles with nothing to switch.
"""

from __future__ import annotations

from typing import Dict, Tuple

from repro.errors import ValidationError
from repro.control.policy import (
    AdjustTenantWeight,
    Proposal,
    ScaleWorkers,
    SetAdmissionLimit,
    SwitchBackend,
    SwitchEngine,
)
from repro.control.signals import ControlSnapshot

__all__ = ["Plant"]

#: Proposal kind -> (target method, the proposal fields it is called
#: with, in order).  :class:`ScaleWorkers` is the one kind not here: its
#: method depends on the delta's sign and runs once per worker.
ACTUATIONS: Dict[str, Tuple[str, Tuple[str, ...]]] = {
    AdjustTenantWeight.kind: ("set_tenant_weight", ("queue", "weight")),
    SetAdmissionLimit.kind: ("set_admission_limit", ("queue", "limit")),
    SwitchEngine.kind: (
        "set_model_engine", ("model", "engine", "expected_fingerprint"),
    ),
    SwitchBackend.kind: (
        "set_model_backend", ("model", "backend", "expected_fingerprint"),
    ),
}


class Plant:
    """Observe and actuate one serve target (service, cluster or sim)."""

    def __init__(self, target):
        self.target = target

    def observe(self, now: float) -> ControlSnapshot:
        self.target.stats()  # refresh point-in-time gauges
        return ControlSnapshot.capture(self.target.metrics, now)

    def apply(self, proposal: Proposal, now: float) -> None:
        if proposal.kind == ScaleWorkers.kind:
            name = "add_worker" if proposal.delta > 0 else "remove_worker"
            calls = [()] * abs(proposal.delta)
        else:
            name, fields = ACTUATIONS.get(proposal.kind, ("", ()))
            calls = [tuple(getattr(proposal, f) for f in fields)]
        method = getattr(self.target, name, None)
        if method is None:
            raise ValidationError(
                f"{type(self.target).__name__} cannot apply "
                f"{proposal.kind!r} proposals"
            )
        for args in calls:
            method(*args)
