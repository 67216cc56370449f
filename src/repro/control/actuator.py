"""Plants: the actuation seams the controller drives.

A *plant* is whatever the controller observes and actuates — the
protocol is two methods:

* ``observe(now) -> ControlSnapshot`` — refresh the shared metrics
  registry (``stats()`` writes the point-in-time gauges) and capture it;
* ``apply(proposal, now)`` — perform one guard-approved actuation, or
  raise :class:`~repro.errors.ValidationError` if the mechanism itself
  refuses (the controller records that as a failed apply — the guards
  *and* the mechanism both fail closed).

Four adapters cover the serve stack: the threaded
:class:`~repro.serve.service.CopseService` and multi-process
:class:`~repro.serve.cluster.ClusterService` for production, and the
two discrete-event simulators for deterministic soaks.  Scale-downs
always retire the *highest-id* idle worker — a deterministic choice
that also keeps low worker ids (the crc32 placement anchors) stable.
"""

from __future__ import annotations

from typing import List

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

__all__ = [
    "ServicePlant",
    "ClusterPlant",
    "SimPlant",
    "ClusterSimPlant",
]


def _unsupported(proposal: Proposal, plant: str) -> ValidationError:
    return ValidationError(
        f"{plant} cannot apply {proposal.kind!r} proposals"
    )


class ServicePlant:
    """Actuate a threaded :class:`~repro.serve.service.CopseService`."""

    def __init__(self, service):
        self.service = service

    def observe(self, now: float) -> ControlSnapshot:
        self.service.scheduler.stats()  # refresh point-in-time gauges
        return ControlSnapshot.capture(self.service.metrics, now)

    def apply(self, proposal: Proposal, now: float) -> None:
        svc = self.service
        if isinstance(proposal, ScaleWorkers):
            if proposal.delta > 0:
                for _ in range(proposal.delta):
                    svc.add_worker()
            else:
                for _ in range(-proposal.delta):
                    svc.remove_worker()
        elif isinstance(proposal, AdjustTenantWeight):
            svc.set_tenant_weight(proposal.queue, proposal.weight)
        elif isinstance(proposal, SetAdmissionLimit):
            svc.set_admission_limit(proposal.queue, proposal.limit)
        elif isinstance(proposal, SwitchEngine):
            svc.set_model_engine(
                proposal.model, proposal.engine,
                expected_fingerprint=proposal.expected_fingerprint,
            )
        elif isinstance(proposal, SwitchBackend):
            svc.set_model_backend(
                proposal.model, proposal.backend,
                expected_fingerprint=proposal.expected_fingerprint,
            )
        else:
            raise _unsupported(proposal, "ServicePlant")


class ClusterPlant:
    """Actuate a multi-process :class:`~repro.serve.cluster.ClusterService`."""

    def __init__(self, service):
        self.service = service

    def observe(self, now: float) -> ControlSnapshot:
        self.service.stats()  # refresh point-in-time gauges
        return ControlSnapshot.capture(
            self.service.router.metrics, now
        )

    def apply(self, proposal: Proposal, now: float) -> None:
        svc = self.service
        if isinstance(proposal, ScaleWorkers):
            if proposal.delta > 0:
                for _ in range(proposal.delta):
                    svc.add_worker()
            else:
                for _ in range(-proposal.delta):
                    idle = svc.router.idle_live_workers()
                    if not idle:
                        raise ValidationError(
                            "no idle worker to retire"
                        )
                    svc.retire_worker(idle[-1])
        elif isinstance(proposal, AdjustTenantWeight):
            svc.set_tenant_weight(proposal.queue, proposal.weight)
        elif isinstance(proposal, SetAdmissionLimit):
            svc.set_admission_limit(proposal.queue, proposal.limit)
        elif isinstance(proposal, SwitchEngine):
            svc.set_model_engine(
                proposal.model, proposal.engine,
                expected_fingerprint=proposal.expected_fingerprint,
            )
        else:
            # Backend switches re-encrypt the model; the cluster ships
            # compiled bundles and would need a coordinated re-ship +
            # re-key across every worker — not an autonomous actuation.
            raise _unsupported(proposal, "ClusterPlant")


class SimPlant:
    """Actuate the single-process :class:`~repro.serve.loadgen.SimRunner`."""

    def __init__(self, runner):
        self.runner = runner

    def observe(self, now: float) -> ControlSnapshot:
        self.runner.core.stats()  # refresh point-in-time gauges
        return ControlSnapshot.capture(self.runner.core.metrics, now)

    def apply(self, proposal: Proposal, now: float) -> None:
        runner = self.runner
        if isinstance(proposal, ScaleWorkers):
            if proposal.delta > 0:
                for _ in range(proposal.delta):
                    runner.add_worker()
            else:
                for _ in range(-proposal.delta):
                    idle: List[int] = runner.core.idle_workers()
                    if not idle:
                        raise ValidationError(
                            "no idle worker to retire"
                        )
                    runner.remove_worker(idle[-1])
        elif isinstance(proposal, AdjustTenantWeight):
            runner.core.set_weight(proposal.queue, proposal.weight)
        elif isinstance(proposal, SetAdmissionLimit):
            runner.core.set_max_pending(proposal.queue, proposal.limit)
        else:
            # The simulator has no real engines/backends to switch —
            # service times are fixed model profiles.
            raise _unsupported(proposal, "SimPlant")


class ClusterSimPlant:
    """Actuate the :class:`~repro.serve.cluster.ClusterSimRunner`."""

    def __init__(self, runner):
        self.runner = runner

    def observe(self, now: float) -> ControlSnapshot:
        self.runner.router.stats()  # refresh point-in-time gauges
        return ControlSnapshot.capture(
            self.runner.router.metrics, now
        )

    def apply(self, proposal: Proposal, now: float) -> None:
        runner = self.runner
        router = runner.router
        if isinstance(proposal, ScaleWorkers):
            if proposal.delta > 0:
                for _ in range(proposal.delta):
                    runner.add_worker(now)
            else:
                for _ in range(-proposal.delta):
                    idle = router.idle_live_workers()
                    if not idle:
                        raise ValidationError(
                            "no idle worker to retire"
                        )
                    runner.retire_worker(idle[-1], now)
        elif isinstance(proposal, AdjustTenantWeight):
            router.set_weight(proposal.queue, proposal.weight, now)
        elif isinstance(proposal, SetAdmissionLimit):
            router.set_admission_limit(proposal.queue, proposal.limit,
                                       now)
        else:
            raise _unsupported(proposal, "ClusterSimPlant")
