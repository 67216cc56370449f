"""The plant: the actuation seam the controller drives.

A *plant* is whatever the controller observes and actuates — the
protocol is two methods:

* ``observe(now) -> ControlSnapshot`` — refresh the shared metrics
  registry (``stats()`` writes the point-in-time gauges) and capture it;
* ``apply(proposal, now)`` — perform one guard-approved actuation, or
  raise :class:`~repro.errors.ValidationError` if the mechanism itself
  refuses (the controller records that as a failed apply — the guards
  *and* the mechanism both fail closed).

One :class:`Plant` covers the serve stack, because it has one kind of
target: the facade (:class:`~repro.serve.service.CopseService`,
in-thread, as :class:`~repro.serve.cluster.ClusterService` over worker
processes, or as the ``service`` the discrete-event
:class:`~repro.serve.loadgen.SimRunner` steps over its virtual
transport), whose one actuation surface is ``stats()``, ``metrics``,
``add_worker()`` and ``remove_worker()`` (retire the *highest-id* idle
worker — a deterministic choice that also keeps low worker ids, the
crc32 placement anchors, stable).
:class:`~repro.control.policy.ScaleWorkers` is the one proposal kind it
applies: ``|delta|`` calls of one of the two.
"""

from __future__ import annotations

from repro.errors import ValidationError
from repro.control.policy import Proposal, ScaleWorkers
from repro.control.signals import ControlSnapshot

__all__ = ["Plant"]


class Plant:
    """Observe and actuate one serve target (service, cluster or sim)."""

    def __init__(self, target):
        self.target = target

    def observe(self, now: float) -> ControlSnapshot:
        self.target.stats()  # refresh point-in-time gauges
        return ControlSnapshot.capture(self.target.metrics, now)

    def apply(self, proposal: Proposal, now: float) -> None:
        if proposal.kind != ScaleWorkers.kind:
            raise ValidationError(
                f"{type(self.target).__name__} cannot apply "
                f"{proposal.kind!r} proposals"
            )
        name = "add_worker" if proposal.delta > 0 else "remove_worker"
        method = getattr(self.target, name)
        for _ in range(abs(proposal.delta)):
            method()
