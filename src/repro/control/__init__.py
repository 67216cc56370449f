"""repro.control: the self-tuning control plane over live serve stats.

PR 4-7 built observability (scheduler stats, the metrics registry,
per-worker cluster accounting); this package closes the loop and *acts*
on it.  Split in the established pure-core style:

* :mod:`repro.control.signals` — :class:`ControlSnapshot`: one frozen,
  deterministic observation per tick, read exclusively from the shared
  metrics registry (the same source of truth ``repro metrics`` reads);
* :mod:`repro.control.policy` — :class:`AutoscalePolicy`, the one
  :class:`Policy`: SLO/backlog pressure in, typed :class:`ScaleWorkers`
  :class:`Proposal`\\ s out, with sustain-count hysteresis so decisions
  do not flap;
* :mod:`repro.control.guards` — :class:`GuardRail`: every proposal is
  verified against declared invariants (worker bounds, in-flight epoch
  safety, per-kind cooldowns) before actuation; rejections are
  recorded with reasons, never dropped — the rail fails closed;
* :mod:`repro.control.actuator` — :class:`Plant`: the one actuation
  seam over the serve facade
  (:class:`~repro.serve.service.CopseService`, on either transport,
  or the one the simulator steps): it grows and shrinks the worker
  pool;
* :mod:`repro.control.loop` — :class:`Controller`: the caller-clocked
  observe -> propose -> guard -> actuate cycle, emitting the ordered
  auditable decision log that is the determinism witness (byte-identical
  per seed against the discrete-event simulator).

Quickstart (simulated)::

    from repro.control import (
        AutoscalePolicy, Controller, GuardConfig, GuardRail, Plant,
    )
    from repro.serve import SimRunner

    runner = SimRunner(profiles, workers=2)
    controller = Controller(
        Plant(runner.service),
        [AutoscalePolicy(slo_p99_ms=250.0)],
        GuardRail(GuardConfig(workers_min=1, workers_max=6)),
    )
    runner.controller = controller
    report = runner.run(arrivals, faults)
    print(controller.decision_log)

``repro serve --autoscale`` wires the same controller over the real
service; ``bench_harness.experiments.autoscale_run`` builds the seeded
three-phase ramp that ``tests/control/test_autoscale_experiment.py``
replays.  See DESIGN.md ("Control plane") for the dataflow and the
determinism contract.
"""

from repro.control.signals import ControlSnapshot
from repro.control.policy import (
    AutoscalePolicy,
    Policy,
    Proposal,
    ScaleWorkers,
)
from repro.control.guards import GuardConfig, GuardRail
from repro.control.actuator import Plant
from repro.control.loop import Controller

__all__ = [
    "ControlSnapshot",
    "Proposal",
    "ScaleWorkers",
    "Policy",
    "AutoscalePolicy",
    "GuardConfig",
    "GuardRail",
    "Plant",
    "Controller",
]
