"""The controller closed over the discrete-event simulator.

The determinism witness of the whole control plane: same seed, same
policies, same guard config => byte-identical decision log (compared
via ``json.dumps``), with scheduling conservation intact and the audit
grammar — every ``applied`` preceded by its ``guard ... passed``, every
rejection carrying a reason — holding on every run.
"""

import json

import pytest

from repro.control import (
    AutoscalePolicy,
    Controller,
    GuardConfig,
    GuardRail,
    Plant,
    Policy,
    ScaleWorkers,
)
from repro.errors import ValidationError
from repro.serve import (
    FaultPlan,
    ModelProfile,
    SimRunner,
    TenantSpec,
    generate_arrivals,
)
from repro.serve.scheduler import QueryFuture
from repro.serve.transport import AssignAction


def profile(**kwargs):
    defaults = dict(name="m", capacity=4, service_ms=50.0,
                    max_pending=256)
    defaults.update(kwargs)
    return ModelProfile(**defaults)


def burst_arrivals(seed=11, queries=900):
    """Underload, then a burst that buries two workers."""
    tenants = [
        TenantSpec(name="steady", model="m", rate_qps=40.0,
                   deadline_ms=200.0),
        TenantSpec(name="bursty", model="m", burst_every_s=1.0,
                   burst_size=120, deadline_ms=200.0),
    ]
    return generate_arrivals(tenants, seed=seed, total_queries=queries)


def autoscaled_sim_run(seed=11):
    guards = GuardRail(GuardConfig(
        workers_min=1, workers_max=6, cooldown_s=0.2,
    ))
    policy = AutoscalePolicy(
        slo_p99_ms=200.0, backlog_high=8.0, backlog_low=0.5,
        sustain_up=2, sustain_down=3,
    )
    controller = Controller(None, [policy], guards)
    runner = SimRunner(
        [profile()], workers=2, controller=controller,
        control_interval_s=0.1,
    )
    controller.plant = Plant(runner.service)
    faults = FaultPlan(worker_crashes=(1.5,))
    report = runner.run(burst_arrivals(seed=seed), faults)
    return report, controller


class TestControllerConstruction:
    def test_needs_at_least_one_policy(self):
        with pytest.raises(ValidationError):
            Controller(None, [])

    def test_sim_runner_rejects_bad_interval(self):
        controller = Controller(
            None, [AutoscalePolicy()], GuardRail(),
        )
        for interval in (0.0, -1.0):
            with pytest.raises(ValidationError):
                SimRunner([profile()], workers=2, controller=controller,
                          control_interval_s=interval)


class TestDeterminism:
    def test_decision_log_byte_identical(self):
        first_report, first = autoscaled_sim_run()
        second_report, second = autoscaled_sim_run()
        assert json.dumps(first.decision_log) == json.dumps(
            second.decision_log
        )
        assert first_report.stats == second_report.stats
        # The run actually scaled: the burst forces at least one
        # guard-approved actuation.
        assert len(first.applied()) > 0

    def test_different_seeds_diverge(self):
        _, first = autoscaled_sim_run(seed=11)
        _, second = autoscaled_sim_run(seed=12)
        assert json.dumps(first.decision_log) != json.dumps(
            second.decision_log
        )

    def test_conservation_under_actuation(self):
        report, controller = autoscaled_sim_run()
        stats = report.stats
        assert stats.submitted == (
            stats.completed + stats.rejected + stats.failed
            + stats.cancelled + stats.dead_lettered
        )
        assert stats.completed > 0

    def test_audit_grammar(self, audit_grammar):
        _, controller = autoscaled_sim_run()
        audit_grammar(controller)
        assert controller.ticks > 0


class _Payload:
    """Minimal router payload (just the future the core resolves)."""

    def __init__(self):
        self.future = QueryFuture()


class _AlwaysScaleUp(Policy):
    name = "always_up"

    def propose(self, snapshot):
        return [ScaleWorkers(delta=1, reason="test")]


class TestApplyFailurePath:
    def test_mechanism_refusal_recorded_not_cooled_down(self, audit_grammar):
        """A guard-approved proposal the plant cannot apply becomes an
        ``apply_failed`` record and does NOT arm the cooldown: the next
        tick applies the same kind inside the window."""
        runner = SimRunner([profile()], workers=2)
        router = runner.router
        in_flight = []

        class ShrinkBehindABurst(Policy):
            """Scale down on a snapshot with idle workers, after a burst
            has taken both of them: the observation is stale by the time
            the plant acts."""

            name = "shrink"

            def propose(self, snapshot):
                if not in_flight:
                    router.submit_many(
                        "m", [_Payload() for _ in range(8)], 0.0
                    )
                    in_flight.extend(
                        a for a in router.dispatch(0.0)
                        if isinstance(a, AssignAction)
                    )
                return [ScaleWorkers(delta=-1, reason="idle")]

        controller = Controller(
            Plant(runner.service), [ShrinkBehindABurst()],
            GuardRail(GuardConfig(cooldown_s=1e9)),
        )
        controller.tick(0.0)
        assert len(in_flight) == 2
        assert controller.decision_log[-1] == (
            "apply_failed", 0, "scale_workers", "no idle worker to retire",
            0.0,
        )
        for action in in_flight:
            assert router.complete(action.assignment, action.epoch, 0.5)
        controller.tick(1.0)  # far inside the cooldown window
        assert controller.applied() == [
            ("applied", 1, "scale_workers", -1, 1.0),
        ]
        assert router.live_workers == 1
        audit_grammar(controller)

    def test_guard_rejections_carry_reasons(self, audit_grammar):
        guards = GuardRail(GuardConfig(workers_min=1, workers_max=2))
        controller = Controller(None, [_AlwaysScaleUp()], guards)
        runner = SimRunner(
            [profile()], workers=2, controller=controller,
            control_interval_s=0.1,
        )
        controller.plant = Plant(runner.service)
        arrivals = generate_arrivals(
            [TenantSpec(name="t", model="m", rate_qps=50.0)],
            seed=3, total_queries=50,
        )
        runner.run(arrivals)
        rejections = controller.rejections()
        assert rejections, "the pool was already at workers_max"
        assert all("workers_max" in r[4] for r in rejections
                   if r[0] == "guard")
        audit_grammar(controller)


class TestMetricsAndTracing:
    def test_controller_emits_metrics_and_spans(self):
        from repro.obs.metrics import MetricsRegistry
        from repro.obs.trace import Tracer

        metrics = MetricsRegistry()
        tracer = Tracer()
        guards = GuardRail(GuardConfig(
            workers_min=1, workers_max=6, cooldown_s=0.2,
        ))
        controller = Controller(
            None,
            [AutoscalePolicy(backlog_high=8.0, sustain_up=2)],
            guards, tracer=tracer, metrics=metrics,
        )
        runner = SimRunner(
            [profile()], workers=2, controller=controller,
            control_interval_s=0.1,
        )
        controller.plant = Plant(runner.service)
        runner.run(burst_arrivals())
        assert metrics.counter_value("control_ticks") == controller.ticks
        applied = sum(
            metrics.labeled_values("control_applied").values()
        ) if metrics.family("control_applied") else 0
        assert applied == len(controller.applied())
        spans = [
            s for s in tracer.spans() if s.name == "control_tick"
        ]
        assert len(spans) == controller.ticks
