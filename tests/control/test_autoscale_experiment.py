"""Acceptance: the seeded autoscale soak against SimRunner.

The canonical three-phase ramp (underload -> burst -> decay, one worker
crash mid-burst) from :func:`repro.bench_harness.experiments.autoscale_run`:

* byte-identical decision-log replay per seed, pinned by digest,
* SLO held by the controller where the static baseline misses,
* conservation intact under live scaling,
* the audit grammar on the full log.
"""

import json

from repro.bench_harness import experiments
from tests.conftest import digest


def run_pair():
    controlled = experiments.autoscale_run(autoscale=True)
    static = experiments.autoscale_run(autoscale=False)
    return controlled, static


class TestAutoscaleSoak:
    def test_decision_log_replays_byte_identical(self):
        report, first, _ = experiments.autoscale_run(autoscale=True)
        _, second, _ = experiments.autoscale_run(autoscale=True)
        assert json.dumps(first.decision_log) == json.dumps(
            second.decision_log
        )
        assert first.decision_log, "the ramp must exercise the controller"
        # The run as pinned (sha256 prefixes), under every FHE backend:
        # the router's decisions, the controller's log, the stats repr.
        assert (
            digest(json.dumps(report.decisions)),
            digest(json.dumps(first.decision_log)),
            digest(repr(report.stats)),
        ) == ("d6540646d25874f0", "4cd0dad02c3749db", "96e3eb5bccb6c533")

    def test_controller_holds_slo_where_static_misses(self):
        (report, controller, scenario), (static_report, _, _) = run_pair()
        deadline = scenario["deadline_ms"]
        assert static_report.stats.latency_p99_ms > deadline, (
            "the burst must bury the static pool for this scenario to "
            "mean anything"
        )
        assert report.stats.latency_p99_ms <= deadline
        assert (
            report.stats.deadline_miss_rate
            < static_report.stats.deadline_miss_rate
        )

    def test_scales_up_through_the_burst_and_back_down(self):
        report, controller, _ = experiments.autoscale_run(autoscale=True)
        deltas = [
            r[3] for r in controller.applied() if r[2] == "scale_workers"
        ]
        assert any(d > 0 for d in deltas), "burst must trigger scale-up"
        assert any(d < 0 for d in deltas), "decay must trigger scale-down"
        # Crash accounting survived the scaling (the mid-burst crash).
        assert report.stats.worker_crashes == 1

    def test_static_pool_never_resizes(self):
        """The static baseline neither adds nor retires a worker; the
        controlled pool grows past its start within its bounds (2 and 6,
        ``autoscale_run``'s defaults) and ends where it began."""
        (report, controller, _), (static_report, _, _) = run_pair()

        def resizes(decisions):
            kinds = ("add_worker", "retire")
            return [d[0] for d in decisions if d[0] in kinds]

        assert resizes(static_report.decisions) == []
        kinds = resizes(report.decisions)
        assert kinds.count("add_worker") == kinds.count("retire") > 0
        size = peak = 2
        for record in controller.applied():
            if record[2] == "scale_workers":
                size += record[3]
                assert 1 <= size <= 6
                peak = max(peak, size)
        assert peak > 2 and size == 2

    def test_conservation_and_audit(self, audit_grammar):
        (report, controller, _), (static_report, _, _) = run_pair()
        for stats in (report.stats, static_report.stats):
            assert stats.submitted == (
                stats.completed + stats.rejected + stats.failed
                + stats.cancelled
            )
        audit_grammar(controller)
