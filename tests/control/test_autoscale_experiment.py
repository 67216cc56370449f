"""Acceptance: the seeded autoscale soak against SimRunner.

The canonical three-phase ramp (underload -> burst -> decay, one worker
crash mid-burst) from :func:`repro.bench_harness.experiments.autoscale_run`:

* byte-identical decision-log replay per seed,
* SLO held by the controller where the static baseline misses,
* conservation intact under live scaling,
* the audit grammar on the full log.
"""

import json

from repro.bench_harness import experiments


def run_pair():
    controlled = experiments.autoscale_run(autoscale=True)
    static = experiments.autoscale_run(autoscale=False)
    return controlled, static


class TestAutoscaleSoak:
    def test_decision_log_replays_byte_identical(self):
        _, first, _ = experiments.autoscale_run(autoscale=True)
        _, second, _ = experiments.autoscale_run(autoscale=True)
        assert json.dumps(first.decision_log) == json.dumps(
            second.decision_log
        )
        assert first.decision_log, "the ramp must exercise the controller"

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

    def test_conservation_and_audit(self, audit_grammar):
        (report, controller, _), (static_report, _, _) = run_pair()
        for stats in (report.stats, static_report.stats):
            assert stats.submitted == (
                stats.completed + stats.rejected + stats.failed
                + stats.cancelled
            )
        audit_grammar(controller)

    def test_table_has_both_modes(self):
        table = experiments.autoscale()
        modes = [row[0] for row in table.rows]
        assert modes == ["static", "autoscale"]
        assert table.columns[0] == "mode"
        # The controller row completes more work within deadline.
        static_row = dict(zip(table.columns, table.rows[0]))
        auto_row = dict(zip(table.columns, table.rows[1]))
        assert auto_row["miss_rate"] < static_row["miss_rate"]
        assert auto_row["peak_workers"] > static_row["peak_workers"]
