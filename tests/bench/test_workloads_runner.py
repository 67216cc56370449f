"""Tests for the benchmark workloads and runner."""

import pytest

from repro.errors import ValidationError
from repro.bench_harness.runner import (
    InferenceRunner,
    RunnerConfig,
    SYSTEM_BASELINE,
    SYSTEM_COPSE,
    run_workload,
)
from repro.bench_harness.workloads import (
    all_workloads,
    microbenchmark_workloads,
    real_world_workloads,
    workload_by_name,
)


class TestWorkloads:
    def test_suite_composition(self):
        micro = microbenchmark_workloads()
        real = real_world_workloads()
        assert [w.name for w in micro] == [
            "depth4", "depth5", "depth6", "width55", "width78",
            "width677", "prec8", "prec16",
        ]
        assert [w.name for w in real] == [
            "soccer5", "income5", "soccer15", "income15",
        ]
        assert len(all_workloads()) == 12

    def test_workload_by_name_cached(self):
        a = workload_by_name("depth4")
        b = workload_by_name("depth4")
        assert a is b
        assert a.forest is b.forest

    def test_unknown_workload(self):
        with pytest.raises(ValidationError):
            workload_by_name("depth99")

    def test_micro_workload_forest_matches_spec(self):
        w = workload_by_name("width677")
        assert w.forest.n_trees == 3
        assert w.forest.branching == 20
        assert w.precision == 8

    def test_query_features_deterministic_and_in_domain(self):
        w = workload_by_name("prec16")
        a = w.query_features(5)
        b = w.query_features(5)
        assert a == b
        limit = 1 << 16
        for feats in a:
            assert len(feats) == w.forest.n_features
            assert all(0 <= v < limit for v in feats)

    def test_compiled_cached(self):
        w = workload_by_name("depth5")
        assert w.compiled is w.compiled


class TestRunnerConfig:
    def test_defaults(self):
        cfg = RunnerConfig()
        assert cfg.system == SYSTEM_COPSE
        assert cfg.queries == 27
        assert cfg.threads == 1

    def test_validation(self):
        with pytest.raises(ValidationError):
            RunnerConfig(system="gpu")
        with pytest.raises(ValidationError):
            RunnerConfig(threads=0)
        with pytest.raises(ValidationError):
            RunnerConfig(queries=0)


class TestRunner:
    def test_copse_record(self):
        record = run_workload(workload_by_name("width55"), SYSTEM_COPSE, queries=2)
        assert record.correct
        assert record.median_ms > 0
        assert len(record.per_query_ms) == 2
        assert set(record.phase_ms) == {
            "comparison", "bootstrap", "reshuffle", "levels", "accumulate",
        }
        assert record.phase_ms["bootstrap"] == 0.0  # never fires here
        assert record.op_counts["multiply"] > 0
        assert record.multiplicative_depth > 0

    def test_baseline_record(self):
        record = run_workload(
            workload_by_name("width55"), SYSTEM_BASELINE, queries=2
        )
        assert record.correct
        assert set(record.phase_ms) == {"comparison", "polynomial"}

    def test_queries_have_identical_cost(self):
        """Noninterference at the harness level: every query of a batch
        costs exactly the same."""
        record = run_workload(workload_by_name("depth4"), SYSTEM_COPSE, queries=3)
        assert len(set(record.per_query_ms)) == 1

    def test_multithreaded_is_faster(self):
        w = workload_by_name("width78")
        single = InferenceRunner(
            w, RunnerConfig(system=SYSTEM_COPSE, queries=1, threads=1)
        ).run()
        multi = InferenceRunner(
            w, RunnerConfig(system=SYSTEM_COPSE, queries=1, threads=32)
        ).run()
        assert multi.median_ms < single.median_ms

    def test_plaintext_model_is_faster(self):
        w = workload_by_name("width78")
        enc = InferenceRunner(
            w, RunnerConfig(system=SYSTEM_COPSE, queries=1)
        ).run()
        plain = InferenceRunner(
            w,
            RunnerConfig(system=SYSTEM_COPSE, queries=1, encrypted_model=False),
        ).run()
        assert plain.median_ms < enc.median_ms

    @pytest.mark.parametrize("system", [SYSTEM_COPSE, SYSTEM_BASELINE])
    def test_threads_refused_without_an_op_dag(self, system):
        """The vector backend's tracker keeps counts but no DAG, so its
        work-span estimate would quietly equal the sequential time."""
        config = RunnerConfig(
            system=system, queries=1, threads=8, backend="vector"
        )
        with pytest.raises(ValidationError, match="threads=8.*'vector'"):
            InferenceRunner(workload_by_name("width55"), config).run()

    def test_work_span_sanity(self):
        record = run_workload(workload_by_name("depth4"), SYSTEM_COPSE, queries=1)
        assert 0 < record.span_ms < record.work_ms
        assert record.median_ms == pytest.approx(record.work_ms)

    @pytest.mark.parametrize("backend", ["vector", "plaintext"])
    def test_no_span_without_an_op_dag(self, backend):
        """Regression: a DAG-less tracker's span read as its work (44.613
        ms both on depth4), a critical path it cannot know."""
        record = run_workload(
            workload_by_name("depth4"), SYSTEM_COPSE, queries=1,
            backend=backend,
        )
        assert record.span_ms is None
        assert record.work_ms > 0
        assert record.median_ms == pytest.approx(record.work_ms)
