"""Tests for the experiment entry points (on the fast micro subset).

These verify the *paper-claimed shapes* on microbenchmarks; the full-suite
numbers (including real-world models) are produced by ``benchmarks/``.
"""

import pytest

from repro.bench_harness import experiments
from repro.bench_harness.report import Table, geometric_mean

MICRO = ["depth4", "depth5", "depth6", "width55", "width78", "prec8", "prec16"]
FAST = ["depth4", "width55", "prec16"]


class TestFigure6:
    def test_copse_always_wins(self):
        table = experiments.figure6(queries=1, workload_names=FAST)
        for speedup in table.column("speedup"):
            assert speedup > 2.0

    def test_precision_gives_largest_speedup(self):
        table = experiments.figure6(
            queries=1, workload_names=["prec8", "prec16"]
        )
        assert table.row("prec16")[3] > table.row("prec8")[3]

    def test_copse_times_in_paper_band(self):
        """Paper microbenchmark medians range 39.8-64.2 ms."""
        table = experiments.figure6(queries=1, workload_names=MICRO)
        for ms in table.column("copse_ms"):
            assert 25.0 < ms < 90.0


class TestFigure7:
    def test_multithreading_helps(self):
        table = experiments.figure7(queries=1, workload_names=FAST)
        for speedup in table.column("speedup"):
            assert speedup > 1.5

    def test_micro_speedup_band(self):
        """Paper: micro parallel speedups are modest (~2.5-4x)."""
        table = experiments.figure7(queries=1, workload_names=MICRO)
        for speedup in table.column("speedup"):
            assert 1.5 < speedup < 6.0


class TestFigure8:
    def test_copse_still_wins_multithreaded_but_less(self):
        fig6 = experiments.figure6(queries=1, workload_names=FAST)
        fig8 = experiments.figure8(queries=1, workload_names=FAST)
        for name in FAST:
            s6 = fig6.row(name)[3]
            s8 = fig8.row(name)[3]
            assert s8 > 1.0  # COPSE still faster
            assert s8 < s6  # the baseline scales better (paper Sec 8.2)


class TestFigure9:
    def test_plaintext_speedup_band(self):
        """Paper: plaintext models are ~1.4x faster (sequential)."""
        table = experiments.figure9(queries=1, workload_names=FAST)
        for speedup in table.column("speedup"):
            assert 1.05 < speedup < 1.8


class TestFigure10:
    @pytest.fixture(scope="class")
    def tables(self):
        return experiments.figure10(queries=1)

    def test_three_families(self, tables):
        assert len(tables) == 3

    def test_comparison_flat_across_depth(self, tables):
        depth_table = tables[0]
        comparisons = depth_table.column("comparison_ms")
        assert max(comparisons) == pytest.approx(min(comparisons), rel=0.01)

    def test_levels_linear_in_depth(self, tables):
        depth_table = tables[0]
        levels = depth_table.column("levels_ms")
        # depth4/5/6 over the same 15 branches: level time ~ d * b.
        assert levels[1] / levels[0] == pytest.approx(5 / 4, rel=0.05)
        assert levels[2] / levels[0] == pytest.approx(6 / 4, rel=0.05)

    def test_levels_proportional_to_branches(self, tables):
        width_table = tables[1]
        levels = width_table.column("levels_ms")
        # width55/78/677 have 10/15/20 branches at depth 5.
        assert levels[1] / levels[0] == pytest.approx(1.5, rel=0.05)
        assert levels[2] / levels[0] == pytest.approx(2.0, rel=0.05)

    def test_comparison_superlinear_in_precision(self, tables):
        prec_table = tables[2]
        comparisons = prec_table.column("comparison_ms")
        assert comparisons[1] / comparisons[0] > 2.0  # p log p growth

    def test_non_comparison_phases_flat_across_precision(self, tables):
        prec_table = tables[2]
        levels = prec_table.column("levels_ms")
        assert levels[0] == pytest.approx(levels[1], rel=0.01)


class TestComplexityTables:
    def test_table1_structure(self):
        tables = experiments.table1(workload_name="width55")
        assert len(tables) == 4
        assert "comparison" in tables[0].title

    def test_table2_measured_equals_impl(self):
        table = experiments.table2(workload_name="width55")
        for row in table.rows:
            op, measured, impl, _paper = row
            assert measured == impl, f"{op}: measured {measured} != impl {impl}"


class TestTable5:
    def test_sweep_on_micro_models(self):
        table = experiments.table5(workload_names=["depth4", "prec16"])
        assert any("dominant setting" in n for n in table.notes)
        feasible = [
            row for row in table.rows if row[5] == "yes"
        ]
        assert feasible
        # 400 bits is the smallest feasible chain for prec16's depth-14
        # circuit at security 128 (the paper's finding).
        assert all(row[1] >= 400 or row[0] > 128 for row in feasible)

    def test_insecure_params_never_feasible(self):
        table = experiments.table5(workload_names=["depth4"])
        for row in table.rows:
            if row[0] < 128:
                assert row[5] == "no"


class TestTable6:
    def test_spec_matches_generated(self):
        table = experiments.table6()
        assert len(table.rows) == 8
        for row in table.rows:
            assert row[4] == row[5]  # branches == generated b
            assert row[1] == row[6]  # max depth == generated d


class TestThroughput:
    def test_batching_pays_on_width78(self):
        """PR acceptance: amortized per-query cost strictly below the
        unbatched ``secure_inference`` cost for the width78 workload."""
        table = experiments.throughput(
            workload_name="width78", queries=16, threads=2
        )
        unbatched_ms = table.rows[0][3]
        batched_ms = table.rows[1][3]
        assert batched_ms < unbatched_ms
        assert table.rows[0][5] == "ok" and table.rows[1][5] == "ok"
        # One capacity-48 batch absorbs all 16 queries.
        assert table.rows[1][1] == 1
        assert table.rows[1][2] > 1

    def test_throughput_scales_with_workers(self):
        # batch_size=2 splits 8 queries into 4 batches, so a larger pool
        # genuinely overlaps more work.
        two = experiments.throughput(
            "width55", queries=8, threads=2, batch_size=2
        )
        four = experiments.throughput(
            "width55", queries=8, threads=4, batch_size=2
        )
        assert four.rows[1][4] > two.rows[1][4]

    def test_single_batch_gains_nothing_from_idle_workers(self):
        """qps must not claim parallelism beyond the batch count."""
        one = experiments.throughput("width55", queries=4, threads=1)
        four = experiments.throughput("width55", queries=4, threads=4)
        assert one.rows[1][1] == four.rows[1][1] == 1  # one batch each
        assert four.rows[1][4] == pytest.approx(one.rows[1][4])

    def test_batch_size_cap_respected(self):
        table = experiments.throughput(
            "width55", queries=6, threads=2, batch_size=2
        )
        assert table.rows[1][2] == 2  # capacity capped
        assert table.rows[1][1] == 3  # 6 queries -> 3 batches


class TestPlanSpeedup:
    @pytest.fixture(scope="class")
    def table(self):
        return experiments.plan_speedup(workload_name="width78", queries=2)

    def test_plan_at_most_eager_cost(self, table):
        """ISSUE 2 acceptance: plan-engine per-query simulated cost must
        be <= the eager engine's, with both paths oracle-exact."""
        eager = table.row("eager")
        plan = table.row("plan")
        assert plan[3] <= eager[3]
        assert eager[4] == "ok" and plan[4] == "ok"

    def test_optimizer_beats_naive_lowering(self, table):
        unoptimized = table.row("plan (unoptimized)")
        plan = table.row("plan")
        assert plan[1] < unoptimized[1]  # strictly fewer rotations
        assert plan[3] < unoptimized[3]  # strictly lower cost ms

    def test_plan_reduces_rotations_below_eager(self, table):
        assert table.row("plan")[1] < table.row("eager")[1]
        assert any("cheaper per query" in n for n in table.notes)


class TestReportHelpers:
    def test_geometric_mean(self):
        assert geometric_mean([2.0, 8.0]) == pytest.approx(4.0)
        assert geometric_mean([]) == 0.0

    def test_table_render_and_access(self):
        t = Table(title="T", columns=["a", "b"])
        t.add_row("x", 1.5)
        t.add_note("hello")
        text = t.render()
        assert "T" in text and "1.50" in text and "hello" in text
        assert t.column("b") == [1.5]
        assert t.row("x") == ["x", 1.5]
        with pytest.raises(KeyError):
            t.row("missing")
        with pytest.raises(ValueError):
            t.add_row("only-one-cell")
