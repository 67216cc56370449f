"""Tests for the experiment entry points: arguments the paper record
does not use (other workloads, worker counts, batch caps) and the
properties of the serve sections, which make no paper claim.

The record's own figures are compared exactly by ``test_paper_record.py``
and checked against the paper by ``test_paper_claims.py``.
"""

import pytest

from repro.bench_harness import experiments
from repro.bench_harness.report import Table
from repro.bench_harness.workloads import all_workloads
from repro.core.compiler import CopseCompiler
from repro.fhe.params import EncryptionParams


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

    def test_compiler_choice_is_the_sweep_winner(self):
        """The costliest of the compiler's per-model choices (what serving
        picks) is the dominant setting; every record run uses it."""
        compiler = CopseCompiler()
        best = max(
            (compiler.select_parameters(w.compiled) for w in all_workloads()),
            key=lambda params: params.size_factor,
        )
        assert best == EncryptionParams.paper_defaults()


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
