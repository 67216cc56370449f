"""Tests for the experiment entry points: arguments the paper record
does not use (other workloads, parameter subsets) and the structure of
the tables they build.

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
        experiments.clear_cache()
        tables = experiments.table1(workload_name="width55")
        assert len(tables) == 3
        assert "comparison" in tables[0].title
        # Formulas only: no inference runs.
        assert not experiments._RECORD_CACHE

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
