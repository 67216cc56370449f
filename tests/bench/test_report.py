"""Tests for report rendering helpers, experiment-cache behaviour, and
section lookup (the record itself: ``test_paper_record.py``)."""

import math

import pytest

from repro.bench_harness import experiments
from repro.bench_harness.report import Table, geometric_mean
from repro.bench_harness.report_gen import ARTIFACTS, build_section
from repro.bench_harness.workloads import workload_by_name
from repro.errors import OracleMismatchError, ValidationError


class TestGeometricMean:
    def test_basic(self):
        assert geometric_mean([2.0, 8.0]) == pytest.approx(4.0)
        assert geometric_mean([5.0]) == pytest.approx(5.0)

    def test_ignores_nonpositive(self):
        assert geometric_mean([4.0, 0.0, -1.0]) == pytest.approx(4.0)

    def test_empty(self):
        assert geometric_mean([]) == 0.0

    def test_matches_log_definition(self):
        values = [1.5, 2.5, 10.0, 0.3]
        expected = math.exp(sum(math.log(v) for v in values) / len(values))
        assert geometric_mean(values) == pytest.approx(expected)


class TestTableRendering:
    def test_alignment_and_floats(self):
        t = Table(title="X", columns=["name", "value"])
        t.add_row("long-name-here", 1.23456)
        t.add_row("a", 1000)
        text = t.render()
        lines = text.splitlines()
        assert lines[0] == "X"
        assert "1.23" in text and "1000" in text
        # All data lines share the header's tabular width.
        header_len = len(lines[2])
        assert all(len(l) <= header_len + 2 for l in lines[3:])

    def test_sub_unit_floats_keep_three_significant_digits(self):
        """Bugfix lock: ".2f" printed the 2.22x megakernel row as 0.03
        vs 0.02 ms/query."""
        t = Table(title="X", columns=["engine", "wall_ms_per_query"])
        t.add_row("tape", 0.0333)
        t.add_row("megakernel", 0.015)
        t.add_row("zero", 0.0)
        t.add_row("unit", 1.0)
        cells = [line.split()[-1] for line in t.render().splitlines()[4:]]
        assert cells == ["0.0333", "0.0150", "0.00", "1.00"]


class TestExperimentCache:
    def test_records_are_memoized(self):
        experiments.clear_cache()
        t1 = experiments.figure6(queries=1, workload_names=["width55"])
        # Second call hits the cache: identical object values.
        t2 = experiments.figure6(queries=1, workload_names=["width55"])
        assert t1.rows == t2.rows

    def test_clear_cache(self):
        experiments.figure6(queries=1, workload_names=["width55"])
        experiments.clear_cache()
        assert experiments._RECORD_CACHE == {}


class TestOracleCheck:
    @pytest.mark.parametrize("oracle", ["label_bitvector", "classify_per_tree"])
    def test_a_run_the_oracle_disagrees_with_raises(self, oracle, monkeypatch):
        """COPSE runs are checked against ``label_bitvector``, baseline
        runs against ``classify_per_tree``: every figure cell is also a
        correctness check."""
        forest = workload_by_name("width55").forest
        right = getattr(forest, oracle)
        monkeypatch.setattr(
            forest, oracle, lambda features: [1 - x for x in right(features)]
        )
        experiments.clear_cache()
        with pytest.raises(OracleMismatchError, match="width55"):
            experiments.figure6(queries=1, workload_names=["width55"])
        monkeypatch.undo()
        assert experiments.figure6(queries=1, workload_names=["width55"]).rows


class TestReportRegeneration:
    def test_unknown_section_rejected(self):
        with pytest.raises(ValidationError, match="unknown section") as info:
            build_section("nope")
        assert all(name in str(info.value) for name in ARTIFACTS)
