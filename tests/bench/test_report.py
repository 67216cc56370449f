"""Tests for report rendering helpers, experiment-cache behaviour, and
the deterministic `repro bench report` regeneration entry point."""

import math
from pathlib import Path

import pytest

from repro.bench_harness import experiments
from repro.bench_harness.report import Series, Table, geometric_mean, render_all
from repro.bench_harness.report_gen import (
    MODE_INDEPENDENT_SECTIONS,
    SECTION_KEYS,
    generate_report,
    render_report,
    report_structure,
)

REPO_ROOT = Path(__file__).resolve().parents[2]
CHECKED_IN_REPORT = REPO_ROOT / "benchmark_report.txt"


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


class TestSeries:
    def test_points_and_render(self):
        s = Series(name="levels", x_label="depth", y_label="ms")
        s.add_point("d4", 22.0)
        s.add_point("d5", 27.5)
        assert s.ys() == [22.0, 27.5]
        text = s.render()
        assert "levels" in text and "d4=22.00" in text


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

    def test_render_all(self):
        a = Table(title="A", columns=["c"])
        a.add_row(1)
        b = Table(title="B", columns=["c"])
        b.add_row(2)
        text = render_all([a, b], title="both")
        assert "### both ###" in text
        assert "A" in text and "B" in text


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


class TestReportRegeneration:
    """The checked-in benchmark_report.txt must match what the single
    entry point regenerates: same section banners in the same order,
    and — for mode-independent sections — identical table structure.
    This is the lock against the regeneration drift that used to creep
    in when the benchmark suite rewrote the file in collection order."""

    def test_checked_in_report_has_canonical_structure(self):
        assert CHECKED_IN_REPORT.exists(), (
            "benchmark_report.txt is missing; regenerate with "
            "`PYTHONPATH=src python -m repro bench report`"
        )
        structure = report_structure(CHECKED_IN_REPORT.read_text())
        assert [banner for banner, _ in structure] == list(SECTION_KEYS)

    def test_quick_regeneration_matches_checked_in_structure(self):
        """Regenerate the cheap, mode-independent sections in quick mode
        and compare banner + title verbatim against the checked-in
        file (full regeneration is exercised by `repro bench report`)."""
        checked_in = dict(report_structure(CHECKED_IN_REPORT.read_text()))
        from repro.bench_harness.report_gen import build_section

        sections = {
            key: build_section(key, quick=True)
            for key in MODE_INDEPENDENT_SECTIONS
        }
        text = render_report(sections, quick=True)
        for banner, title in report_structure(text):
            assert checked_in[banner] == title, (
                f"section {banner!r}: checked-in title "
                f"{checked_in[banner]!r} != regenerated {title!r}"
            )

    def test_partial_regeneration_never_writes_trajectory(self, tmp_path):
        """A partial section run must not publish a partial BENCH json."""
        report = tmp_path / "report.txt"
        bench = tmp_path / "BENCH.json"
        written = generate_report(
            quick=True,
            sections=("table6",),
            report_path=str(report),
            json_path=str(bench),
        )
        assert written == [str(report)]
        assert report.exists() and not bench.exists()
        structure = report_structure(report.read_text())
        assert [b for b, _ in structure] == ["table6"]

    def test_unknown_section_rejected(self):
        with pytest.raises(KeyError, match="unknown report sections"):
            generate_report(quick=True, sections=("nope",),
                            report_path=None, json_path=None)
