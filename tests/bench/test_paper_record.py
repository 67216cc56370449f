"""The paper record, compared exactly.

``paper_record.json`` is the one checked-in reference for the paper's
evaluation tables (simulated FHE cost: deterministic, so every cell,
title and note must match) plus the static engine profiles.  An
intended change regenerates it with::

    PYTHONPATH=src python -m repro bench report --out tests/bench/paper_record.json

Also locked here: ``bench_harness`` reads no clock (host wall-clock is
``perf/``'s currency), and ``ARTIFACTS`` is the one list the record and
``repro bench`` are views of.
"""

import copy
import itertools
import json
import re
from pathlib import Path

import pytest

import repro.bench_harness
from repro.bench_harness.report_gen import (
    ARTIFACTS,
    build_record,
    build_sections,
)
from repro.cli import build_parser

RECORD_PATH = Path(__file__).parent / "paper_record.json"


@pytest.fixture(scope="module")
def recorded():
    return json.loads(RECORD_PATH.read_text())


def first_difference(recorded, observed):
    """None when the two records are equal, else a sentence naming the
    first section / table / row that differs."""
    profiles = itertools.zip_longest(
        recorded["engine_profiles"], observed["engine_profiles"]
    )
    for index, (want, got) in enumerate(profiles):
        if want != got:
            return f"engine_profiles[{index}]: {got!r} != recorded {want!r}"
    tables = itertools.zip_longest(
        recorded["experiments"], observed["experiments"]
    )
    for index, (want, got) in enumerate(tables):
        if want == got:
            continue
        if want is None or got is None:
            extra = want or got
            return (
                f"table {index} ({extra['section']!r}: {extra['title']!r}) "
                f"is {'missing' if got is None else 'not in the record'}"
            )
        where = f"section {want['section']!r}, table {want['title']!r}"
        for field in ("section", "title", "columns", "notes"):
            if want[field] != got[field]:
                return (
                    f"{where}: {field} {got[field]!r} != recorded "
                    f"{want[field]!r}"
                )
        rows = itertools.zip_longest(want["rows"], got["rows"])
        for number, (want_row, got_row) in enumerate(rows):
            if want_row != got_row:
                return (
                    f"{where}: row {number} {got_row!r} != recorded "
                    f"{want_row!r}"
                )
    return None


def test_record_matches_regeneration(recorded):
    """Rebuild every section and compare it to the reference, cell for
    cell.  Run with ``REPRO_BACKEND=vector`` as the process default: the
    record is built under ``reference`` regardless (Figures 7/8 would
    read 1.0x otherwise), so this holds for every default."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setenv("REPRO_BACKEND", "vector")
        observed = build_record(build_sections())
    observed = json.loads(json.dumps(observed))
    assert first_difference(recorded, observed) is None


def _table(record, section):
    return next(
        t for t in record["experiments"] if t["section"] == section
    )


@pytest.mark.parametrize("perturb, named", [
    (lambda r: _table(r, "fig7")["rows"][0].__setitem__(2, 13.99),
     "section 'fig7'.*row 0"),
    (lambda r: _table(r, "table6").__setitem__("title", "Table 6"),
     "section 'table6'.*title"),
    (lambda r: _table(r, "fig6")["notes"].__setitem__(0, "geomean: 9x"),
     "section 'fig6'.*notes"),
    (lambda r: _table(r, "fig6")["rows"].pop(),
     "section 'fig6'.*row 11"),
    (lambda r: r["experiments"].pop(),
     "'fig10'.*is missing"),
    (lambda r: r["engine_profiles"][2]["op_counts"].__setitem__("rotate", 0),
     r"engine_profiles\[2\]"),
])
def test_any_perturbation_is_named(recorded, perturb, named):
    observed = copy.deepcopy(recorded)
    perturb(observed)
    assert re.search(named, first_difference(recorded, observed))


def test_bench_harness_reads_no_clock():
    for path in Path(repro.bench_harness.__file__).parent.glob("*.py"):
        source = path.read_text()
        assert not re.search(
            r"^\s*(import time\b|from time\b)|perf_counter", source, re.M
        ), f"{path.name} reads a clock: host wall-clock belongs to perf/"


def test_no_recorded_column_is_wall_clock(recorded):
    for table in recorded["experiments"]:
        assert not [c for c in table["columns"] if "wall" in c], (
            f"{table['title']!r} has a wall-clock column"
        )


def test_record_and_cli_are_views_of_the_artifact_table(recorded):
    sections = [
        section for section, _ in itertools.groupby(
            table["section"] for table in recorded["experiments"]
        )
    ]
    assert sections == list(ARTIFACTS)

    bench = build_parser()._subparsers._group_actions[0].choices["bench"]
    (artifact,) = [a for a in bench._actions if a.dest == "artifact"]
    assert list(artifact.choices) == [*ARTIFACTS, "report"]
