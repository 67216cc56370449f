"""The paper's claims, checked against the checked-in record.

Reads ``paper_record.json`` and nothing else: no experiment runs here.
The record's cells are compared exactly by ``test_paper_record.py``;
this file checks what they say about the paper (``claims.CLAIMS``):
each row holds its verdict, and each row flips when the cells it reads
move past its tolerance.
"""

import copy
import json
from pathlib import Path

import pytest

from repro.bench_harness import report_gen
from repro.bench_harness.claims import (
    CLAIMS, IN_RANGE, STATED, evaluate, failures,
)
from repro.bench_harness.report_gen import read_sections, render_report
from repro.cli import main

RECORD_PATH = Path(__file__).parent / "paper_record.json"

MODELS = (
    "depth4", "depth5", "depth6", "width55", "width78", "width677",
    "prec8", "prec16", "soccer5", "income5", "soccer15", "income15",
)


@pytest.fixture(scope="module")
def record():
    return json.loads(RECORD_PATH.read_text())


def _verdicts(record):
    return {
        claim.name: verdict
        for claim, _, verdict in evaluate(read_sections(record))
    }


@pytest.mark.parametrize("claim", CLAIMS, ids=lambda claim: claim.name)
def test_row_holds_its_verdict(record, claim):
    values = claim.read(read_sections(record))
    assert values
    assert claim.verdict(values) == claim.declared


def test_rows_are_named_once_and_misses_say_why(record):
    names = [claim.name for claim in CLAIMS]
    assert len(names) == len(set(names))
    verdicts = _verdicts(record)
    assert set(verdicts.values()) == {IN_RANGE, STATED}
    assert verdicts["Fig 6: speedup geomean, micro"] == STATED
    assert verdicts["Fig 6: speedup geomean, real"] == STATED


def _set_cell(record, section, key, column, value, index=0):
    """Set ``column`` of the row whose leading cells are ``key`` (one
    cell or a tuple) in the ``index``-th table of ``section``."""
    table = [t for t in record["experiments"]
             if t["section"] == section][index]
    key = list(key) if isinstance(key, tuple) else [key]
    row = next(r for r in table["rows"] if r[:len(key)] == key)
    row[table["columns"].index(column)] = value


# Per row, edits ``(section, row key, column, value[, table index])`` that
# move it across its bounds: an in-range row out, a stated row in.
PERTURBATIONS = {
    "Fig 6: speedup geomean, micro": [("fig6", "prec16", "speedup", 20.0)],
    "Fig 6: speedup geomean, real": [("fig6", "income15", "speedup", 10.0)],
    "Fig 6: speedup per model": [("fig6", m, "speedup", 6.0) for m in MODELS],
    "Fig 6: COPSE wins on every model": [("fig6", "width55", "speedup", 0.9)],
    "Fig 6: prec16 has the largest micro speedup": [
        ("fig6", "prec16", "speedup", 5.0)],
    "Micro single-thread latency": [("fig6", "width55", "copse_ms", 45.0),
                                    ("fig6", "prec16", "copse_ms", 60.0)],
    "Real-world latency, income5": [("fig6", "income5", "copse_ms", 520.0)],
    "Real-world latency, income15": [("fig6", "income15", "copse_ms", 1700)],
    "Fig 7: speedup geomean, micro": [("fig7", "prec16", "speedup", 7.0)],
    "Fig 7: speedup geomean, real": [("fig7", "income15", "speedup", 11.0)],
    "Fig 7: threads speed up every model": [
        ("fig7", "width55", "speedup", 0.9)],
    "Fig 7: real-world models gain more than micro": [
        ("fig7", "income15", "speedup", 0.1)],
    "Fig 7: 15 trees gain more than 5": [("fig7", "income5", "speedup", 15)],
    "Fig 8: COPSE still ahead": [("fig8", "width55", "speedup", 0.9)],
    "Fig 8: the baseline scales better": [("fig8", "prec16", "speedup", 8.0)],
    "Fig 8: the gap narrows more for micro": [
        ("fig8", "prec16", "speedup", 4.5)],
    "Fig 9: plaintext model geomean, micro": [
        ("fig9", "prec16", "speedup", 0.9)],
    "Fig 9: plaintext model geomean, real": [
        ("fig9", "income15", "speedup", 3.0)],
    "Fig 9: every model gains": [("fig9", "width55", "speedup", 0.95)],
    "Fig 10a: comparison flat in depth": [
        ("fig10", "depth6", "comparison_ms", 16.008 * 1.02)],
    "Fig 10a: levels linear in depth": [
        ("fig10", "depth6", "levels_ms", 32.76 * 1.1)],
    "Fig 10a: accumulation negligible": [
        ("fig10", "depth4", "accumulate_ms", 5.0)],
    "Fig 10b: comparison flat in branches": [
        ("fig10", "width677", "comparison_ms", 16.008 * 1.02, 1)],
    "Fig 10b: levels proportional to branches": [
        ("fig10", "width677", "levels_ms", 36.555 * 1.1, 1)],
    "Fig 10c: comparison superlinear in precision": [
        ("fig10", "prec16", "comparison_ms", 30.0, 2)],
    "Fig 10c: levels, accumulation flat in precision": [
        ("fig10", "prec16", "levels_ms", 27.405 * 1.02, 2)],
    "Table 1(a): comparison add, const_add, multiply": [
        ("table1", "multiply", "impl_formula", 47)],
    "Table 1(b): one level multiply, rotate": [
        ("table1", "rotate", "impl_formula", 16, 1)],
    "Table 1(b): one level add": [("table1", "add", "impl_formula", 18, 1)],
    "Table 2: measured counts and depth": [
        ("table2", "rotate", "measured", 109)],
    "Table 2: multiply": [("table2", "multiply", "impl_formula", 160)],
    "Table 2: rotate": [("table2", "rotate", "impl_formula", 120)],
    "Table 2: multiplicative depth": [
        ("table2", "mult_depth", "impl_formula", 14)],
    "Table 5: dominant parameters": [
        ("table5", (128, 400, 3), "feasible", "no")],
}


def test_every_row_has_a_perturbation():
    assert sorted(PERTURBATIONS) == sorted(claim.name for claim in CLAIMS)


@pytest.mark.parametrize("row", sorted(PERTURBATIONS))
def test_a_cell_past_its_tolerance_flips_the_row(record, row):
    perturbed = copy.deepcopy(record)
    for edit in PERTURBATIONS[row]:
        _set_cell(perturbed, *edit)
    assert _verdicts(perturbed)[row] != _verdicts(record)[row]
    assert any(line.startswith(f"{row}: ") for line in failures(
        read_sections(perturbed)
    ))


# The 1 %-tolerance Figure 10 rows, each moved 0.5 % off "flat": outside
# the bare bound, inside its tolerance.
@pytest.mark.parametrize("edit", [
    ("fig10", "depth6", "comparison_ms", 16.008 * 1.005),
    ("fig10", "width677", "comparison_ms", 16.008 * 1.005, 1),
    ("fig10", "prec16", "levels_ms", 27.405 * 1.005, 2),
], ids=lambda edit: f"{edit[1]}-{edit[2]}")
def test_a_cell_within_its_tolerance_keeps_the_row(record, edit):
    perturbed = copy.deepcopy(record)
    _set_cell(perturbed, *edit)
    assert failures(read_sections(perturbed)) == []


def test_report_prints_the_claims_after_the_record(record):
    text = render_report(read_sections(record))
    last_section = text.index("=== fig10 ===")
    claims_at = text.index("=== claims ===")
    assert last_section < claims_at
    claims = text[claims_at:]
    assert "verdict" in claims and "FAIL" not in claims
    for claim in CLAIMS:
        assert claim.name in claims


@pytest.mark.parametrize("perturb, status", [(False, 0), (True, 1)])
def test_bench_report_exits_1_when_a_row_fails(
    record, monkeypatch, capsys, perturb, status
):
    """``repro bench report`` over the record's tables (not rebuilt):
    a row that disagrees with its verdict reads FAIL, and the exit code
    says so."""
    shown = copy.deepcopy(record)
    if perturb:
        _set_cell(shown, "fig8", "width55", "speedup", 0.9)
    monkeypatch.setattr(
        report_gen, "build_sections", lambda: read_sections(shown)
    )
    assert main(["bench", "report"]) == status
    claims = capsys.readouterr().out.split("=== claims ===")[1]
    failed = [line for line in claims.splitlines() if "FAIL" in line]
    assert [line.split("  ")[0] for line in failed] == (
        ["Fig 8: COPSE still ahead"] if perturb else []
    )
