"""The paper's claims as one checked table, read off the paper record.

Each :class:`Claim` row is a number the paper's evaluation states
(EXPERIMENTS.md "Calibration targets") or a shape its figures and
tables show, with the record cells it reads and the range those cells
must lie in.  Its verdict is part of the row: ``in-range``, or
``out-of-range (stated)`` with a sentence saying why the reproduction
misses.  :func:`failures` names every row whose record disagrees with
its verdict, so a change that moves a claim into or out of the paper's
range fails ``tests/bench/test_paper_claims.py`` until the row says so.

How a row reads the paper: an approximate value ("≈ 6×", "roughly
1.4×", "~0.5 s") is taken to ±10 %; a range as printed; a count, a
formula deviation or the chosen parameters exactly.  Figure 10's phase
ratios use 1 % for "flat" and 5 % for "proportional".  Bounds are
inclusive, and ``tolerance`` widens them relatively.

The rows read a record's tables (``tests/bench/paper_record.json``
through :func:`~repro.bench_harness.report_gen.read_sections`, or the
sections ``repro bench report`` just built); nothing here runs an
experiment or reads a clock.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, List, Mapping, Optional, Sequence

from repro.bench_harness.report import Table, geometric_mean

IN_RANGE = "in-range"
STATED = "out-of-range (stated)"
UNSTATED = "out-of-range"

#: A record's tables by section, as ``report_gen.build_sections`` makes
#: them and ``report_gen.read_sections`` reads them back.
Sections = Mapping[str, Sequence[Table]]


@dataclass(frozen=True)
class Claim:
    """One row: the paper's value or range, the cells it reads, the
    tolerance, and (through ``stated``) its verdict."""

    name: str
    paper: str
    cells: str
    read: Callable[[Sections], List[object]]
    low: Optional[float] = None
    high: Optional[float] = None
    tolerance: float = 0.0
    #: Compared for equality instead of ``low`` / ``high``.
    equals: object = None
    #: Non-empty: the row is out of range, and this sentence says why.
    stated: str = ""

    @property
    def declared(self) -> str:
        return STATED if self.stated else IN_RANGE

    def verdict(self, values: Sequence[object]) -> str:
        if self.equals is not None:
            holds = all(value == self.equals for value in values)
        else:
            slack = self.tolerance
            low = -math.inf if self.low is None else (
                self.low - abs(self.low) * slack
            )
            high = math.inf if self.high is None else (
                self.high + abs(self.high) * slack
            )
            holds = all(low <= value <= high for value in values)
        if holds:
            return IN_RANGE
        return STATED if self.stated else UNSTATED


# ---------------------------------------------------------------------------
# Readers over the record's tables
# ---------------------------------------------------------------------------


def _column(s: Sections, section: str, column: str, category=None,
            index: int = 0) -> List[float]:
    table = s[section][index]
    values = table.column(column)
    if category is None:
        return values
    return [
        value for value, kind in zip(values, table.column("category"))
        if kind == category
    ]


def _cell(s: Sections, section: str, key, column: str, index: int = 0):
    table = s[section][index]
    return table.row(key)[table.columns.index(column)]


def _each(section: str, column: str, category=None):
    return lambda s: _column(s, section, column, category)


def _geomean(section: str, category: str):
    return lambda s: [geometric_mean(_column(s, section, "speedup", category))]


def _scaled(index: int, column: str, statistic: Optional[str] = None):
    """Each later model of a Figure 10 family: its ``column`` over the
    first model's, divided by the same ratio of its Table 6
    ``statistic`` (none: 1).  1.0 means flat, or proportional."""
    def read(s):
        models = _column(s, "fig10", "model", index=index)
        values = _column(s, "fig10", column, index=index)

        def stat(model):
            return _cell(s, "table6", model, statistic) if statistic else 1

        return [
            (value / values[0]) / (stat(model) / stat(models[0]))
            for model, value in zip(models[1:], values[1:])
        ]
    return read


def _deviation(section: str, index: int, *ops: str):
    """impl formula - paper formula of each op of one Table 1/2 table."""
    return lambda s: [
        _cell(s, section, op, "impl_formula", index)
        - _cell(s, section, op, "paper_formula", index)
        for op in ops
    ]


def _prec16_lead(s: Sections) -> List[float]:
    others = [
        row[3] for row in s["fig6"][0].rows
        if row[4] == "micro" and row[0] != "prec16"
    ]
    return [_cell(s, "fig6", "prec16", "speedup") / max(others)]


def _winner(s: Sections) -> List[str]:
    feasible = [row for row in s["table5"][0].rows if row[5] == "yes"]
    best = min(feasible, key=lambda row: (row[6], row[1], row[2]))
    return ["{}/{}/{}".format(*best[:3])]


# ---------------------------------------------------------------------------
# The table
# ---------------------------------------------------------------------------

_CALIBRATION = (
    "COPSE and the baseline are priced by one per-op cost model, "
    "calibrated on published BGV timings and the paper's COPSE "
    "latencies; no constant is fit to the ratio between them"
)

CLAIMS: Sequence[Claim] = (
    Claim(
        "Fig 6: speedup geomean, micro", "≈ 6×", "fig6 speedup, micro",
        _geomean("fig6", "micro"), 6.0, 6.0, 0.10,
        stated=f"{_CALIBRATION}, which reads 4.81× here.",
    ),
    Claim(
        "Fig 6: speedup geomean, real", "≈ 6×", "fig6 speedup, real",
        _geomean("fig6", "real"), 6.0, 6.0, 0.10,
        stated=f"{_CALIBRATION}; the four forests read 4.40–4.64×.",
    ),
    Claim(
        "Fig 6: speedup per model", "5× to over 7×", "fig6 speedup",
        _each("fig6", "speedup"), low=5.0,
        stated=(
            "Ten of twelve models read 3.95–4.94×; depth4 (5.18×) and "
            "prec16 (7.52×, the 'over 7×') are inside.  "
            f"{_CALIBRATION}."
        ),
    ),
    Claim(
        "Fig 6: COPSE wins on every model", "> 1×", "fig6 speedup",
        _each("fig6", "speedup"), low=1.0,
    ),
    Claim(
        "Fig 6: prec16 has the largest micro speedup",
        "prec16 / next ≥ 1", "fig6 speedup, micro", _prec16_lead, low=1.0,
    ),
    Claim(
        "Micro single-thread latency", "~40–65 ms", "fig6 copse_ms, micro",
        _each("fig6", "copse_ms", "micro"), 40.0, 65.0,
        stated=(
            "width55 (10 branches, 38.98 ms) reads below the band and "
            "prec16 (p = 16, 69.90 ms) above it; the other six read "
            "44.6–62.3 ms."
        ),
    ),
    Claim(
        "Real-world latency, income5", "~0.5 s", "fig6 copse_ms, income5",
        lambda s: [_cell(s, "fig6", "income5", "copse_ms")], 500, 500, 0.10,
        stated=(
            "income5 reads 553.92 ms, 11 % over: the real-world forests "
            "are trained stand-ins whose settings were tuned toward the "
            "paper's latencies, not fit to them."
        ),
    ),
    Claim(
        "Real-world latency, income15", "~1.5 s", "fig6 copse_ms, income15",
        lambda s: [_cell(s, "fig6", "income15", "copse_ms")], 1500, 1500,
        0.10,
    ),
    Claim(
        "Fig 7: speedup geomean, micro", "~4×", "fig7 speedup, micro",
        _geomean("fig7", "micro"), 4.0, 4.0, 0.10,
        stated=(
            "The work-span model's constants (effective parallelism 16, "
            "0.22 ms per barrier, fhe/costmodel.py) leave the small micro "
            "circuits barrier-bound: they read 3.45×, width55 the least "
            "(2.76×)."
        ),
    ),
    Claim(
        "Fig 7: speedup geomean, real", "~9–12×", "fig7 speedup, real",
        _geomean("fig7", "real"), 9.0, 12.0,
        stated=(
            "The 15-tree forests reach 13.65× and 14.01× under the same "
            "constants, above the band; the 5-tree ones (10.55×, 11.44×) "
            "are inside it."
        ),
    ),
    Claim(
        "Fig 7: threads speed up every model", "> 1×", "fig7 speedup",
        _each("fig7", "speedup"), low=1.0,
    ),
    Claim(
        "Fig 7: real-world models gain more than micro",
        "real / micro geomean ≥ 2", "fig7 speedup",
        lambda s: [_geomean("fig7", "real")(s)[0]
                   / _geomean("fig7", "micro")(s)[0]],
        low=2.0,
    ),
    Claim(
        "Fig 7: 15 trees gain more than 5", "15-tree / 5-tree ≥ 1",
        "fig7 speedup, income/soccer",
        lambda s: [
            _cell(s, "fig7", f"{family}15", "speedup")
            / _cell(s, "fig7", f"{family}5", "speedup")
            for family in ("income", "soccer")
        ],
        low=1.0,
    ),
    Claim(
        "Fig 8: COPSE still ahead", "> 1× on every model", "fig8 speedup",
        _each("fig8", "speedup"), low=1.0,
    ),
    Claim(
        "Fig 8: the baseline scales better", "fig8 / fig6 speedup ≤ 1",
        "fig8, fig6 speedup",
        lambda s: [
            eight / six for eight, six in zip(
                _column(s, "fig8", "speedup"), _column(s, "fig6", "speedup")
            )
        ],
        high=1.0,
    ),
    Claim(
        "Fig 8: the gap narrows more for micro", "max micro / max real ≤ 1",
        "fig8 speedup",
        lambda s: [max(_column(s, "fig8", "speedup", "micro"))
                   / max(_column(s, "fig8", "speedup", "real"))],
        high=1.0,
    ),
    Claim(
        "Fig 9: plaintext model geomean, micro", "roughly 1.4×",
        "fig9 speedup, micro", _geomean("fig9", "micro"), 1.4, 1.4, 0.10,
    ),
    Claim(
        "Fig 9: plaintext model geomean, real", "roughly 1.4×",
        "fig9 speedup, real", _geomean("fig9", "real"), 1.4, 1.4, 0.10,
    ),
    Claim(
        "Fig 9: every model gains", "> 1×", "fig9 speedup",
        _each("fig9", "speedup"), low=1.0,
    ),
    Claim(
        "Fig 10a: comparison flat in depth", "flat", "fig10a comparison_ms",
        _scaled(0, "comparison_ms"), 1.0, 1.0, 0.01,
    ),
    Claim(
        "Fig 10a: levels linear in depth", "∝ d", "fig10a levels_ms, gen_d",
        _scaled(0, "levels_ms", "gen_d"), 1.0, 1.0, 0.05,
    ),
    Claim(
        "Fig 10a: accumulation negligible", "< 10 % of total",
        "fig10a accumulate_ms / total_ms",
        lambda s: [row[4] / row[5] for row in s["fig10"][0].rows],
        high=0.10,
    ),
    Claim(
        "Fig 10b: comparison flat in branches", "flat",
        "fig10b comparison_ms", _scaled(1, "comparison_ms"), 1.0, 1.0, 0.01,
    ),
    Claim(
        "Fig 10b: levels proportional to branches", "∝ b",
        "fig10b levels_ms, gen_b", _scaled(1, "levels_ms", "gen_b"),
        1.0, 1.0, 0.05,
    ),
    Claim(
        "Fig 10c: comparison superlinear in precision", "p log p: > ∝ p",
        "fig10c comparison_ms, precision",
        _scaled(2, "comparison_ms", "precision"), low=1.0,
    ),
    Claim(
        "Fig 10c: levels, accumulation flat in precision", "flat",
        "fig10c levels_ms, accumulate_ms",
        lambda s: _scaled(2, "levels_ms")(s) + _scaled(2, "accumulate_ms")(s),
        1.0, 1.0, 0.01,
    ),
    Claim(
        "Table 1(a): comparison add, const_add, multiply",
        "= paper formula", "table1(a) impl - paper",
        _deviation("table1", 0, "add", "const_add", "multiply"), 0, 0,
    ),
    Claim(
        "Table 1(b): one level multiply, rotate", "= paper formula",
        "table1(b) impl - paper", _deviation("table1", 1, "multiply", "rotate"),
        0, 0,
    ),
    Claim(
        "Table 1(b): one level add", "paper formula ± 1",
        "table1(b) impl - paper", _deviation("table1", 1, "add"), -1, 1,
    ),
    Claim(
        "Table 2: measured counts and depth", "= impl formula",
        "table2 measured - impl",
        lambda s: [row[1] - row[2] for row in s["table2"][0].rows], 0, 0,
    ),
    Claim(
        "Table 2: multiply", "paper formula ± 7 (d + 2)",
        "table2 impl - paper", _deviation("table2", 0, "multiply"), -7, 7,
    ),
    Claim(
        "Table 2: rotate", "paper formula ± 15 (b)", "table2 impl - paper",
        _deviation("table2", 0, "rotate"), -15, 15,
    ),
    Claim(
        "Table 2: multiplicative depth", "paper formula ± 1",
        "table2 impl - paper", _deviation("table2", 0, "mult_depth"), -1, 1,
    ),
    Claim(
        "Table 5: dominant parameters", "128 / 400 / 3",
        "table5 cheapest feasible row", _winner, equals="128/400/3",
    ),
)


def _show(values: Sequence[object]) -> str:
    def shown(value):
        return f"{value:.2f}" if isinstance(value, float) else str(value)

    low, high = shown(min(values)), shown(max(values))
    return low if low == high else f"{low}–{high}"


def evaluate(sections: Sections):
    """Each row with the values it reads and the verdict they give."""
    for claim in CLAIMS:
        values = claim.read(sections)
        yield claim, values, claim.verdict(values)


def failures(sections: Sections) -> List[str]:
    """One sentence per row whose record disagrees with its verdict."""
    return [
        f"{claim.name}: reads {_show(values)} ({verdict}) against "
        f"{claim.paper}, but the table says {claim.declared}"
        for claim, values, verdict in evaluate(sections)
        if verdict != claim.declared
    ]


def claims_table(sections: Sections) -> Table:
    """Every row with what the record reads and its verdict; a row that
    disagrees with its verdict reads ``FAIL``, and each stated row's
    sentence is a note."""
    table = Table(
        title="Paper claims against the record",
        columns=["claim", "paper", "tolerance", "record cells", "measured",
                 "verdict"],
    )
    for claim, values, verdict in evaluate(sections):
        if verdict != claim.declared:
            verdict = f"FAIL: {verdict}, table says {claim.declared}"
        table.add_row(
            claim.name, claim.paper,
            f"±{claim.tolerance:.0%}" if claim.tolerance else "0",
            claim.cells, _show(values), verdict,
        )
        if claim.stated:
            table.add_note(f"{claim.name}: {claim.stated}")
    return table
