"""Plain-text rendering of benchmark tables."""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import List, Sequence


def geometric_mean(values: Sequence[float]) -> float:
    """Geometric mean of positive values (the paper's summary statistic)."""
    vals = [v for v in values if v > 0]
    if not vals:
        return 0.0
    return math.exp(sum(math.log(v) for v in vals) / len(vals))


@dataclass
class Table:
    """A fixed-width text table with a title, used by every experiment."""

    title: str
    columns: List[str]
    rows: List[List[object]] = field(default_factory=list)
    notes: List[str] = field(default_factory=list)

    def add_row(self, *values: object) -> None:
        if len(values) != len(self.columns):
            raise ValueError(
                f"row has {len(values)} cells for {len(self.columns)} columns"
            )
        self.rows.append(list(values))

    def add_note(self, note: str) -> None:
        self.notes.append(note)

    def column(self, name: str) -> List[object]:
        """All values of one column (for assertions in tests/benches)."""
        idx = self.columns.index(name)
        return [row[idx] for row in self.rows]

    def row(self, key: object) -> List[object]:
        """The first row whose first cell equals ``key``."""
        for row in self.rows:
            if row[0] == key:
                return row
        raise KeyError(f"no row keyed {key!r} in table {self.title!r}")

    def render(self) -> str:
        cells = [[_fmt(c) for c in self.columns]] + [
            [_fmt(c) for c in row] for row in self.rows
        ]
        widths = [
            max(len(r[i]) for r in cells) for i in range(len(self.columns))
        ]
        lines = [self.title, "=" * len(self.title)]
        header = "  ".join(c.ljust(w) for c, w in zip(cells[0], widths))
        lines.append(header)
        lines.append("-" * len(header))
        for row in cells[1:]:
            lines.append("  ".join(c.ljust(w) for c, w in zip(row, widths)))
        for note in self.notes:
            lines.append(f"note: {note}")
        return "\n".join(lines)

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.render()


def _fmt(value: object) -> str:
    if isinstance(value, float):
        if 0 < abs(value) < 1:
            # Three significant digits: at ".2f" a 2.22x kernel win read
            # "0.03" vs "0.02" ms/query.
            return f"{value:#.3g}"
        return f"{value:.2f}"
    return str(value)
