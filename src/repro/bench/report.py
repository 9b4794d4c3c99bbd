"""Plain-text reporting: aligned tables and paper-vs-measured rows.

The benchmark harness prints the same rows/series the paper reports so a
reader can eyeball shape fidelity.  Nothing here depends on matplotlib —
output is terminal text, suitable for ``pytest -s`` and CI logs.
"""

from __future__ import annotations

from typing import Any, Sequence

__all__ = ["Table", "fmt", "check_band"]


def fmt(value: Any, digits: int = 2) -> str:
    """Human formatting: floats trimmed, None as '-'."""
    if value is None:
        return "-"
    if isinstance(value, float):
        if value == 0:
            return "0"
        if abs(value) >= 1000:
            return f"{value:,.0f}"
        return f"{value:.{digits}f}"
    return str(value)


class Table:
    """Aligned plain-text table with a title."""

    def __init__(self, title: str, columns: Sequence[str]) -> None:
        self.title = title
        self.columns = list(columns)
        self.rows: list[list[str]] = []

    def add(self, *cells: Any) -> None:
        if len(cells) != len(self.columns):
            raise ValueError(
                f"expected {len(self.columns)} cells, got {len(cells)}"
            )
        self.rows.append([fmt(c) for c in cells])

    def render(self) -> str:
        widths = [
            max(len(self.columns[i]), *(len(r[i]) for r in self.rows))
            if self.rows
            else len(self.columns[i])
            for i in range(len(self.columns))
        ]
        lines = [f"== {self.title} =="]
        header = "  ".join(c.ljust(w) for c, w in zip(self.columns, widths))
        lines.append(header)
        lines.append("-" * len(header))
        for row in self.rows:
            lines.append("  ".join(c.rjust(w) for c, w in zip(row, widths)))
        return "\n".join(lines)

    def show(self) -> None:
        print("\n" + self.render())


def check_band(
    value: float, band: tuple[float, float], slack: float = 0.0
) -> bool:
    """True when ``value`` falls in ``band`` (± relative ``slack``)."""
    lo, hi = band
    span = hi - lo
    return lo - slack * span <= value <= hi + slack * span
