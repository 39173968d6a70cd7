"""Fixed-width ASCII table rendering for paper-style result tables.

The experiment harness reproduces each of the paper's tables as a
:class:`Table`: a header row, typed columns and a monospace renderer.  No
plotting library is assumed; tables are the primary human-readable output
(mirroring how the paper reports results).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Sequence

__all__ = ["Table", "format_float", "format_seconds", "format_percent"]


def format_float(value: float, digits: int = 2) -> str:
    """Format a float with ``digits`` decimals, empty string for ``None``/NaN."""
    if value is None:
        return ""
    try:
        v = float(value)
    except (TypeError, ValueError):
        return str(value)
    if v != v:  # NaN
        return ""
    return f"{v:.{digits}f}"


def format_seconds(value: float) -> str:
    """Format a duration in seconds the way the paper prints them (``471s``)."""
    if value is None:
        return ""
    v = float(value)
    if v != v:
        return ""
    return f"{v:.0f}s"


def format_percent(value: float, digits: int = 1) -> str:
    """Format a fraction as a signed percentage (``-33.4%``)."""
    if value is None:
        return ""
    v = float(value)
    if v != v:
        return ""
    return f"{100.0 * v:+.{digits}f}%"


@dataclass
class Table:
    """A simple column-oriented table with an ASCII renderer.

    Parameters
    ----------
    title:
        Table caption (printed above the header).
    columns:
        Column names, in display order.
    """

    title: str
    columns: Sequence[str]
    rows: list[list[Any]] = field(default_factory=list)

    def add_row(self, *values: Any) -> None:
        """Append one row; must match the number of columns."""
        if len(values) != len(self.columns):
            raise ValueError(
                f"row has {len(values)} values, table has {len(self.columns)} columns"
            )
        self.rows.append(list(values))

    def render(self, max_width: int | None = None) -> str:
        """Render the table as monospace text."""
        headers = [str(c) for c in self.columns]
        str_rows = [[_stringify(v) for v in row] for row in self.rows]
        widths = [len(h) for h in headers]
        for row in str_rows:
            for i, cell in enumerate(row):
                widths[i] = max(widths[i], len(cell))

        def fmt_line(cells: Sequence[str]) -> str:
            return " | ".join(c.rjust(w) for c, w in zip(cells, widths))

        sep = "-+-".join("-" * w for w in widths)
        lines = [self.title, fmt_line(headers), sep]
        lines.extend(fmt_line(row) for row in str_rows)
        text = "\n".join(lines)
        if max_width is not None:
            text = "\n".join(line[:max_width] for line in text.splitlines())
        return text


def _stringify(value: Any) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        if value != value:
            return ""
        if value == int(value) and abs(value) < 1e15:
            return str(int(value))
        return f"{value:.4g}"
    return str(value)
