"""ASCII table rendering for experiment reports."""

from __future__ import annotations

from typing import List, Sequence

__all__ = ["render_table"]


def render_table(headers: Sequence[str], rows: Sequence[Sequence[object]]) -> str:
    """Render a padded ASCII table with a header rule.

    Column widths adapt to content; all cells are stringified.
    """
    if not headers:
        raise ValueError("headers must be non-empty")
    str_rows: List[List[str]] = [[str(c) for c in row] for row in rows]
    for row in str_rows:
        if len(row) != len(headers):
            raise ValueError("row width does not match headers")
    widths = [len(h) for h in headers]
    for row in str_rows:
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))
    def fmt(row: Sequence[str]) -> str:
        return "  ".join(cell.ljust(widths[i]) for i, cell in enumerate(row))

    lines = [fmt(headers), "-" * (sum(widths) + 2 * (len(widths) - 1))]
    lines.extend(fmt(row) for row in str_rows)
    return "\n".join(lines)
