"""Plain-text tables for benchmark and example output."""

from __future__ import annotations

from typing import Iterable


def format_table(headers: list[str], rows: Iterable[Iterable]) -> str:
    """Monospace table with right-aligned numeric columns."""
    rendered = [[_cell(v) for v in row] for row in rows]
    widths = [len(h) for h in headers]
    for row in rendered:
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))
    lines = [
        "  ".join(h.ljust(widths[i]) for i, h in enumerate(headers)),
        "  ".join("-" * widths[i] for i in range(len(headers))),
    ]
    for row in rendered:
        lines.append("  ".join(cell.rjust(widths[i]) for i, cell in enumerate(row)))
    return "\n".join(lines)


def _cell(value) -> str:
    if value is None:
        return "NaN"
    if isinstance(value, float):
        if value == 0:
            return "0"
        if abs(value) >= 1e5 or abs(value) < 1e-3:
            return f"{value:.2e}"
        if abs(value) < 1:
            # Significant digits: an LER of 0.00426 must not print as 0.0.
            return f"{value:.3g}"
        return f"{value:,.1f}"
    return str(value)


def ratio(a: float, b: float) -> float:
    """Safe ratio used by comparison tables."""
    if b == 0:
        return float("inf")
    return a / b
