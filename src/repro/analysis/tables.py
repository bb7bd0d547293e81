"""Plain-text table rendering in the paper's visual style."""

from __future__ import annotations

from typing import List, Optional, Sequence

__all__ = ["render_table", "render_markdown_table", "format_seconds",
           "format_speedup"]


def format_seconds(seconds: Optional[float], timed_out: bool = False, budget_label: str = ">budget") -> str:
    """Render a timing cell; censored cells render like the paper's '>2 hrs'."""
    if timed_out or seconds is None:
        return budget_label
    if seconds >= 100:
        return f"{seconds:,.0f}"
    if seconds >= 1:
        return f"{seconds:.2f}"
    if seconds >= 1e-3:
        return f"{seconds * 1e3:.2f}ms"
    return f"{seconds * 1e6:.1f}us"


def format_speedup(value: Optional[float]) -> str:
    if value is None:
        return "--"
    return f"{value:.1f}x"


def render_table(
    headers: Sequence[str],
    rows: Sequence[Sequence[object]],
    *,
    title: str = "",
    aligns: Optional[Sequence[str]] = None,
) -> str:
    """Monospace table with column auto-sizing.

    ``aligns`` holds ``"l"``/``"r"`` per column (default: first left, rest
    right — the layout of the paper's tables).
    """
    str_rows: List[List[str]] = [[str(c) for c in row] for row in rows]
    ncols = len(headers)
    for row in str_rows:
        if len(row) != ncols:
            raise ValueError(f"row has {len(row)} cells, header has {ncols}")
    if aligns is None:
        aligns = ["l"] + ["r"] * (ncols - 1)
    widths = [
        max(len(str(headers[c])), *(len(r[c]) for r in str_rows)) if str_rows else len(str(headers[c]))
        for c in range(ncols)
    ]

    def fmt_row(cells: Sequence[str]) -> str:
        parts = []
        for c, cell in enumerate(cells):
            parts.append(cell.ljust(widths[c]) if aligns[c] == "l" else cell.rjust(widths[c]))
        return "  ".join(parts).rstrip()

    sep = "  ".join("-" * w for w in widths)
    out = []
    if title:
        out.append(title)
        out.append("=" * len(title))
    out.append(fmt_row([str(h) for h in headers]))
    out.append(sep)
    out.extend(fmt_row(r) for r in str_rows)
    return "\n".join(out)


def render_markdown_table(
    headers: Sequence[str],
    rows: Sequence[Sequence[object]],
    *,
    aligns: Optional[Sequence[str]] = None,
) -> str:
    """GitHub-flavoured markdown table (the experiment reports' format).

    Same column conventions as :func:`render_table`: first column left,
    the rest right, overridable per column with ``aligns``.
    """
    ncols = len(headers)
    str_rows = [[str(c) for c in row] for row in rows]
    for row in str_rows:
        if len(row) != ncols:
            raise ValueError(f"row has {len(row)} cells, header has {ncols}")
    if aligns is None:
        aligns = ["l"] + ["r"] * (ncols - 1)
    rule = ["---" if a == "l" else "---:" for a in aligns]
    lines = [
        "| " + " | ".join(str(h) for h in headers) + " |",
        "| " + " | ".join(rule) + " |",
    ]
    lines.extend("| " + " | ".join(row) + " |" for row in str_rows)
    return "\n".join(lines)
