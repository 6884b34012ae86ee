"""Plain-text rendering of experiment results (aligned tables).

Every experiment in :mod:`repro.bench.experiments` returns rows as plain
dicts; :func:`render_table` prints them the way the paper prints its tables
— one row per configuration, one column per measure — so ROADMAP.md and
CHANGES.md can quote the output verbatim.
"""

from __future__ import annotations

from typing import Dict, List, Mapping, Optional, Sequence


def _format_cell(value: object) -> str:
    if isinstance(value, bool):
        return "Y" if value else "N"
    if isinstance(value, float):
        return f"{value:,.1f}"
    if isinstance(value, int):
        return f"{value:,}"
    return str(value)


def render_table(
    rows: Sequence[Mapping[str, object]],
    columns: Optional[Sequence[str]] = None,
    title: str = "",
) -> str:
    """Render dict rows as an aligned text table."""
    if not rows:
        return f"{title}\n(no rows)" if title else "(no rows)"
    if columns is None:
        columns = list(rows[0].keys())
    cells = [[_format_cell(row.get(col, "")) for col in columns] for row in rows]
    widths = [
        max(len(col), *(len(r[i]) for r in cells)) for i, col in enumerate(columns)
    ]
    lines: List[str] = []
    if title:
        lines.append(title)
    header = "  ".join(col.ljust(widths[i]) for i, col in enumerate(columns))
    lines.append(header)
    lines.append("  ".join("-" * w for w in widths))
    for r in cells:
        lines.append("  ".join(r[i].rjust(widths[i]) for i in range(len(columns))))
    return "\n".join(lines)


def render_series(
    series: Mapping[str, Sequence[float]],
    x_values: Sequence[object],
    x_name: str = "x",
    title: str = "",
) -> str:
    """Render named y-series against shared x values (figure data)."""
    rows: List[Dict[str, object]] = []
    for i, x in enumerate(x_values):
        row: Dict[str, object] = {x_name: x}
        for name, values in series.items():
            row[name] = values[i]
        rows.append(row)
    return render_table(rows, title=title)
