"""ASCII charts for the figure experiments.

The paper's figures are bar charts (Figs. 7/8) and line plots (Figs. 4/9);
these helpers render the regenerated data in the terminal so
``python -m repro.bench figure7`` shows the *picture*, not just the rows.
Pure string formatting — no plotting dependency.
"""

from __future__ import annotations

from typing import Dict, List, Mapping, Optional, Sequence

BAR_CHARS = "█"


def bar_chart(
    values: Mapping[str, float],
    width: int = 50,
    max_value: Optional[float] = None,
    unit: str = "",
    title: str = "",
) -> str:
    """Horizontal bar chart: one labelled bar per entry.

    ``max_value`` fixes the scale (e.g. 100 for the Figs. 7/8 "% of Hash"
    axis) so charts of different cells are visually comparable.
    """
    if not values:
        return f"{title}\n(no data)" if title else "(no data)"
    scale_max = max_value if max_value is not None else max(values.values())
    if scale_max <= 0:
        scale_max = 1.0
    label_width = max(len(str(k)) for k in values)
    lines: List[str] = [title] if title else []
    for label, value in values.items():
        filled = int(round(width * min(value, scale_max) / scale_max))
        bar = BAR_CHARS * filled
        lines.append(f"{str(label).rjust(label_width)} |{bar.ljust(width)}| {value:g}{unit}")
    return "\n".join(lines)


def grouped_bar_chart(
    groups: Sequence[Mapping[str, object]],
    group_key: str,
    series: Sequence[str],
    width: int = 50,
    max_value: float = 100.0,
    unit: str = "%",
    title: str = "",
) -> str:
    """Figs. 7/8 layout: one group of bars per row-dict, one bar per system."""
    lines: List[str] = [title] if title else []
    for row in groups:
        lines.append(f"-- {row[group_key]}")
        values: Dict[str, float] = {}
        for name in series:
            value = row.get(name)
            if isinstance(value, (int, float)):
                values[name] = float(value)
        lines.append(bar_chart(values, width=width, max_value=max_value, unit=unit))
    return "\n".join(lines)


def line_plot(
    xs: Sequence[float],
    series: Mapping[str, Sequence[float]],
    height: int = 12,
    width: int = 60,
    title: str = "",
    y_label: str = "",
) -> str:
    """A scatter/line plot on a character grid (Figs. 4/9 shapes).

    Each series gets its first letter as the marker; colliding points show
    the later series' marker.
    """
    points = [v for values in series.values() for v in values]
    if not points or not xs:
        return f"{title}\n(no data)" if title else "(no data)"
    y_min, y_max = min(points), max(points)
    if y_max == y_min:
        y_max = y_min + 1.0
    x_min, x_max = min(xs), max(xs)
    if x_max == x_min:
        x_max = x_min + 1.0

    grid = [[" "] * width for _ in range(height)]
    for name, values in series.items():
        marker = name[0]
        for x, y in zip(xs, values):
            col = int(round((width - 1) * (x - x_min) / (x_max - x_min)))
            row = int(round((height - 1) * (y - y_min) / (y_max - y_min)))
            grid[height - 1 - row][col] = marker

    lines: List[str] = [title] if title else []
    top_label = f"{y_max:g}"
    bottom_label = f"{y_min:g}"
    pad = max(len(top_label), len(bottom_label), len(y_label))
    for i, row_chars in enumerate(grid):
        prefix = top_label if i == 0 else (bottom_label if i == height - 1 else y_label if i == height // 2 else "")
        lines.append(f"{prefix.rjust(pad)} |{''.join(row_chars)}")
    lines.append(" " * pad + " +" + "-" * width)
    lines.append(" " * pad + f"  {x_min:g}{str(x_max).rjust(width - len(f'{x_min:g}'))}")
    legend = "   ".join(f"{name[0]} = {name}" for name in series)
    lines.append(" " * pad + "  " + legend)
    return "\n".join(lines)
