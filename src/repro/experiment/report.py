"""Report generation: the results DB rendered as Markdown and HTML.

One code path builds a list of *sections* (title + markdown-ish body
parts); :func:`markdown_report` joins them for CI job summaries
(``$GITHUB_STEP_SUMMARY``) and :func:`html_report` wraps the same
sections in a standalone static page (inline CSS, no dependencies) for
the nightly artifact.  Content, per experiment:

* a trial summary table (status, duration),
* min/median/spread of the headline metrics across repeat groups — the
  variance that best-of-N headlines hide,
* sparkline trends of the headline metrics over **all** historical rows
  per trial id (the append-only DB's drift view — `trend` on the CLI),
* windowed serving rollups (``…windowed.*`` metrics from ``repro.obs``),
* the paper figures' rendered tables (the ``rendered`` text metric),
* failed trials' tracebacks.
"""

from __future__ import annotations

import html
import re
import statistics
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.bench.charts import sparkline
from repro.bench.reporting import render_markdown_table
from repro.experiment.db import ResultsDB
from repro.experiment.spec import ExperimentSpec, group_order

#: Numeric metrics worth aggregating across repeats / showing per trial.
_HEADLINE_PATTERN = re.compile(
    r"(_per_sec|hops_per_query|p50_ms|p95_ms|p99_ms|cache_hit_rate)$"
)


@dataclass
class Section:
    """One report section: markdown paragraphs and/or preformatted blocks."""

    title: str
    #: (kind, text) where kind is "md" (markdown) or "pre" (verbatim block).
    parts: List[Tuple[str, str]] = field(default_factory=list)


def build_sections(db: ResultsDB, spec: ExperimentSpec) -> List[Section]:
    experiment = db.latest_experiment(spec.name)
    if experiment is None:
        return [Section(f"experiment {spec.name!r}", [("md", "_no runs in this DB_")])]
    trials = db.latest_trials(experiment["id"])
    metrics_by_trial: Dict[str, Dict[str, object]] = {
        row["trial_id"]: db.metrics_for(row["id"]) for row in trials
    }
    rows_by_id = {row["trial_id"]: row for row in trials}

    sections: List[Section] = []
    head = Section(f"Experiment `{spec.name}`")
    ok = sum(1 for row in trials if row["status"] == "ok")
    failed = len(trials) - ok
    missing = len(spec.trials) - len(
        {t.trial_id for t in spec.trials} & set(rows_by_id)
    )
    status_line = f"{ok} ok, {failed} failed, {missing} not yet run (of {len(spec.trials)} trials)"
    if spec.description:
        head.parts.append(("md", spec.description))
    head.parts.append(("md", status_line))

    summary_rows = []
    for trial in spec.trials:
        row = rows_by_id.get(trial.trial_id)
        if row is None:
            summary_rows.append({"trial": trial.trial_id, "status": "not run"})
            continue
        summary_rows.append(
            {
                "trial": trial.trial_id,
                "status": row["status"],
                "seconds": round(row["duration_seconds"], 1),
            }
        )
    head.parts.append(("md", render_markdown_table(summary_rows)))
    sections.append(head)

    spread = _repeat_spread_section(spec, rows_by_id, metrics_by_trial)
    if spread is not None:
        sections.append(spread)

    trends = _trend_section(db, spec, metrics_by_trial)
    if trends is not None:
        sections.append(trends)

    windowed = _windowed_section(spec, metrics_by_trial)
    if windowed is not None:
        sections.append(windowed)

    rendered = _rendered_sections(spec, metrics_by_trial)
    sections.extend(rendered)

    failures = _failure_section(spec, rows_by_id)
    if failures is not None:
        sections.append(failures)
    return sections


def _repeat_spread_section(spec, rows_by_id, metrics_by_trial) -> Optional[Section]:
    """min/median/spread of headline metrics across each repeat group."""
    groups: Dict[str, List[str]] = {}
    for trial in spec.trials:
        groups.setdefault(trial.group, []).append(trial.trial_id)
    rows = []
    for group in group_order(spec.trials):
        members = [
            t
            for t in groups[group]
            if rows_by_id.get(t) is not None and rows_by_id[t]["status"] == "ok"
        ]
        if len(members) < 2:
            continue
        by_metric: Dict[str, List[float]] = {}
        for trial_id in members:
            for name, value in metrics_by_trial[trial_id].items():
                if isinstance(value, float) and _HEADLINE_PATTERN.search(name):
                    by_metric.setdefault(name, []).append(value)
        for name in sorted(by_metric):
            values = by_metric[name]
            if len(values) < 2:
                continue
            median = statistics.median(values)
            spread = 100.0 * (max(values) - min(values)) / median if median else 0.0
            rows.append(
                {
                    "group": group,
                    "metric": name,
                    "repeats": len(values),
                    "min": round(min(values), 3),
                    "median": round(median, 3),
                    "max": round(max(values), 3),
                    "spread %": round(spread, 1),
                }
            )
    if not rows:
        return None
    section = Section("Repeat variance (min / median / spread)")
    section.parts.append(("md", render_markdown_table(rows)))
    return section


def _trend_section(db, spec, metrics_by_trial) -> Optional[Section]:
    """Headline-metric sparklines over each trial id's full row history.

    Only trials with at least two historical values appear (one point is
    not a trend); the table mirrors ``python -m repro.experiment trend``.
    """
    rows = []
    for trial in spec.trials:
        metrics = metrics_by_trial.get(trial.trial_id)
        if not metrics:
            continue
        names = sorted(
            name
            for name, value in metrics.items()
            if isinstance(value, float) and _HEADLINE_PATTERN.search(name)
        )
        for name in names:
            history = db.metric_history(trial.trial_id, name, experiment=spec.name)
            values = [value for _, value in history]
            if len(values) < 2:
                continue
            first, last = values[0], values[-1]
            rows.append(
                {
                    "trial": trial.trial_id,
                    "metric": name,
                    "runs": len(values),
                    "first": round(first, 3),
                    "last": round(last, 3),
                    "delta %": round(100.0 * (last - first) / first, 1) if first else "-",
                    "trend": sparkline(values, width=30),
                }
            )
    if not rows:
        return None
    section = Section("Trends (all historical rows per trial)")
    section.parts.append(("md", render_markdown_table(rows)))
    return section


_WINDOWED_PATTERN = re.compile(r"(^|\.)windowed\.")


def _windowed_section(spec, metrics_by_trial) -> Optional[Section]:
    """The obs windowed-serving rollups any trial exported, as one table."""
    rows = []
    for trial in spec.trials:
        metrics = metrics_by_trial.get(trial.trial_id)
        if not metrics:
            continue
        for name in sorted(metrics):
            value = metrics[name]
            if isinstance(value, float) and _WINDOWED_PATTERN.search(name):
                rows.append(
                    {
                        "trial": trial.trial_id,
                        "metric": name,
                        "value": round(value, 4),
                    }
                )
    if not rows:
        return None
    section = Section("Windowed serving rollups (repro.obs)")
    section.parts.append(("md", render_markdown_table(rows)))
    return section


def _rendered_sections(spec, metrics_by_trial) -> List[Section]:
    sections: List[Section] = []
    for trial in spec.trials:
        metrics = metrics_by_trial.get(trial.trial_id)
        if not metrics:
            continue
        rendered = metrics.get("rendered")
        if isinstance(rendered, str) and rendered.strip():
            section = Section(f"Figure: {trial.trial_id}")
            section.parts.append(("pre", rendered))
            sections.append(section)
    return sections


def _failure_section(spec, rows_by_id) -> Optional[Section]:
    parts: List[Tuple[str, str]] = []
    for trial in spec.trials:
        row = rows_by_id.get(trial.trial_id)
        if row is not None and row["status"] != "ok":
            parts.append(("md", f"**{trial.trial_id}** failed:"))
            parts.append(("pre", (row["traceback"] or "(no traceback)").strip()))
    if not parts:
        return None
    return Section("Failed trials", parts)


def markdown_report(db: ResultsDB, spec: ExperimentSpec) -> str:
    lines: List[str] = []
    for index, section in enumerate(build_sections(db, spec)):
        lines.append(("## " if index == 0 else "### ") + section.title)
        lines.append("")
        for kind, text in section.parts:
            if kind == "pre":
                lines.append("```text")
                lines.append(text)
                lines.append("```")
            else:
                lines.append(text)
            lines.append("")
    return "\n".join(lines).rstrip() + "\n"


_HTML_STYLE = """
body { font-family: system-ui, sans-serif; margin: 2rem auto; max-width: 72rem;
       color: #1a1a1a; }
h1, h2 { border-bottom: 1px solid #ddd; padding-bottom: .3rem; }
table { border-collapse: collapse; margin: .8rem 0; }
th, td { border: 1px solid #ccc; padding: .25rem .6rem; text-align: right; }
th:first-child, td:first-child { text-align: left; }
pre { background: #f6f8fa; padding: .8rem; overflow-x: auto; font-size: .85rem; }
.failed { color: #b00020; font-weight: bold; }
"""


def _markdown_table_to_html(text: str) -> str:
    """The report's own pipe tables as <table> markup (no md dependency)."""
    lines = [line for line in text.splitlines() if line.startswith("|")]
    if len(lines) < 2:
        return f"<p>{html.escape(text)}</p>"
    def cells(line: str) -> List[str]:
        return [c.strip() for c in line.strip().strip("|").split("|")]
    out = ["<table>", "<tr>"]
    out += [f"<th>{html.escape(c)}</th>" for c in cells(lines[0])]
    out.append("</tr>")
    for line in lines[2:]:
        out.append("<tr>")
        out += [f"<td>{html.escape(c)}</td>" for c in cells(line)]
        out.append("</tr>")
    out.append("</table>")
    return "".join(out)


def html_report(db: ResultsDB, spec: ExperimentSpec) -> str:
    body: List[str] = []
    for index, section in enumerate(build_sections(db, spec)):
        tag = "h1" if index == 0 else "h2"
        body.append(f"<{tag}>{html.escape(section.title)}</{tag}>")
        for kind, text in section.parts:
            if kind == "pre":
                body.append(f"<pre>{html.escape(text)}</pre>")
            elif text.lstrip().startswith("|"):
                body.append(_markdown_table_to_html(text))
            else:
                body.append(f"<p>{html.escape(text)}</p>")
    return (
        "<!DOCTYPE html>\n<html><head><meta charset='utf-8'>"
        f"<title>experiment report: {html.escape(spec.name)}</title>"
        f"<style>{_HTML_STYLE}</style></head>\n<body>\n"
        + "\n".join(body)
        + "\n</body></html>\n"
    )
