"""CLI for detlint: ``python -m repro.analysis [paths...]``.

Exit status: 0 — clean (findings suppressed by pragma allowed);
1 — findings; 2 — files that failed to parse.

Examples::

    python -m repro.analysis                       # lint the default tree
    python -m repro.analysis src tests             # lint specific paths
    python -m repro.analysis --format json         # JSON report on stdout
    python -m repro.analysis --json-report out.json  # text + JSON artifact
    python -m repro.analysis --list-rules
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import List, Optional

from repro.analysis import config
from repro.analysis.engine import all_rules, lint_paths


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.analysis",
        description="detlint: AST-based determinism & invariant linter",
    )
    parser.add_argument(
        "paths",
        nargs="*",
        default=None,
        help=f"files/directories to lint (default: {' '.join(config.DEFAULT_PATHS)})",
    )
    parser.add_argument(
        "--format",
        choices=("text", "json"),
        default="text",
        help="report format on stdout (default: text)",
    )
    parser.add_argument(
        "--json-report",
        metavar="FILE",
        help="additionally write the JSON report to FILE (CI artifact)",
    )
    parser.add_argument(
        "--rule",
        action="append",
        metavar="RULE-ID",
        help="run only these rules (repeatable)",
    )
    parser.add_argument(
        "--list-rules", action="store_true", help="list registered rules and exit"
    )
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)

    rules = all_rules()
    if args.list_rules:
        for rule_cls in rules:
            scope = config.RULE_SCOPES.get(rule_cls.rule_id)
            where = ", ".join(scope.include) if scope else "(unscoped: runs nowhere)"
            print(f"{rule_cls.rule_id}: {rule_cls.title}")
            print(f"    scope: {where}")
            if scope and scope.exclude:
                print(f"    exempt: {', '.join(scope.exclude)}")
        return 0

    if args.rule:
        by_id = {cls.rule_id: cls for cls in rules}
        unknown = [rid for rid in args.rule if rid not in by_id]
        if unknown:
            print(f"unknown rule id(s): {', '.join(unknown)}", file=sys.stderr)
            print(f"known: {', '.join(sorted(by_id))}", file=sys.stderr)
            return 2
        rules = [by_id[rid] for rid in sorted(set(args.rule))]

    paths = args.paths if args.paths else list(config.DEFAULT_PATHS)
    report = lint_paths(paths, rules=rules)

    if args.json_report:
        with open(args.json_report, "w", encoding="utf-8") as fh:
            json.dump(report.to_dict(), fh, indent=2, sort_keys=True)
            fh.write("\n")

    if args.format == "json":
        json.dump(report.to_dict(), sys.stdout, indent=2, sort_keys=True)
        print()
    else:
        for finding in report.findings:
            print(finding.format_text())
        for error in report.errors:
            print(error)
        bits = [
            f"{len(report.findings)} finding(s)",
            f"{report.files_checked} file(s) checked",
        ]
        if report.suppressed:
            bits.append(f"{len(report.suppressed)} suppressed by pragma")
        if report.errors:
            bits.append(f"{len(report.errors)} parse error(s)")
        print(f"detlint: {', '.join(bits)}")

    if report.errors:
        return 2
    return 0 if not report.findings else 1


if __name__ == "__main__":
    raise SystemExit(main())
