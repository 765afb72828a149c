"""``python -m repro lint`` - the verifier's command-line surface."""

from __future__ import annotations

import argparse
import json
import sys
from typing import List, Optional

from repro.analysis.discovery import AnalysisError
from repro.analysis.findings import RULE_CATALOGUE
from repro.analysis.runner import DEFAULT_DET_SCOPE, analyze

#: What ``repro lint`` checks: the one description both of its parsers
#: (``python -m repro lint`` and ``python -m repro.analysis.cli``) show.
LINT_DESCRIPTION = (
    "Static verifier for the I/O-automaton DSL: precondition purity (R1), "
    "inheritance conformance (R2), signature coherence (R3), determinism "
    "hygiene (R4), interference (R5), fast-lane conformance (R6) and "
    "suppression hygiene (SUP), without executing any transition."
)


def add_lint_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "targets",
        nargs="*",
        default=["repro"],
        help="dotted module names or paths to analyze (default: repro)",
    )
    parser.add_argument(
        "--format",
        choices=["text", "json"],
        default="text",
        help="output format (default: text)",
    )
    parser.add_argument(
        "--det-scope",
        default=",".join(DEFAULT_DET_SCOPE),
        help="comma-separated dotted prefixes the determinism rule (R4) "
             "applies to; pass an empty string to apply it everywhere",
    )
    parser.add_argument(
        "--strict-parity",
        action="store_true",
        help="also compose a strict-mode SimWorld and cross-check static "
             "ownership against the runtime tables (R2.parity)",
    )
    parser.add_argument(
        "--interference",
        action="store_true",
        help="also build the per-automaton commutativity table from the "
             "footprint engine and print it (canonical JSON; the chaos "
             "shrinker's POR input)",
    )
    parser.add_argument(
        "--output",
        default=None,
        metavar="PATH",
        help="with --interference: write the commutativity table to PATH "
             "(byte-stable) instead of printing it",
    )
    parser.add_argument(
        "--no-suppress",
        action="store_true",
        help="report findings even where a '# repro: allow[...]' comment "
             "waives them",
    )
    parser.add_argument(
        "--list-rules",
        action="store_true",
        help="print the rule catalogue and exit",
    )


def _parse_det_scope(raw: str):
    if raw == "":
        # empty prefix matches every module
        return ("",)
    return tuple(part.strip() for part in raw.split(",") if part.strip())


def run_lint(args: argparse.Namespace) -> int:
    if args.list_rules:
        for rule_id in sorted(RULE_CATALOGUE):
            summary, clause = RULE_CATALOGUE[rule_id]
            print(f"{rule_id:24} {summary}")
            print(f"{'':24} ({clause})")
        return 0

    try:
        report = analyze(
            args.targets,
            det_scope=_parse_det_scope(args.det_scope),
            respect_suppressions=not args.no_suppress,
            strict_parity=args.strict_parity,
        )
        if args.interference:
            _emit_interference(args)
    except AnalysisError as exc:
        print(f"lint: {exc}", file=sys.stderr)
        return 2

    if args.format == "json":
        print(json.dumps(report.to_dict(), indent=2, sort_keys=True))
    else:
        for finding in report.findings:
            if finding.suppressed and not args.no_suppress:
                continue
            print(finding.render())
        status = "clean" if report.ok else f"{len(report.active)} finding(s)"
        suppressed = (
            f", {len(report.suppressed)} suppressed" if report.suppressed else ""
        )
        print(
            f"lint: {status}{suppressed} - {report.classes} automata in "
            f"{report.modules} modules ({report.elapsed:.2f}s)"
        )
    return 0 if report.ok else 1


def _emit_interference(args: argparse.Namespace) -> None:
    """Build and emit the commutativity table for the lint targets."""
    from repro.analysis.discovery import load_targets
    from repro.analysis.interference import interference_table, table_json
    from repro.analysis.runner import make_class_index

    targets = load_targets(tuple(args.targets))
    index = make_class_index(targets)
    payload = table_json(interference_table(targets.classes, index))
    if args.output:
        with open(args.output, "w", encoding="utf-8", newline="") as handle:
            handle.write(payload)
        print(f"lint: interference table written to {args.output}")
    else:
        sys.stdout.write(payload)


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(prog="repro lint", description=LINT_DESCRIPTION)
    add_lint_arguments(parser)
    return run_lint(parser.parse_args(argv))


if __name__ == "__main__":
    raise SystemExit(main())
