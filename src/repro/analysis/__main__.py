"""``python -m repro.analysis``: the correctness-analysis front end.

Subcommands::

    lint [WORKLOAD ...]      statically lint workload op streams
    sanitize [-w WL ...]     run workloads under the runtime sanitizer
    races [-w WL ...]        happens-before race detection over persist
                             graphs (or --corpus DIR for fuzz cases)
    rules                    print the rule catalog

Every subcommand exits 0 when no error-severity violation was found
(``--strict`` also fails on warnings) and can emit the schema-versioned
JSON report with ``--json FILE``. The same front end is reachable as
``asap-repro analyze ...``.
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

from repro.analysis.linter import lint_workload
from repro.analysis.report import build_report, render_text, write_json
from repro.analysis.rules import all_rules
from repro.analysis.sanitizer import Sanitizer
from repro.common.errors import ReproError
from repro.workloads import WorkloadParams, workload_names


def _lint_params(args) -> WorkloadParams:
    return WorkloadParams(
        num_threads=args.threads,
        ops_per_thread=args.ops,
        value_bytes=args.value_bytes,
        setup_items=args.setup_items,
    )


def _finish(report: dict, args) -> int:
    """Print ``report``, write it under ``--json``, and return the exit
    status: 1 on an error-severity finding (on any finding under
    ``--strict``), else 0."""
    print(render_text(report))
    if args.json:
        write_json(args.json, report)
        print(f"wrote {args.json}")
    failed = not report["summary"]["ok"] or (
        args.strict and report["summary"]["warnings"] > 0
    )
    return 1 if failed else 0


def _cmd_lint(args) -> int:
    names = sorted(set(args.workloads or workload_names()))
    params = _lint_params(args)
    targets = [lint_workload(name, params).to_dict() for name in names]
    return _finish(build_report("lint", targets), args)


def _cmd_sanitize(args) -> int:
    from repro.harness.runner import default_config, default_params, run_once

    names = args.workloads or ["Q", "HM", "BN"]
    targets = []
    for name in names:
        sanitizer = Sanitizer(raise_on_violation=False)
        result = run_once(
            name,
            args.scheme,
            config=default_config(quick=not args.full),
            params=default_params(quick=not args.full),
            sanitize=sanitizer,
        )
        targets.append(
            {
                "source": name,
                "workload": name,
                "scheme": args.scheme,
                "cycles": result.cycles,
                "events_checked": sanitizer.events_checked,
                "violations": [v.to_dict() for v in sanitizer.violations],
            }
        )
    return _finish(build_report("sanitize", targets), args)


def _cmd_races(args) -> int:
    from repro.analysis.races import detect_in_case, detect_in_workload
    from repro.harness.runner import default_config, default_params

    targets = []
    if args.corpus or args.case:
        from repro.harness.fuzz import load_corpus_entry

        paths = list(args.case or [])
        if args.corpus:
            import glob
            import os

            paths.extend(
                sorted(glob.glob(os.path.join(args.corpus, "*.json")))
            )
        for path in paths:
            case, _meta = load_corpus_entry(path)
            targets.append(detect_in_case(case, source=path).to_target_dict())
    else:
        names = args.workloads or workload_names()
        config = default_config(quick=not args.full)
        params = default_params(quick=not args.full)
        for name in names:
            result = detect_in_workload(
                name, args.scheme, config=config, params=params
            )
            targets.append(result.to_target_dict())
    return _finish(build_report("races", targets), args)


def _cmd_rules(args) -> int:
    for rule in all_rules():
        print(f"{rule.id}  {rule.name} [{rule.severity}]")
        print(f"    {rule.summary}")
        print(f"    ref: {rule.paper_ref}")
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.analysis",
        description="Persistency-correctness analysis for the ASAP reproduction",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    lint = sub.add_parser("lint", help="statically lint workload op streams")
    lint.add_argument("workloads", nargs="*", help="Table 3 names (default: all)")
    lint.add_argument("--threads", type=int, default=2)
    lint.add_argument("--ops", type=int, default=24, help="ops per thread")
    lint.add_argument("--value-bytes", type=int, default=64)
    lint.add_argument("--setup-items", type=int, default=24)
    lint.add_argument("--json", metavar="FILE", help="write the JSON report here")
    lint.add_argument("--strict", action="store_true", help="fail on warnings too")
    lint.set_defaults(fn=_cmd_lint)

    sanitize = sub.add_parser(
        "sanitize", help="run workloads with the runtime invariant sanitizer"
    )
    sanitize.add_argument(
        "-w", "--workloads", nargs="*", default=None, help="Table 3 names"
    )
    from repro.persist import scheme_names

    sanitize.add_argument("--scheme", default="asap", choices=scheme_names())
    sanitize.add_argument("--full", action="store_true", help="full-size machine")
    sanitize.add_argument("--json", metavar="FILE")
    sanitize.add_argument("--strict", action="store_true")
    sanitize.set_defaults(fn=_cmd_sanitize)

    races = sub.add_parser(
        "races",
        help="happens-before race detection over persist graphs",
    )
    races.add_argument(
        "-w", "--workloads", nargs="*", default=None, help="Table 3 names"
    )
    races.add_argument("--scheme", default="asap", choices=scheme_names())
    races.add_argument("--full", action="store_true", help="full-size machine")
    races.add_argument(
        "--corpus",
        metavar="DIR",
        default=None,
        help="race-detect the fuzz corpus JSON cases in DIR instead of "
        "workloads",
    )
    races.add_argument(
        "--case",
        metavar="FILE",
        action="append",
        default=None,
        help="race-detect one corpus JSON case (repeatable)",
    )
    races.add_argument("--json", metavar="FILE")
    races.add_argument("--strict", action="store_true")
    races.set_defaults(fn=_cmd_races)

    rules = sub.add_parser("rules", help="print the rule catalog")
    rules.set_defaults(fn=_cmd_rules)

    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
