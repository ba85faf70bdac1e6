"""Machine-readable JSON reports for the analysis passes.

One report schema covers all three tools::

    {
      "schema_version": 1,
      "tool": "repro.analysis",
      "pass": "lint" | "sanitize" | "races",
      "rules": [ {id, name, severity, summary, paper_ref}, ... ],
      "targets": [ per-target result dicts ],
      "summary": {"targets": N, "errors": N, "warnings": N, "ok": bool}
    }

``schema_version`` is bumped on any incompatible shape change (the
recovery trace's ``TRACE_SCHEMA`` set the precedent;
:func:`validate_report` is the matching hand-rolled validator - no
external JSON-schema dependency). The ``make lint`` target and the CI
workflow consume ``summary.ok``; humans read the per-target violation
lists.
"""

from __future__ import annotations

import json
from typing import Dict, List, Mapping

from repro.analysis.rules import LINT_RULES, RACE_RULES, SANITIZER_RULES, Violation
from repro.common.schema import Schema, check_fields

#: bump on incompatible changes to the report shape below
ANALYSIS_SCHEMA_VERSION = 1

#: the report's shape: field -> (type, required)
REPORT_SCHEMA: Schema = {
    "schema_version": (int, True),
    "tool": (str, True),
    "pass": (str, True),
    "rules": (list, True),
    "targets": (list, True),
    "summary": (dict, True),
}

_SUMMARY_SCHEMA: Schema = {
    "targets": (int, True),
    "errors": (int, True),
    "warnings": (int, True),
    "ok": (bool, True),
}

_PASSES = ("lint", "sanitize", "races")


def _summarise(violations: List[dict]) -> Dict[str, int]:
    errors = sum(1 for v in violations if v.get("severity") == "error")
    warnings = sum(1 for v in violations if v.get("severity") == "warning")
    return {"errors": errors, "warnings": warnings}


def lint_report(results: Mapping[str, object]) -> dict:
    """Build the report dict for a set of lint results (name -> LintResult)."""
    targets = [results[name].to_dict() for name in sorted(results)]
    all_violations = [v for t in targets for v in t["violations"]]
    counts = _summarise(all_violations)
    return {
        "schema_version": ANALYSIS_SCHEMA_VERSION,
        "tool": "repro.analysis",
        "pass": "lint",
        "rules": [rule.to_dict() for _, rule in sorted(LINT_RULES.items())],
        "targets": targets,
        "summary": {
            "targets": len(targets),
            "ops_checked": sum(t["ops_checked"] for t in targets),
            **counts,
            "ok": counts["errors"] == 0,
        },
    }


def sanitize_report(runs: List[dict]) -> dict:
    """Build the report dict for sanitized runs.

    Each entry of ``runs`` is ``{"workload", "scheme", "cycles",
    "violations": [Violation, ...], "events_checked"}``.
    """
    targets = []
    for run in runs:
        violations = [
            v.to_dict() if isinstance(v, Violation) else v
            for v in run.get("violations", [])
        ]
        targets.append({**run, "violations": violations})
    all_violations = [v for t in targets for v in t["violations"]]
    counts = _summarise(all_violations)
    return {
        "schema_version": ANALYSIS_SCHEMA_VERSION,
        "tool": "repro.analysis",
        "pass": "sanitize",
        "rules": [rule.to_dict() for _, rule in sorted(SANITIZER_RULES.items())],
        "targets": targets,
        "summary": {
            "targets": len(targets),
            "events_checked": sum(t.get("events_checked", 0) for t in targets),
            **counts,
            "ok": counts["errors"] == 0,
        },
    }


def races_report(results: List[object]) -> dict:
    """Build the report dict for race-detector passes.

    Each entry of ``results`` is a
    :class:`~repro.analysis.races.RacesResult` (or its
    ``to_target_dict()`` output). A finding's report severity follows its
    rule; ``summary.confirmed`` separately counts findings whose witness
    was confirmed (observed inversion or directed-replay divergence).
    """
    targets = [
        r if isinstance(r, dict) else r.to_target_dict() for r in results
    ]
    all_violations = [v for t in targets for v in t["violations"]]
    counts = _summarise(all_violations)
    return {
        "schema_version": ANALYSIS_SCHEMA_VERSION,
        "tool": "repro.analysis",
        "pass": "races",
        "rules": [rule.to_dict() for _, rule in sorted(RACE_RULES.items())],
        "targets": targets,
        "summary": {
            "targets": len(targets),
            "nodes": sum(t.get("nodes", 0) for t in targets),
            "events_checked": sum(t.get("events_checked", 0) for t in targets),
            "confirmed": sum(
                1 for v in all_violations if v.get("status") == "CONFIRMED"
            ),
            **counts,
            "ok": counts["errors"] == 0,
        },
    }


def validate_report(report: dict) -> List[str]:
    """Check a report against :data:`REPORT_SCHEMA`; returns problem
    strings (empty means valid)."""
    if not isinstance(report, dict):
        return [f"report is {type(report).__name__}, expected dict"]
    problems = check_fields(report, REPORT_SCHEMA)
    version = report.get("schema_version")
    if isinstance(version, int) and version > ANALYSIS_SCHEMA_VERSION:
        problems.append(
            f"schema_version {version} is newer than supported "
            f"{ANALYSIS_SCHEMA_VERSION}"
        )
    if "pass" in report and report["pass"] not in _PASSES:
        problems.append(
            f"pass {report['pass']!r} not one of {', '.join(_PASSES)}"
        )
    for i, target in enumerate(report.get("targets") or []):
        if not isinstance(target, dict):
            problems.append(f"targets[{i}] is not an object")
            continue
        if not isinstance(target.get("violations"), list):
            problems.append(f"targets[{i}] missing violations list")
    summary = report.get("summary")
    if isinstance(summary, dict):
        problems += check_fields(summary, _SUMMARY_SCHEMA, "summary")
    return problems


def write_json(path: str, report: dict) -> None:
    """Write ``report`` to ``path`` as indented JSON."""
    with open(path, "w") as fh:
        json.dump(report, fh, indent=2, sort_keys=False)
        fh.write("\n")


def render_text(report: dict) -> str:
    """A terse human rendering of a report (used by the CLI)."""
    lines = [f"{report['pass']}: {report['summary']['targets']} target(s)"]
    for target in report["targets"]:
        name = target.get("source") or target.get("workload", "?")
        violations = target["violations"]
        if not violations:
            lines.append(f"  {name}: clean")
            continue
        lines.append(f"  {name}: {len(violations)} finding(s)")
        for v in violations:
            where = []
            if "thread_id" in v:
                where.append(f"t{v['thread_id']}")
            if "op_index" in v:
                where.append(f"op {v['op_index']}")
            if "cycle" in v and v["cycle"] is not None:
                where.append(f"cycle {v['cycle']}")
            loc = f" ({', '.join(where)})" if where else ""
            lines.append(
                f"    {v['rule_id']} [{v['severity']}]{loc}: {v['message']}"
            )
    s = report["summary"]
    lines.append(
        f"summary: {s['errors']} error(s), {s['warnings']} warning(s) -> "
        f"{'OK' if s['ok'] else 'FAIL'}"
    )
    return "\n".join(lines)
