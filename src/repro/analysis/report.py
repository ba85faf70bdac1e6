"""Machine-readable JSON reports for the analysis passes.

One report schema covers all three tools::

    {
      "schema_version": 1,
      "tool": "repro.analysis",
      "pass": "lint" | "sanitize" | "races",
      "rules": [ {id, name, severity, summary, paper_ref}, ... ],
      "targets": [ per-target result dicts ],
      "summary": {"targets": N, <the pass's counters>,
                  "errors": N, "warnings": N, "ok": bool}
    }

:func:`build_report` is the one builder; the passes differ only in their
rule catalog and the summary's counters (``_PASSES``).

``schema_version`` is bumped on any incompatible shape change (the
recovery trace's ``TRACE_SCHEMA`` set the precedent;
:func:`validate_report` is the matching hand-rolled validator - no
external JSON-schema dependency). The ``make lint`` target and the CI
workflow consume ``summary.ok``; humans read the per-target violation
lists.
"""

from __future__ import annotations

import json
from typing import Dict, List, Mapping, Sequence, Tuple

from repro.analysis.rules import LINT_RULES, RACE_RULES, SANITIZER_RULES, Rule
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


#: pass -> (rule catalog, per-target counters its summary adds up, and
#: whether the summary also counts CONFIRMED findings: an observed
#: inversion or a directed-replay divergence)
_PASSES: Dict[str, Tuple[Mapping[str, Rule], Tuple[str, ...], bool]] = {
    "lint": (LINT_RULES, ("ops_checked",), False),
    "sanitize": (SANITIZER_RULES, ("events_checked",), False),
    "races": (RACE_RULES, ("nodes", "events_checked"), True),
}


def build_report(pass_name: str, targets: Sequence[dict]) -> dict:
    """The report of pass ``pass_name`` over its per-target result dicts
    (``LintResult.to_dict()``, ``RacesResult.to_target_dict()``, or a
    sanitized run), each carrying a ``violations`` list of dicts."""
    rules, counters, counts_confirmed = _PASSES[pass_name]
    violations = [v for t in targets for v in t["violations"]]
    summary = {"targets": len(targets)}
    for key in counters:
        summary[key] = sum(t.get(key, 0) for t in targets)
    if counts_confirmed:
        summary["confirmed"] = sum(v.get("status") == "CONFIRMED" for v in violations)
    errors = sum(v.get("severity") == "error" for v in violations)
    summary["errors"] = errors
    summary["warnings"] = sum(v.get("severity") == "warning" for v in violations)
    summary["ok"] = errors == 0
    return {
        "schema_version": ANALYSIS_SCHEMA_VERSION,
        "tool": "repro.analysis",
        "pass": pass_name,
        "rules": [rule.to_dict() for _, rule in sorted(rules.items())],
        "targets": list(targets),
        "summary": summary,
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
