"""Explainable recovery: ``asap-repro recover --explain``.

Recovery is the one phase of the model with no execution trace to read -
it runs over a dead machine's PM image and either produces a consistent
image or it does not. This module makes its reasoning inspectable: it
runs :func:`repro.recovery.recover.recover` once and turns the crash
state plus the :class:`~repro.recovery.recover.RecoveryReport` - the
matched records, the undo (or replay) order, the durable markers - into
a structured, deterministic JSON trace with every restore numbered, plus
a human narrative rendered from the same data.

The trace format is versioned (:data:`SCHEMA_VERSION`) and validated by
:func:`validate_trace` against :data:`TRACE_SCHEMA` (with the shape
checker the analysis reports share, :mod:`repro.common.schema`). CI smokes
the whole path on the regression corpus. Worked example and field-by-
field description: docs/RECOVERY.md.
"""

from __future__ import annotations

import json
from typing import Dict, List, Tuple

from repro.common.schema import Schema, check_fields
from repro.mem.image import MemoryImage
from repro.recovery.crash import CrashState
from repro.recovery.recover import RecoveryReport, recover

SCHEMA_VERSION = 2

#: the trace's shape: field -> (type, required). "list[dict]" values are
#: checked per-element against the nested spec in :data:`_NESTED`.
TRACE_SCHEMA: Schema = {
    "schema_version": (int, True),
    "log_kind": (str, True),
    "crash_cycle": (int, True),
    "uncommitted": (list, True),  # [rid, ...]
    "dependence_entries": (list, True),  # persisted Dependence List
    "order": (list, True),  # undo/replay order, [rid, ...]
    "records": (list, True),
    "decisions": (list, True),
    "summary": (dict, True),
}

_NESTED: Dict[str, Schema] = {
    "records": {
        "rid": (int, True),
        "header_addr": (int, True),
        "entries": (list, True),  # [{line, entry_addr, chained}]
    },
    "decisions": {
        "step": (int, True),
        "action": (str, True),  # "restore"
        "rid": (int, True),
        "line": (int, True),
        "entry_addr": (int, True),
    },
    "summary": {
        "undone_rids": (list, True),
        "restored_lines": (int, True),
        "records_scanned": (int, True),
        "records_matched": (int, True),
        "estimated_cycles": (int, True),
        "consistent": (bool, False),  # present when verified against a run
    },
}


def validate_trace(trace: dict) -> List[str]:
    """Check a trace against :data:`TRACE_SCHEMA`; returns problem strings
    (empty means valid)."""
    if not isinstance(trace, dict):
        return [f"trace is {type(trace).__name__}, expected dict"]
    problems = check_fields(trace, TRACE_SCHEMA)
    for key in ("records", "decisions"):
        for i, item in enumerate(trace.get(key) or []):
            if isinstance(item, dict):
                problems += check_fields(item, _NESTED[key], f"{key}[{i}]")
            else:
                problems.append(f"{key}[{i}] is not an object")
    summary = trace.get("summary")
    if isinstance(summary, dict):
        problems += check_fields(summary, _NESTED["summary"], "summary")
    if trace.get("schema_version") not in (None, SCHEMA_VERSION):
        problems.append(
            f"schema_version {trace['schema_version']} != {SCHEMA_VERSION}"
        )
    return problems


def _trace(state: CrashState, report: RecoveryReport) -> dict:
    """The crash state and what recovery decided, as a JSON-able trace."""
    logs: Dict[int, list] = {}
    for rid, _header, entries in report.records:
        logs.setdefault(rid, []).extend(entries)
    restores = [
        (rid, line, entry_addr)
        for rid in report.undone_rids
        for line, entry_addr, _chained in logs.get(rid, ())
    ]
    out = {
        "schema_version": SCHEMA_VERSION,
        "log_kind": state.log_kind,
        "crash_cycle": state.crash_cycle,
        "uncommitted": sorted(e["rid"] for e in state.dependence_entries),
        "dependence_entries": [
            {"rid": e["rid"], "deps": sorted(e["deps"])}
            for e in state.dependence_entries
        ],
        "order": list(report.undone_rids),
        "records": [
            {
                "rid": rid,
                "header_addr": header_addr,
                "entries": [
                    {"line": line, "entry_addr": addr, "chained": chained}
                    for line, addr, chained in entries
                ],
            }
            for rid, header_addr, entries in report.records
        ],
        "decisions": [
            {
                "step": step,
                "action": "restore",
                "rid": rid,
                "line": line,
                "entry_addr": entry_addr,
            }
            for step, (rid, line, entry_addr) in enumerate(restores, 1)
        ],
        "summary": {
            "undone_rids": list(report.undone_rids),
            "restored_lines": report.restored_lines,
            "records_scanned": report.records_scanned,
            "records_matched": report.records_matched,
            "estimated_cycles": report.estimated_cycles,
        },
    }
    if report.markers:
        out["markers"] = [{"rid": rid, "seq": seq} for seq, rid in report.markers]
    return out


def explain_recovery(
    state: CrashState,
) -> Tuple[MemoryImage, RecoveryReport, dict]:
    """Run :func:`~repro.recovery.recover.recover`; returns the recovered
    image, the report, and the (schema-valid, deterministic) trace."""
    image, report = recover(state)
    return image, report, _trace(state, report)


def render_narrative(trace: dict) -> str:
    """The trace as a step-by-step human-readable recovery story."""
    lines: List[str] = []
    kind = trace["log_kind"]
    lines.append(f"crash at cycle {trace['crash_cycle']} ({kind} log)")
    unc = trace["uncommitted"]
    lines.append(
        f"dependence list: {len(unc)} uncommitted region(s) "
        f"{[hex(r) for r in unc]}"
    )
    for e in trace["dependence_entries"]:
        deps = ", ".join(hex(d) for d in e["deps"]) or "none"
        lines.append(f"  region {e['rid']:#x}: outstanding deps {deps}")
    verb = "replay (commit-marker) order" if kind == "redo" else "undo order"
    lines.append(
        f"{verb}: " + (" -> ".join(hex(r) for r in trace["order"]) or "empty")
    )
    lines.append(
        f"log scan: {trace['summary']['records_scanned']} record(s) read, "
        f"{trace['summary']['records_matched']} matched"
    )
    for rec in trace["records"]:
        ent = ", ".join(
            f"{e['line']:#x}{' (chained)' if e['chained'] else ''}"
            for e in rec["entries"]
        )
        lines.append(
            f"  record @{rec['header_addr']:#x} rid {rec['rid']:#x}: "
            f"entries [{ent or 'none confirmed'}]"
        )
    for d in trace["decisions"]:
        lines.append(
            f"step {d['step']}: restore line {d['line']:#x} from log "
            f"entry @{d['entry_addr']:#x} (region {d['rid']:#x})"
        )
    s = trace["summary"]
    tail = (
        f"done: {len(s['undone_rids'])} region(s) processed, "
        f"{s['restored_lines']} line(s) restored, "
        f"~{s['estimated_cycles']} cycles"
    )
    if "consistent" in s:
        tail += (
            "; verified CONSISTENT" if s["consistent"] else "; INCONSISTENT"
        )
    lines.append(tail)
    return "\n".join(lines)


# -- CLI (the ``asap-repro recover`` subcommand) ----------------------------
# The verdict is the fuzzer's: :func:`repro.harness.fuzz.check_crash` (the
# oracle comparison, the determinism probe and the workload validators).


def main(argv=None) -> int:
    import argparse
    import sys

    parser = argparse.ArgumentParser(
        prog="asap-repro recover",
        description="Crash a corpus case and replay recovery step by step",
    )
    parser.add_argument(
        "--case",
        required=True,
        metavar="FILE.json",
        help="a fuzz-corpus case file (tests/property/corpus/*.json)",
    )
    parser.add_argument(
        "--crash-frac",
        type=float,
        default=None,
        metavar="F",
        help="crash at F * total cycles (default: the case's first pinned "
        "crash_frac, else 0.5)",
    )
    parser.add_argument(
        "--explain",
        action="store_true",
        help="print the step-by-step recovery narrative",
    )
    parser.add_argument(
        "--json",
        metavar="FILE",
        default=None,
        help="write the structured recovery trace as JSON to FILE "
        "('-' for stdout)",
    )
    args = parser.parse_args(argv)

    from repro.harness.fuzz import (
        clean_run,
        crash_cycles,
        crash_sweep,
        load_corpus_entry,
    )

    case, _meta = load_corpus_entry(args.case)
    frac = args.crash_frac
    if frac is None:
        frac = case.crash_fracs[0] if case.crash_fracs else 0.5

    _failures, total = clean_run(case)
    (check,) = crash_sweep(case, crash_cycles(total, fracs=[frac]))
    trace = _trace(check.state, check.report)
    trace["summary"]["consistent"] = not check.problems

    problems = validate_trace(trace)
    if args.explain:
        print(render_narrative(trace))
    if args.json:
        payload = json.dumps(trace, indent=2, sort_keys=True) + "\n"
        if args.json == "-":
            sys.stdout.write(payload)
        else:
            with open(args.json, "w") as fh:
                fh.write(payload)
            print(f"wrote {args.json}")
    if not args.explain and not args.json:
        print(render_narrative(trace))
    verdict = check.verdict.explain()
    print(verdict)
    for p in check.problems:
        if p != verdict:
            print(p)
    for p in problems:
        print(f"trace schema problem: {p}", file=sys.stderr)
    return 0 if not check.problems and not problems else 1


if __name__ == "__main__":
    import sys

    sys.exit(main())
