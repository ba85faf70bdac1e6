"""Persistency-correctness analysis for the ASAP reproduction.

Three cooperating passes over the same rule namespace:

* the **static workload linter** (:mod:`repro.analysis.linter`) walks a
  workload's op streams functionally - no timing, no caches - and flags
  persistency anti-patterns (``ASAP-L...`` rules),
* the **runtime invariant sanitizer** (:mod:`repro.analysis.sanitizer`)
  observes a live simulated machine through the
  :class:`~repro.common.SimObserver` hook points and checks the WAL
  contract event by event (``ASAP-S...`` rules),
* the **persist-ordering race detector** (:mod:`repro.analysis.races`)
  builds a happens-before graph over one instrumented run's persist
  operations and reports conflicting pairs left unordered
  (``ASAP-R...`` rules), each with a fuzzer-directing witness.

Command-line front end (also reachable as ``asap-repro analyze``)::

    python -m repro.analysis lint            # lint every bundled workload
    python -m repro.analysis sanitize -w Q   # timed run with the sanitizer
    python -m repro.analysis races           # race-detect every workload
    python -m repro.analysis races --corpus tests/property/corpus
    python -m repro.analysis rules           # print the rule catalog

Rule IDs, severities, and paper references live in
:mod:`repro.analysis.rules` and are documented in ``docs/ANALYSIS.md``.
"""

from repro.analysis.rules import (
    ALL_RULES,
    LINT_RULES,
    RACE_RULES,
    SANITIZER_RULES,
    Rule,
    Violation,
    all_rules,
    get_rule,
)
from repro.analysis.linter import (
    LintMachine,
    LintResult,
    WorkloadLinter,
    lint_machine,
    lint_threads,
    lint_workload,
)
from repro.analysis.sanitizer import Sanitizer
from repro.analysis.races import (
    RaceFinding,
    RaceGraph,
    RaceTracer,
    RacesResult,
    analyze_trace,
    detect_in_case,
    detect_in_workload,
    verify_finding,
)
from repro.analysis.report import (
    ANALYSIS_SCHEMA_VERSION,
    build_report,
    render_text,
    validate_report,
    write_json,
)

__all__ = [
    "ALL_RULES",
    "LINT_RULES",
    "RACE_RULES",
    "SANITIZER_RULES",
    "Rule",
    "Violation",
    "all_rules",
    "get_rule",
    "LintMachine",
    "LintResult",
    "WorkloadLinter",
    "lint_machine",
    "lint_threads",
    "lint_workload",
    "Sanitizer",
    "RaceFinding",
    "RaceGraph",
    "RaceTracer",
    "RacesResult",
    "analyze_trace",
    "detect_in_case",
    "detect_in_workload",
    "verify_finding",
    "ANALYSIS_SCHEMA_VERSION",
    "build_report",
    "render_text",
    "validate_report",
    "write_json",
]
