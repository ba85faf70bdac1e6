"""Rule catalog and violation records for the persistency analyses.

Two rule families share one namespace:

* ``ASAP-Lxxx`` - static workload-linter rules (:mod:`repro.analysis.linter`),
  judged over an op stream without executing timing,
* ``ASAP-Sxxx`` - runtime sanitizer rules (:mod:`repro.analysis.sanitizer`),
  checked on live machine events via the :class:`~repro.common.SimObserver`
  hook points,
* ``ASAP-Rxxx`` - persist-ordering race rules (:mod:`repro.analysis.races`),
  judged by a happens-before pass over the persist graph of one
  instrumented run; each finding carries a fuzzer-replayable witness.

Each rule names the paper section whose contract it enforces; the catalog
is rendered by ``python -m repro.analysis rules`` and documented in
``docs/ANALYSIS.md``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, Optional

from repro.common.errors import AnalysisError

ERROR = "error"
WARNING = "warning"


@dataclass(frozen=True)
class Rule:
    """One analysis rule."""

    id: str
    name: str
    severity: str
    summary: str
    paper_ref: str

    def to_dict(self) -> dict:
        return {
            "id": self.id,
            "name": self.name,
            "severity": self.severity,
            "summary": self.summary,
            "paper_ref": self.paper_ref,
        }


LINT_RULES = {
    rule.id: rule
    for rule in (
        Rule(
            "ASAP-L001",
            "pm-store-outside-region",
            ERROR,
            "A store to persistent memory outside any asap_begin/asap_end "
            "region: the write is neither logged nor failure-atomic.",
            "Secs. 4.5-4.6 (WAL contract covers region stores only)",
        ),
        Rule(
            "ASAP-L002",
            "unbalanced-region",
            ERROR,
            "asap_end without a matching asap_begin, or a thread that "
            "finishes with an atomic region still open.",
            "Secs. 4.5, 4.7 (region begin/end pairing and flattening)",
        ),
        Rule(
            "ASAP-L003",
            "lock-mismatch",
            ERROR,
            "A lock released while not held, re-acquired while held, or "
            "still held when its thread finishes.",
            "Sec. 2.1 (WAL provides atomicity, locks provide isolation)",
        ),
        Rule(
            "ASAP-L004",
            "fence-inside-region",
            ERROR,
            "asap_fence inside an open atomic region: the fence waits for "
            "the thread's last region to commit, which cannot happen "
            "before the region ends - guaranteed deadlock.",
            "Sec. 5.2 (synchronous persistence on demand)",
        ),
        Rule(
            "ASAP-L005",
            "uncommitted-pm-read",
            WARNING,
            "A read of persistent state last written by another thread's "
            "still-open atomic region: at a crash point here, recovery may "
            "roll the observed value back (a dirty read across regions).",
            "Secs. 4.6.3, 5.5 (dependence capture and recovery order)",
        ),
        Rule(
            "ASAP-L006",
            "migrate-inside-region",
            ERROR,
            "A context switch inside an atomic region; threads migrate "
            "between regions, after outstanding persists complete.",
            "Sec. 5.7 (context switching at quantum boundaries)",
        ),
        Rule(
            "ASAP-L007",
            "region-lock-overlap",
            WARNING,
            "A lock's critical section and an atomic region partially "
            "overlap (acquired outside the region but released inside it, "
            "or vice versa): isolation and failure-atomicity scopes must "
            "nest cleanly.",
            "Sec. 2.1 (regions nest inside critical sections)",
        ),
    )
}

SANITIZER_RULES = {
    rule.id: rule
    for rule in (
        Rule(
            "ASAP-S001",
            "log-before-data",
            ERROR,
            "A data persist (DPO or eviction writeback) for a line of an "
            "uncommitted region reached the persistence domain before the "
            "line's log entry was durable: undo logging is broken for "
            "that line.",
            "Sec. 4.6.1 (LockBit protocol: log persists before data)",
        ),
        Rule(
            "ASAP-S002",
            "commit-order",
            ERROR,
            "A region committed while a predecessor on its Dependence "
            "List was still uncommitted: recovery could expose an effect "
            "without its cause.",
            "Secs. 4.5, 4.8 (Dependence List gates Fig. 4 transition 4)",
        ),
        Rule(
            "ASAP-S003",
            "capacity-exceeded",
            ERROR,
            "A finite hardware structure (CL List entries/CLPtr slots, "
            "Dependence List entries/Dep slots, LH-WPQ, WPQ, MSHR file) "
            "holds more items than its configured capacity: a structural "
            "stall was bypassed.",
            "Table 2, Secs. 4.6.2, 7.4 (structure sizes and stalls)",
        ),
        Rule(
            "ASAP-S004",
            "freed-log-use",
            ERROR,
            "A log persist operation was issued for a region that already "
            "committed and freed its log records: the entry would land in "
            "a record slot that may belong to another region.",
            "Secs. 4.4, 5.5 (log freeing at commit, circular reuse)",
        ),
        Rule(
            "ASAP-S005",
            "mshr-consistency",
            ERROR,
            "The non-blocking hierarchy's outstanding-miss tracking broke "
            "its contract: a second fetch was allocated for a line already "
            "in flight, a merge or fill targeted a line with no in-flight "
            "fetch, or a fetch completed with no queued requester.",
            "docs/MEMORY.md (MSHR allocate/merge/replay rules)",
        ),
    )
}

RACE_RULES = {
    rule.id: rule
    for rule in (
        Rule(
            "ASAP-R001",
            "unordered-data-persists",
            ERROR,
            "Two persists of the same line with different payloads, from "
            "different regions, have no durability-ordering edge between "
            "them: which value survives a crash depends on WPQ timing "
            "(the PR 3 cross-thread commit-ordering bug class).",
            "Sec. 4.8 (inter-thread ordering via Dependence Lists)",
        ),
        Rule(
            "ASAP-R002",
            "unordered-undo-chain",
            ERROR,
            "Chained same-line log entries (a dependent's logged old value "
            "is its predecessor's uncommitted data) may persist out of "
            "chain order: a crash between them leaves an undo chain whose "
            "restore materialises never-durable data (the PR 5 bug class).",
            "Sec. 5.5 + docs/RECOVERY.md (per-line log-persist ordering)",
        ),
        Rule(
            "ASAP-R003",
            "log-before-data-unordered",
            ERROR,
            "A data persist (DPO or eviction writeback) of an uncommitted "
            "region's line is not ordered after that line's log persist: "
            "the in-place bytes can become durable before the undo entry "
            "that protects them.",
            "Sec. 4.6.1 (LockBit protocol: log persists before data)",
        ),
        Rule(
            "ASAP-R004",
            "unordered-commit-order",
            ERROR,
            "A region's commit (or durable commit marker) is not ordered "
            "after a Dependence-List predecessor's: recovery could replay "
            "an effect without its cause.",
            "Secs. 4.5, 4.8 (Dependence List gates Fig. 4 transition 4)",
        ),
    )
}

ALL_RULES: Dict[str, Rule] = {**LINT_RULES, **SANITIZER_RULES, **RACE_RULES}


def get_rule(rule_id: str) -> Rule:
    """Look up a rule by ID, raising :class:`AnalysisError` when unknown."""
    try:
        return ALL_RULES[rule_id]
    except KeyError:
        raise AnalysisError(f"unknown analysis rule {rule_id!r}") from None


def all_rules() -> Iterable[Rule]:
    """Every rule, linter first, in ID order."""
    return [ALL_RULES[rid] for rid in sorted(ALL_RULES)]


@dataclass
class Violation:
    """One analysis finding, attributable to a rule and a location.

    ``thread_id``/``op_index`` locate linter findings in the op stream;
    ``cycle`` locates sanitizer findings in simulated time. ``source``
    names the analysed workload or the machine structure involved.
    """

    rule_id: str
    message: str
    severity: str = ""
    thread_id: Optional[int] = None
    op_index: Optional[int] = None
    cycle: Optional[int] = None
    source: Optional[str] = None
    details: Dict[str, object] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if not self.severity:
            self.severity = get_rule(self.rule_id).severity

    @property
    def rule(self) -> Rule:
        return get_rule(self.rule_id)

    def to_dict(self) -> dict:
        out = {
            "rule_id": self.rule_id,
            "rule_name": self.rule.name,
            "severity": self.severity,
            "message": self.message,
        }
        for key in ("thread_id", "op_index", "cycle", "source"):
            value = getattr(self, key)
            if value is not None:
                out[key] = value
        if self.details:
            out["details"] = dict(self.details)
        return out

    def __str__(self) -> str:
        where = []
        if self.source is not None:
            where.append(str(self.source))
        if self.thread_id is not None:
            where.append(f"thread {self.thread_id}")
        if self.op_index is not None:
            where.append(f"op {self.op_index}")
        if self.cycle is not None:
            where.append(f"cycle {self.cycle}")
        loc = f" ({', '.join(where)})" if where else ""
        return f"{self.rule_id} [{self.severity}]{loc}: {self.message}"
