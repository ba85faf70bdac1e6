"""Persist-ordering race detection: happens-before over persist graphs.

Both real bugs this repo has shipped fixes for - the cross-thread
commit-ordering violation (fixed by FIFO WPQ backpressure) and the
same-line undo-chain loss (fixed by per-line LPO ordering) - are
instances of one bug class: *conflicting persists with no
durability-ordering edge between them*. Each was found by sweeping
thousands of crash points through the differential fuzzer. This module
finds candidates of that class in a **single instrumented run**, then
hands the fuzzer a witness to verify (``asap-repro fuzz --from-races``).

How it works:

1. A :class:`RaceTracer` (a :class:`~repro.common.observe.SimObserver`)
   records every persist operation the WPQs accept - submission and
   acceptance cycles, channel, kind, owning region - plus the protocol
   events that define conflicts and orderings: same-line undo chains
   (``lpo_chained``), Dependence-List captures, redo commit markers, and
   lock hand-offs.
2. :class:`RaceGraph` turns the trace into a happens-before DAG whose
   nodes are accepted persist ops and whose edges are only the orderings
   the scheme *guarantees* - as declared by
   :attr:`~repro.persist.base.PersistenceScheme.ORDERING_EDGES` (the
   per-channel WPQ FIFO admission chain, the per-line log-persist chain,
   LockBit log-before-data gating, Dependence-List commit/marker gating).
   On top of the guaranteed edges, the pass uses *trace-order pruning*:
   op A is treated as before op B when A was accepted strictly before B
   was even submitted - in this execution A was already durable when B
   came into existence, so the pair cannot invert here.
3. A reachability pass (prefix bitsets over the acceptance-ordered DAG)
   then reports every conflicting pair left unordered, as the
   ``ASAP-R001..R004`` rules (:mod:`repro.analysis.rules`). Each
   :class:`RaceFinding` carries the two op sites, a crash *window*
   (the cycle span in which exactly one of the pair is durable), and -
   for fuzz cases - the replayable schedule, i.e. everything a directed
   fuzzer run needs to confirm the race.

A finding is ``CONFIRMED`` when the trace itself shows an
acceptance-order inversion (the ops became durable in the opposite of
submission/chain order), or when directed crash replay inside the window
produces a recovery divergence.
Otherwise it is ``PLAUSIBLE`` and the witness tells the fuzzer where to
look. Under the default (fixed) configuration every ASAP ordering edge
is in force and the detector reports zero findings across the workload
suite - asserted by ``tests/analysis/test_races.py``.

See docs/RACES.md for edge semantics per scheme and a worked example.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass, field
from functools import cached_property
from typing import Dict, FrozenSet, List, Optional, Set, Tuple

from repro.analysis.rules import get_rule
from repro.common.observe import SimObserver
from repro.core.rid import thread_id_of
from repro.mem.wpq import DPO, LPO, WB

#: findings reported per (rule, line) before suppression kicks in; dense
#: conflicts (every pair of N persists to one hot line) say nothing new
#: after the first few pairs, and the suppressed count is reported
MAX_PAIRS_PER_SITE = 4

CONFIRMED = "CONFIRMED"
PLAUSIBLE = "PLAUSIBLE"

#: persist-op kinds that put *data* bytes at their home address
_DATA_KINDS = (DPO, WB)


# ---------------------------------------------------------------------------
# trace recording
# ---------------------------------------------------------------------------


@dataclass
class PersistNode:
    """One accepted persist operation (a node of the race graph)."""

    index: int  # position in global acceptance order
    op_id: int
    kind: str
    target_line: int
    data_line: int
    rid: Optional[int]
    channel: int
    submitted_at: int
    accepted_at: int
    payload: tuple
    backpressured: bool = False
    dropped: bool = False
    #: set for redo commit markers: (rid, commit_seq)
    marker: Optional[Tuple[int, int]] = None

    @property
    def thread(self) -> Optional[int]:
        return None if self.rid is None else thread_id_of(self.rid)

    def site(self) -> dict:
        """The finding-facing description of this op."""
        out = {
            "op": self.op_id,
            "kind": self.kind,
            "line": self.target_line,
            "data_line": self.data_line,
            "channel": self.channel,
            "submitted_at": self.submitted_at,
            "accepted_at": self.accepted_at,
        }
        if self.rid is not None:
            out["rid"] = self.rid
            out["thread"] = self.thread
        if self.marker is not None:
            out["commit_seq"] = self.marker[1]
        return out


class RaceTracer(SimObserver):
    """Records the persist-op trace one instrumented run produces.

    Attach with :meth:`attach` (the :class:`~repro.analysis.Sanitizer`
    idiom): the tracer subscribes to every hook point of the machine and
    may share the run with other subscribers.
    """

    def __init__(self):
        self.machine = None
        self.nodes: List[PersistNode] = []
        self._node_of_op: Dict[int, PersistNode] = {}
        #: (prev_rid, dep_rid, line) same-line undo-chain conflicts
        self.chains: List[Tuple[int, int, int]] = []
        #: rid -> rids it depends on (Dependence-List captures)
        self.deps: Dict[int, Set[int]] = {}
        #: op_id -> (rid, commit_seq) for redo commit markers in flight
        self._marker_ops: Dict[int, Tuple[int, int]] = {}
        #: lock name -> [(thread, acquire cycle)] hand-off history
        self.lock_order: Dict[str, List[Tuple[int, int]]] = {}
        #: line -> cycle the in-flight memory fetch started (MSHR allocate)
        self._fetch_started: Dict[int, int] = {}
        #: completed fetch windows: (line, start, end, merged requesters).
        #: Overlapping windows are the memory-level parallelism the
        #: non-blocking hierarchy recovers; persists accepted inside a
        #: window raced an outstanding miss.
        self.miss_windows: List[Tuple[int, int, int, int]] = []
        self.events = 0

    # -- wiring ------------------------------------------------------------

    def attach(self, machine) -> "RaceTracer":
        """Keep ``machine`` for the clock and subscribe to it."""
        self.machine = machine
        machine.observe(self)
        return self

    @cached_property
    def _channel_of_wpq(self) -> Dict[int, int]:
        return {id(ch.wpq): ch.index for ch in self.machine.memory.channels}

    def _now(self) -> int:
        return self.machine.scheduler.now if self.machine is not None else 0

    # -- WPQ events --------------------------------------------------------

    def wpq_submitted(self, wpq, op) -> None:
        self.events += 1

    def wpq_accepted(self, wpq, op) -> None:
        self.events += 1
        node = PersistNode(
            index=len(self.nodes),
            op_id=op.op_id,
            kind=op.kind,
            target_line=op.target_line,
            data_line=op.data_line,
            rid=op.rid,
            channel=self._channel_of_wpq.get(id(wpq), 0),
            submitted_at=op.submitted_at
            if op.submitted_at is not None
            else self._now(),
            accepted_at=self._now(),
            payload=op.materialized_payload(),
            backpressured=op.backpressured,
            marker=self._marker_ops.get(op.op_id),
        )
        self.nodes.append(node)
        self._node_of_op[op.op_id] = node

    def wpq_dropped(self, wpq, op) -> None:
        self.events += 1
        node = self._node_of_op.get(op.op_id)
        if node is not None:
            node.dropped = True

    # -- protocol events ---------------------------------------------------

    def lpo_chained(self, engine, rid, line, prev_owner) -> None:
        self.events += 1
        self.chains.append((prev_owner, rid, line))

    def dep_captured(self, engine, rid, owner) -> None:
        self.events += 1
        self.deps.setdefault(rid, set()).add(owner)

    def region_committed(self, source, rid) -> None:
        self.events += 1

    def marker_issued(self, scheme, rid, seq, op) -> None:
        self.events += 1
        self._marker_ops[op.op_id] = (rid, seq)

    # -- cache hierarchy events --------------------------------------------

    def mshr_allocated(self, hierarchy, line, core_id) -> None:
        self.events += 1
        self._fetch_started[line] = self._now()

    def mshr_merged(self, hierarchy, line, core_id) -> None:
        self.events += 1

    def mshr_filled(self, hierarchy, line, waiters) -> None:
        self.events += 1
        start = self._fetch_started.pop(line, self._now())
        self.miss_windows.append((line, start, self._now(), waiters))

    def mshr_stalled(self, hierarchy, line, core_id) -> None:
        self.events += 1

    # -- lock events -------------------------------------------------------

    def lock_acquired(self, lock, thread_id) -> None:
        self.events += 1
        self.lock_order.setdefault(lock.name, []).append(
            (thread_id, self._now())
        )


# ---------------------------------------------------------------------------
# the happens-before graph
# ---------------------------------------------------------------------------


Pair = Tuple[PersistNode, PersistNode]

#: the pair tables of :func:`ordering_pairs` an edge kind adds to the
#: graph, where not just its own: ``marker-gate`` also gates a region's
#: post-commit in-place updates
_EDGE_TABLES: Dict[str, Tuple[str, ...]] = {
    "marker-gate": ("marker-gate", "marker-data"),
}


def _successive(nodes: List[PersistNode], key) -> List[Pair]:
    """``(previous, node)`` for each node after the first with its ``key``."""
    last: Dict[object, PersistNode] = {}
    pairs: List[Pair] = []
    for node in nodes:
        k = key(node)
        if k in last:
            pairs.append((last[k], node))
        last[k] = node
    return pairs


def ordering_pairs(tracer: RaceTracer) -> Dict[str, List[Pair]]:
    """The ``(pred, succ)`` pairs of every ordering-edge kind in a trace.

    * ``wpq-fifo``: consecutive acceptances on one channel;
    * ``line-chain``: the first log persists of a same-line undo chain's
      previous and dependent writer, once per recorded chain (duplicates
      kept: the graph counts every edge it adds);
    * ``lockbit-gate``: a region's first log persist of a line before its
      data persists to that line;
    * ``marker-gate``: a Dependence-List predecessor's commit marker
      before the dependent's, sorted by (region, predecessor);
    * ``marker-data``: a region's marker before its in-place updates;
    * ``sync-commit``: consecutive persists of one thread.
    """
    nodes = tracer.nodes
    first_lpo: Dict[Tuple[int, int], PersistNode] = {}
    marker_of: Dict[int, PersistNode] = {}
    for node in nodes:
        if node.kind == LPO and node.rid is not None:
            first_lpo.setdefault((node.rid, node.data_line), node)
        if node.marker is not None:
            marker_of[node.marker[0]] = node
    lockbit: List[Pair] = []
    marker_data: List[Pair] = []
    for node in nodes:
        if node.kind not in _DATA_KINDS or node.rid is None:
            continue
        gate = first_lpo.get((node.rid, node.target_line))
        if gate is not None:
            lockbit.append((gate, node))
        gate = marker_of.get(node.rid)
        if gate is not None:
            marker_data.append((gate, node))
    chains = [
        (first_lpo.get((prev_rid, line)), first_lpo.get((dep_rid, line)))
        for prev_rid, dep_rid, line in tracer.chains
    ]
    return {
        "wpq-fifo": _successive(nodes, lambda n: n.channel),
        "line-chain": [(a, b) for a, b in chains if a is not None and b is not None],
        "lockbit-gate": lockbit,
        "marker-gate": [
            (marker_of[owner], marker)
            for rid, marker in sorted(marker_of.items())
            for owner in sorted(tracer.deps.get(rid, ()))
            if owner in marker_of
        ],
        "marker-data": marker_data,
        "sync-commit": _successive(
            [n for n in nodes if n.rid is not None], lambda n: n.thread
        ),
    }


class RaceGraph:
    """Happens-before over a :class:`RaceTracer` trace.

    Nodes are in global acceptance order (the order the tracer recorded
    them). ``edge_preds[i]`` holds the guaranteed-edge predecessors of
    node ``i`` - every guaranteed edge points from an earlier-accepted
    node to a later one, because each edge kind *gates acceptance or
    submission* on a prior acceptance. Reachability therefore folds left
    to right with prefix bitsets, merging trace-order pruning (node
    ``j`` precedes ``i`` when ``accepted(j) < submitted(i)``) into the
    same ancestor masks so mixed guaranteed/temporal paths compose.
    """

    def __init__(self, tracer: RaceTracer, edges_in_force: FrozenSet[str]):
        self.tracer = tracer
        self.edges_in_force = edges_in_force
        self.nodes = tracer.nodes
        self.edge_preds: List[Set[int]] = [set() for _ in self.nodes]
        self.edge_count = 0
        #: every edge kind's pairs, in force or not: the R002-R004 checks
        #: read the same tables the graph is built from
        self.pairs = ordering_pairs(tracer)
        for kind in edges_in_force:
            for table in _EDGE_TABLES.get(kind, (kind,)):
                for pred, succ in self.pairs.get(table, ()):
                    self._add_edge(pred, succ)
        self._ancestors = self._close()

    # -- construction ------------------------------------------------------

    def _add_edge(self, pred: PersistNode, succ: PersistNode) -> None:
        if pred.index == succ.index:
            return
        lo, hi = sorted((pred.index, succ.index))
        # guaranteed edges always point acceptance-forward (the guarantee
        # is exactly that the predecessor's acceptance gates the
        # successor); a backward pair means the guarantee was violated in
        # this trace, which the conflict pass reports as an inversion
        if pred.index == lo:
            self.edge_preds[hi].add(lo)
            self.edge_count += 1

    def _close(self) -> List[int]:
        """Ancestor bitmask per node (bit ``j`` set: ``j`` before ``i``)."""
        accepted = [n.accepted_at for n in self.nodes]
        ancestors: List[int] = []
        for i, node in enumerate(self.nodes):
            # trace-order pruning: everything accepted strictly before
            # this op was submitted is a prefix of acceptance order
            k = bisect_left(accepted, node.submitted_at, 0, i)
            mask = (1 << k) - 1
            for p in self.edge_preds[i]:
                mask |= ancestors[p] | (1 << p)
            ancestors.append(mask)
        return ancestors

    # -- queries -----------------------------------------------------------

    def ordered(self, a: PersistNode, b: PersistNode) -> bool:
        """True when the pair has *some* durability ordering."""
        lo, hi = sorted((a.index, b.index))
        return bool((self._ancestors[hi] >> lo) & 1)


# ---------------------------------------------------------------------------
# findings
# ---------------------------------------------------------------------------


@dataclass
class RaceFinding:
    """One unordered conflicting-persist pair, with its witness."""

    rule_id: str
    message: str
    site_a: dict
    site_b: dict
    status: str  # CONFIRMED | PLAUSIBLE
    evidence: str
    #: crash cycles [lo, hi] in which exactly one of the pair is durable
    window: Tuple[int, int]
    #: the window as fractions of the traced run's total cycles - the
    #: form the fuzzer's corpus pins crash points in
    crash_fracs: List[float] = field(default_factory=list)
    source: Optional[str] = None
    #: replayable FuzzCase JSON when the trace came from a fuzz case
    schedule: Optional[dict] = None

    def to_dict(self) -> dict:
        rule = get_rule(self.rule_id)
        return {
            "rule_id": self.rule_id,
            "rule_name": rule.name,
            "severity": rule.severity,
            "status": self.status,
            "message": self.message,
            "evidence": self.evidence,
            "site_a": self.site_a,
            "site_b": self.site_b,
            "window": list(self.window),
            "crash_fracs": self.crash_fracs,
            **({"source": self.source} if self.source else {}),
            **({"schedule": self.schedule} if self.schedule else {}),
        }


@dataclass
class RacesResult:
    """Everything one detector pass produced."""

    scheme: str
    source: str
    edges_in_force: FrozenSet[str]
    cycles: int
    nodes: int
    edges: int
    events: int
    findings: List[RaceFinding] = field(default_factory=list)
    suppressed: int = 0

    @property
    def ok(self) -> bool:
        return not self.findings

    def to_target_dict(self) -> dict:
        return {
            "source": self.source,
            "scheme": self.scheme,
            "edges_in_force": sorted(self.edges_in_force),
            "cycles": self.cycles,
            "nodes": self.nodes,
            "edges": self.edges,
            "events_checked": self.events,
            "suppressed_pairs": self.suppressed,
            "violations": [f.to_dict() for f in self.findings],
        }


def _pair_finding(
    rule_id: str,
    a: PersistNode,
    b: PersistNode,
    message: str,
    total_cycles: int,
    inverted: bool,
    source: Optional[str],
    schedule: Optional[dict],
) -> RaceFinding:
    lo = min(a.accepted_at, b.accepted_at)
    hi = max(a.accepted_at, b.accepted_at)
    # fractions of the run's *thread-finish* cycle count - the same
    # denominator the fuzzer's crash sweeps use, so a witness frac pastes
    # straight into a corpus entry's crash_fracs. Persistence work (and
    # hence a window) can outlive the last thread, so fracs may exceed 1.
    fracs = sorted(
        {
            round(max(0.0, cyc / total_cycles), 6) if total_cycles else 0.0
            for cyc in (lo, (lo + hi) // 2, hi)
        }
    )
    if inverted:
        status, evidence = CONFIRMED, (
            "acceptance-order inversion observed in the trace: the later "
            f"op became durable first (accepted at {lo} vs {hi})"
        )
    else:
        status, evidence = PLAUSIBLE, (
            "no ordering edge between the pair; directed crash replay in "
            f"cycles [{lo}, {hi}] can expose the race"
        )
    return RaceFinding(
        rule_id=rule_id,
        message=message,
        site_a=a.site(),
        site_b=b.site(),
        status=status,
        evidence=evidence,
        window=(lo, hi),
        crash_fracs=fracs,
        source=source,
        schedule=schedule,
    )


def analyze_trace(
    tracer: RaceTracer,
    edges_in_force: FrozenSet[str],
    total_cycles: int,
    scheme: str,
    source: str,
    schedule: Optional[dict] = None,
) -> RacesResult:
    """Run the happens-before pass over one recorded trace."""
    graph = RaceGraph(tracer, edges_in_force)
    result = RacesResult(
        scheme=scheme,
        source=source,
        edges_in_force=edges_in_force,
        cycles=total_cycles,
        nodes=len(tracer.nodes),
        edges=graph.edge_count,
        events=tracer.events,
    )
    per_site: Dict[Tuple[str, int], int] = {}

    def report(rule_id, a, b, message, inverted) -> None:
        key = (rule_id, a.target_line)
        per_site[key] = per_site.get(key, 0) + 1
        if per_site[key] > MAX_PAIRS_PER_SITE:
            result.suppressed += 1
            return
        result.findings.append(
            _pair_finding(
                rule_id, a, b, message, total_cycles, inverted, source, schedule
            )
        )

    # R001: same-line data persists from different regions
    by_line: Dict[int, List[PersistNode]] = {}
    for node in tracer.nodes:
        if node.kind in _DATA_KINDS and node.rid is not None:
            by_line.setdefault(node.target_line, []).append(node)
    for line, ops in sorted(by_line.items()):
        for i, a in enumerate(ops):
            for b in ops[i + 1:]:
                if a.rid == b.rid or a.payload == b.payload:
                    continue
                if graph.ordered(a, b):
                    continue
                inverted = (a.submitted_at < b.submitted_at) != (
                    a.accepted_at < b.accepted_at
                )
                report(
                    "ASAP-R001",
                    a,
                    b,
                    f"data persists for line {line:#x} by regions "
                    f"{a.rid:#x} and {b.rid:#x} have no durability "
                    "ordering; which payload survives a crash depends on "
                    "WPQ timing",
                    inverted,
                )

    # R002: chained same-line log persists out of chain order
    seen_chains: Set[Tuple[int, int]] = set()
    for a, b in graph.pairs["line-chain"]:
        if (a.index, b.index) in seen_chains:
            continue
        seen_chains.add((a.index, b.index))
        if graph.ordered(a, b):
            continue
        report(
            "ASAP-R002",
            a,
            b,
            f"log entries for line {a.data_line:#x} form an undo chain "
            f"(region {b.rid:#x} logs region {a.rid:#x}'s "
            "uncommitted data) but nothing orders their durability; a "
            "crash with only the dependent's entry durable breaks the "
            "chain",
            inverted=b.accepted_at < a.accepted_at,
        )

    # R003: a region's data persist unordered w.r.t. its own log entry
    for gate, node in graph.pairs["lockbit-gate"]:
        if graph.ordered(gate, node):
            continue
        report(
            "ASAP-R003",
            gate,
            node,
            f"{node.kind.upper()} for line {node.target_line:#x} of region "
            f"{node.rid:#x} is not ordered after the line's log entry; "
            "the in-place bytes can become durable before the undo entry "
            "that protects them",
            inverted=node.accepted_at < gate.accepted_at,
        )

    # R004: commit markers unordered w.r.t. dependence predecessors
    for pred, marker in graph.pairs["marker-gate"]:
        if graph.ordered(pred, marker):
            continue
        report(
            "ASAP-R004",
            pred,
            marker,
            f"commit marker of region {marker.rid:#x} is not ordered "
            f"after its Dependence-List predecessor {pred.rid:#x}'s; "
            "recovery could replay an effect without its cause",
            inverted=marker.accepted_at < pred.accepted_at,
        )

    return result


# ---------------------------------------------------------------------------
# entry points: fuzz cases and workloads
# ---------------------------------------------------------------------------


def detect_in_case(case, source: Optional[str] = None) -> RacesResult:
    """Race-detect one fuzz case (e.g. a regression-corpus entry)."""
    from repro.harness.fuzz import build_machine

    machine = build_machine(case)
    tracer = RaceTracer().attach(machine)
    cycles = machine.run().cycles
    return analyze_trace(
        tracer,
        machine.scheme.ORDERING_EDGES,
        cycles,
        scheme=case.scheme,
        source=source or f"case({case.scheme}, wpq={case.wpq_entries})",
        schedule=case.to_json(),
    )


def detect_in_workload(
    workload: str,
    scheme: str = "asap",
    config=None,
    params=None,
) -> RacesResult:
    """Race-detect one Table 3 workload under one scheme."""
    from repro.harness.runner import build_machine, default_config, default_params

    machine = build_machine(
        workload, scheme, config or default_config(), params or default_params()
    )
    tracer = RaceTracer().attach(machine)
    cycles = machine.run().cycles
    return analyze_trace(
        tracer, machine.scheme.ORDERING_EDGES, cycles, scheme=scheme,
        source=workload,
    )


# ---------------------------------------------------------------------------
# directed verification (the fuzzer's --from-races mode)
# ---------------------------------------------------------------------------


@dataclass
class VerifyOutcome:
    """Directed verification of one finding's witness."""

    finding: RaceFinding
    status: str
    runs_used: int
    evidence: str


def verify_finding(case, finding: RaceFinding, max_points: int = 5) -> VerifyOutcome:
    """Replay the witness: crash inside the window, check for divergence.

    Two confirmation signals, strongest first:

    * the finding was already ``CONFIRMED`` by an observed inversion -
      zero extra runs;
    * a directed crash point fails the fuzzer's crash check (committed
      data lost, structure invalid, or recovery nondeterministic); the
      sweep stops at the first such point.
    """
    from repro.harness.fuzz import crash_sweep

    if finding.status == CONFIRMED:
        return VerifyOutcome(finding, CONFIRMED, 0, finding.evidence)
    lo, hi = finding.window
    points = sorted(
        {max(1, c) for c in (lo, (lo + hi) // 2, hi, hi + 1, lo + 1)}
    )[:max_points]
    runs = 0
    for check in crash_sweep(case, points):
        runs += 1
        if check.problems:
            return VerifyOutcome(
                finding,
                CONFIRMED,
                runs,
                f"crash at cycle {check.cycle}: {check.problems[0]}",
            )
    return VerifyOutcome(
        finding,
        PLAUSIBLE,
        runs,
        f"no divergence at {len(points)} directed crash point(s); the "
        "race did not manifest in this schedule's timing",
    )
