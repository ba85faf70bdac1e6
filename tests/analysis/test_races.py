"""Persist-ordering race detector (repro.analysis.races).

The acceptance bar, straight from the detector's design goals:

* both pinned regression bugs (the PR 3 cross-thread commit-ordering
  race and the PR 5 same-line undo-chain loss) are reported as
  ``CONFIRMED`` findings when the ``reopen_edge`` fault hook re-opens
  the ordering edge that fixed them,
* zero findings under the default (fixed) configuration - on the same
  corpus cases and across every bundled workload, and
* the fuzzer's directed mode verifies every witness in far fewer
  simulation runs than the undirected CI smoke budget (200+ runs).
"""

import glob
import os

import pytest

from repro.analysis.races import (
    CONFIRMED,
    detect_in_case,
    detect_in_workload,
    verify_finding,
)
from repro.harness.fuzz import load_corpus_entry, run_directed
from repro.harness.runner import default_config, default_params
from repro.persist import make_scheme, scheme_names
from repro.workloads import workload_names
from tests.faults import reopen_edge

CORPUS_DIR = os.path.join(
    os.path.dirname(__file__), os.pardir, "property", "corpus"
)
CORPUS_FILES = sorted(glob.glob(os.path.join(CORPUS_DIR, "*.json")))

CROSS_THREAD = os.path.join(CORPUS_DIR, "undo-cross-thread-rmw-wpq4.json")
LINE_CHAIN = os.path.join(CORPUS_DIR, "undo-incomplete-line-chain-wpq1.json")

#: the undirected fuzz smoke budget in CI; directed mode must beat it
UNDIRECTED_CI_BUDGET = 200


# -- per-scheme ordering-edge declarations ---------------------------------


def test_every_scheme_declares_ordering_edges():
    from repro.persist.base import EDGE_KINDS

    for name in scheme_names():
        scheme = make_scheme(name)
        assert scheme.ORDERING_EDGES <= EDGE_KINDS, name


def test_np_guarantees_nothing():
    assert make_scheme("np").ORDERING_EDGES == frozenset()


def test_asap_declares_all_four_hardware_edges():
    assert make_scheme("asap").ORDERING_EDGES == frozenset(
        {"wpq-fifo", "line-chain", "lockbit-gate", "dep-commit-gate"}
    )
    assert make_scheme("asap_redo").ORDERING_EDGES == frozenset(
        {"wpq-fifo", "marker-gate", "dep-commit-gate"}
    )


def test_legacy_flags_drop_the_matching_edge():
    # the fault hook is the only way left to remove an edge
    fixed = {name: make_scheme(name).ORDERING_EDGES for name in scheme_names()}
    with reopen_edge("wpq-fifo"):
        assert "wpq-fifo" not in make_scheme("asap").ORDERING_EDGES
        assert "line-chain" in make_scheme("asap").ORDERING_EDGES
        assert "wpq-fifo" not in make_scheme("asap_redo").ORDERING_EDGES
    with reopen_edge("line-chain"):
        assert "line-chain" not in make_scheme("asap").ORDERING_EDGES
        assert "wpq-fifo" in make_scheme("asap").ORDERING_EDGES
        assert "line-chain" not in make_scheme("hwundo").ORDERING_EDGES
    # leaving the block restores every declaration
    assert {n: make_scheme(n).ORDERING_EDGES for n in scheme_names()} == fixed
    with pytest.raises(ValueError):
        with reopen_edge("sync-commit"):
            pass


# -- the two pinned bugs must be rediscovered ------------------------------


def _corpus_case(path):
    case, _meta = load_corpus_entry(path)
    return case


def test_detector_confirms_cross_thread_commit_race():
    # PR 3's bug: without WPQ FIFO backpressure a later thread's commit
    # can become durable before an earlier thread's data persist.
    with reopen_edge("wpq-fifo"):
        result = detect_in_case(_corpus_case(CROSS_THREAD), source="cross-thread")
    rules = {f.rule_id for f in result.findings}
    assert "ASAP-R001" in rules
    finding = next(f for f in result.findings if f.rule_id == "ASAP-R001")
    assert finding.status == CONFIRMED
    assert finding.site_a["line"] == finding.site_b["line"]
    assert finding.site_a["thread"] != finding.site_b["thread"]
    assert finding.window, "finding must carry a crash window"
    assert finding.crash_fracs, "finding must carry fuzzer crash fractions"


def test_detector_confirms_same_line_undo_chain_loss():
    # PR 5's bug: without ordered same-line log persists the second LPO
    # of an undo chain can be accepted before the first.
    with reopen_edge("line-chain"):
        result = detect_in_case(_corpus_case(LINE_CHAIN), source="line-chain")
    rules = {f.rule_id for f in result.findings}
    assert "ASAP-R002" in rules
    finding = next(f for f in result.findings if f.rule_id == "ASAP-R002")
    assert finding.status == CONFIRMED


def test_confirmed_findings_need_no_extra_runs():
    # an in-trace acceptance inversion is its own proof: verification
    # must short-circuit without any directed replays
    case = _corpus_case(CROSS_THREAD)
    with reopen_edge("wpq-fifo"):
        result = detect_in_case(case)
        finding = next(f for f in result.findings if f.rule_id == "ASAP-R001")
        outcome = verify_finding(case, finding)
    assert outcome.status == CONFIRMED
    assert outcome.runs_used == 0


# -- zero false positives on the fixed model -------------------------------


@pytest.mark.parametrize(
    "path", CORPUS_FILES, ids=[os.path.basename(p) for p in CORPUS_FILES]
)
def test_corpus_cases_clean_under_default_config(path):
    case, _meta = load_corpus_entry(path)
    result = detect_in_case(case, source=os.path.basename(path))
    assert result.ok, [f.to_dict() for f in result.findings]
    assert result.nodes > 0, "tracer saw no persist ops - attach regressed?"


def test_tracer_records_miss_windows():
    # The MSHR hooks feed the tracer allocate-to-fill windows - evidence
    # of the recovered memory-level parallelism (docs/MEMORY.md) and the
    # tool the miss-in-flight corpus entry used to pin its crash_fracs.
    from repro.analysis.races import RaceTracer
    from repro.harness.fuzz import build_machine

    case, _meta = load_corpus_entry(
        os.path.join(CORPUS_DIR, "undo-miss-in-flight-mshr1.json")
    )
    machine = build_machine(case)
    tracer = RaceTracer().attach(machine)
    total = machine.run().cycles
    assert tracer.miss_windows, "no MSHR fetch windows recorded"
    for line, start, end, waiters in tracer.miss_windows:
        assert 0 <= start < end <= total
        assert waiters >= 1
    # the pinned crash fractions land strictly inside fetch windows
    for frac in case.crash_fracs:
        cycle = max(1, int(total * frac))
        assert any(s < cycle < e for _l, s, e, _w in tracer.miss_windows), frac


@pytest.mark.parametrize("workload", workload_names())
@pytest.mark.parametrize("scheme", ["asap", "asap_redo"])
def test_workloads_clean_under_default_config(workload, scheme):
    result = detect_in_workload(
        workload,
        scheme,
        config=default_config(quick=True),
        params=default_params(quick=True),
    )
    assert result.ok, [f.to_dict() for f in result.findings]
    assert result.nodes > 0


# -- directed fuzzing beats the undirected budget --------------------------


def test_directed_mode_confirms_both_bugs_under_budget():
    reports = []
    for edge, path in (("wpq-fifo", CROSS_THREAD), ("line-chain", LINE_CHAIN)):
        with reopen_edge(edge):
            reports.append(run_directed([(edge, _corpus_case(path))]))
    assert sum(r.confirmed for r in reports) >= 2
    assert not any(r.ok for r in reports)
    assert sum(r.runs for r in reports) < UNDIRECTED_CI_BUDGET
    rules = {o["rule_id"] for r in reports for o in r.outcomes}
    assert {"ASAP-R001", "ASAP-R002"} <= rules


def test_directed_mode_clean_on_fixed_corpus():
    cases = []
    for path in CORPUS_FILES:
        case, _meta = load_corpus_entry(path)
        cases.append((os.path.basename(path), case))
    report = run_directed(cases)
    assert report.ok
    assert report.confirmed == 0
    assert report.runs == len(cases)  # one instrumented run each, no replays
