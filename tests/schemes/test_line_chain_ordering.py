"""Directed tests for per-line log-persist chain ordering.

The scenario class behind the ROADMAP recovery bug: a dependence chain of
uncommitted regions rewrites one line, each appending an undo-log entry
for it at a *different* log address (different records, potentially
different channels), so nothing orders the entries' durability. On a
tiny WPQ a later region's entry can be accepted while an earlier one is
still backpressured - and lost at a crash - leaving the surviving log
claiming an "old value" that never durably existed. Recovery then
installs it over the committed value.

Covered here:

* the fix (per-line LPO ordering at the controller): the pinned ROADMAP
  schedule recovers consistently at every swept crash point, and the
  deferral counters show the ordering actually engaged;
* the regression demo: re-opening the ordering with the
  ``reopen_edge("line-chain")`` fault hook reproduces the corruption
  bit-for-bit;
* chain shapes: same-line chains of length 2-4, single- and
  cross-thread, on 1- and 2-entry WPQs;
* the HWUndo analogue (drain-granularity ordering, scheme-level stat).

The same schedule is pinned as ``@example`` on the property suite and as
``tests/property/corpus/undo-incomplete-line-chain-wpq1.json``; see
docs/RECOVERY.md for the full story.
"""

import pytest

from repro.common.params import SystemConfig
from repro.harness.fuzz import FuzzCase, build_machine, case_failures
from repro.persist import make_scheme
from repro.recovery import crash_machine, recover, verify_recovery
from repro.sim.machine import Machine
from repro.sim.ops import Begin, End, Write
from tests.faults import reopen_edge

#: the ROADMAP falsifying example: one thread, four regions; regions
#: 2..4 form an uncommitted chain rewriting line 1 near the crash point
ROADMAP_THREADS = [
    [
        [(0, False, 0), (1, False, 1), (2, False, 0), (4, False, 0)],
        [(0, False, 0), (1, False, 0)],
        [(1, False, 0)],
        [(0, False, 0)],
    ]
]
ROADMAP_CRASH_FRAC = 0.96875


def roadmap_case(**overrides):
    return FuzzCase(
        scheme="asap", threads=ROADMAP_THREADS, wpq_entries=1, **overrides
    )


def crash_and_recover(case, crash_frac):
    total = build_machine(case).run().cycles
    m = build_machine(case)
    state = crash_machine(m, at_cycle=max(1, int(total * crash_frac)))
    image, report = recover(state)
    return verify_recovery(m, image), report, state


# -- the fix -----------------------------------------------------------------


def test_pinned_repro_consistent_at_every_crash_point():
    """The ROADMAP schedule, crash-swept densely across the whole run."""
    case = roadmap_case()
    total = build_machine(case).run().cycles
    fracs = [cycle / total for cycle in range(1, total, 16)]
    fracs.append(ROADMAP_CRASH_FRAC)
    for frac in fracs:
        verdict, _report, _state = crash_and_recover(case, frac)
        assert verdict.ok, f"@frac={frac}: {verdict.explain()}"


def test_ordering_engages_on_pinned_repro():
    """The fix is live, not vacuous: the schedule actually defers an LPO."""
    m = build_machine(roadmap_case())
    m.run()
    assert m.scheme.stats.lpo_order_delays > 0


def test_legacy_flag_disables_ordering():
    # the pre-fix model is reachable only through the test fault hook
    with reopen_edge("line-chain"):
        m = build_machine(roadmap_case())
        m.run()
    assert m.scheme.stats.lpo_order_delays == 0


# -- the regression demo -----------------------------------------------------


def test_legacy_model_corrupts_without_defensive_recovery():
    """Pre-fix ordering + recovery = the original bug: the committed 0x1
    on line 1 is overwritten by a never-durable 0x0."""
    with reopen_edge("line-chain"):
        verdict, _report, _state = crash_and_recover(
            roadmap_case(), ROADMAP_CRASH_FRAC
        )
    assert not verdict.ok
    (addr, expect, got) = verdict.mismatches[0]
    assert (expect, got) == (1, 0)


def test_corpus_entry_matches_pinned_schedule():
    import json
    import os

    path = os.path.join(
        os.path.dirname(__file__),
        "..",
        "property",
        "corpus",
        "undo-incomplete-line-chain-wpq1.json",
    )
    with open(path) as fh:
        data = json.load(fh)
    case = FuzzCase.from_json(data)
    assert case.threads == [
        [[tuple(op) for op in region] for region in thread]
        for thread in ROADMAP_THREADS
    ]
    assert case.wpq_entries == 1
    assert case.crash_fracs == [ROADMAP_CRASH_FRAC]


# -- chain shapes ------------------------------------------------------------


def chain_case(length, num_threads, wpq_entries):
    """``length`` regions all rewriting line 0 (plus per-region filler so
    log traffic keeps the WPQ busy), dealt round-robin over
    ``num_threads`` lock-serialised threads."""
    threads = [[] for _ in range(num_threads)]
    for i in range(length):
        threads[i % num_threads].append(
            [(0, False, i + 1), (1 + (i % 3), False, 0)]
        )
    return FuzzCase(
        scheme="asap",
        threads=[t for t in threads if t],
        wpq_entries=wpq_entries,
    )


@pytest.mark.parametrize("length", [2, 3, 4])
@pytest.mark.parametrize("num_threads", [1, 2, 3])
@pytest.mark.parametrize("wpq_entries", [1, 2])
def test_same_line_chains_recover_consistently(length, num_threads, wpq_entries):
    if num_threads > length:
        pytest.skip("fewer regions than threads")
    case = chain_case(length, num_threads, wpq_entries)
    assert case_failures(case, crash_points=4) == []


# -- the HWUndo analogue -----------------------------------------------------


def hwundo_machine():
    m = Machine(SystemConfig.small(wpq_entries=4), make_scheme("hwundo")).inspect()
    m.heap.alloc(512)
    return m


def submit_pair(m, issued):
    """Push two same-line LPOs through the scheme's ordering gate and
    return whether the gate held each.

    End-to-end, HWUndo's gate almost never engages on the small config:
    cross-core accesses to one line serialise through memory by a full PM
    fetch, which exceeds the LPO drain window, and synchronous commit
    rules out same-thread overlap. The gate is the scheme's defence for
    the configurations where that does not hold (deep queues, multi-
    channel log placement), so it is exercised mechanically here.
    """
    from repro.mem.wpq import LPO, PersistOp

    scheme = m.scheme
    line = 0x1000_0000_0000
    ops = [
        PersistOp(
            kind=LPO,
            target_line=0x1000_1000_0000 + i * 0x1000,
            data_line=line,
            payload=((0x1000_1000_0000 + i * 0x1000, (i + 1,)),),
            rid=i + 1,
            on_drain=lambda _op, line=line: scheme.lpo_gate.advance(line),
        )
        for i in range(2)
    ]
    orig = m.memory.issue_persist
    m.memory.issue_persist = lambda op: (issued.append(op.rid), orig(op))
    return [scheme.lpo_gate.submit(op, line) for op in ops]


def test_hwundo_holds_second_same_line_lpo_until_drain():
    m = hwundo_machine()
    issued = []
    assert submit_pair(m, issued) == [False, True]
    assert issued == [1]  # op 2 held at the controller
    m.run()  # drains op 1; its on_drain advances the chain
    assert issued == [1, 2]


def test_hwundo_legacy_flag_disables_gate():
    m = hwundo_machine()
    issued = []
    with reopen_edge("line-chain"):
        held = submit_pair(m, issued)
    assert held == [False, False]
    assert issued == [1, 2]  # both in flight at once: the pre-fix model


def test_hwundo_concurrent_same_line_regions_still_commit():
    """No-deadlock end-to-end check: unlocked same-line regions on two
    threads run to commit with the gate armed."""
    m = Machine(
        SystemConfig.small(wpq_entries=1),
        make_scheme("hwundo"),
    ).inspect()
    a = m.heap.alloc(512)

    def body(env, value):
        yield Begin()
        yield Write(a, [value])
        yield Write(a + 64 * (1 + value), [0])
        yield End()

    m.spawn(lambda env: body(env, 1))
    m.spawn(lambda env: body(env, 2))
    m.run()
    assert len(m.oracle.committed_rids) == 2
