"""Directed cross-thread commit-ordering tests under tiny WPQs.

The scenario class behind the ROADMAP bug: thread A commits a value to a
line, thread B read-modify-writes that line, and the WPQ is small enough
that DPO drop/coalesce decisions happen while persist ops sit
backpressured. The committed value must always reach PM - whichever
thread's region commits last, and whatever got dropped, coalesced, or
overtaken on the way.
"""

import pytest

from repro.common.params import SystemConfig
from repro.harness.fuzz import FuzzCase, check_no_crash
from repro.persist import make_scheme
from repro.sim.machine import Machine
from repro.sim.ops import Begin, Compute, End, Lock, Read, Unlock, Write
from tests.faults import reopen_edge

NUM_LINES = 12


def run_rmw_pair(scheme, wpq_entries, filler_lines=4, jitter=0):
    """Thread A fills the WPQ then writes the victim line; thread B RMWs
    the victim. Returns (machine, victim address)."""
    m = Machine(SystemConfig.small(wpq_entries=wpq_entries), make_scheme(scheme)).inspect()
    base = m.heap.alloc(64 * NUM_LINES)
    victim = base + 64 * 4
    lock = m.new_lock()

    def writer(env):
        # one region per line keeps LPO/DPO traffic flowing while regions
        # commit - the condition for drop/coalesce to fire under pressure
        for i in range(filler_lines):
            yield Lock(lock)
            yield Begin()
            yield Write(base + 64 * i, [0])
            yield End()
            yield Unlock(lock)
        yield Lock(lock)
        yield Begin()
        yield Write(victim, [0])
        yield End()
        yield Unlock(lock)

    def rmw(env):
        if jitter:
            yield Compute(jitter)
        yield Lock(lock)
        yield Begin()
        (v,) = yield Read(victim, 1)
        yield Write(victim, [v ^ 1])
        yield End()
        yield Unlock(lock)

    m.spawn(writer)
    m.spawn(rmw)
    m.run()
    return m, victim


@pytest.mark.parametrize("scheme", ["asap", "asap_redo"])
@pytest.mark.parametrize("wpq_entries", [2, 3, 4])
def test_cross_thread_rmw_commits_survive_tiny_wpq(scheme, wpq_entries):
    m, victim = run_rmw_pair(scheme, wpq_entries)
    assert m.oracle.mismatches(m.pm_image) == []


@pytest.mark.parametrize("scheme", ["asap", "asap_redo"])
@pytest.mark.parametrize("jitter", [0, 17, 60, 240])
def test_cross_thread_rmw_across_interleavings(scheme, jitter):
    # jitter shifts which persist ops are in flight at the RMW - the axis
    # the fuzzer sweeps; a handful of points is pinned here directly
    m, victim = run_rmw_pair(scheme, wpq_entries=3, jitter=jitter)
    assert m.oracle.mismatches(m.pm_image) == []


@pytest.mark.parametrize("wpq_entries", [2, 3, 4])
def test_dpo_drop_of_cross_thread_owned_line_is_safe(wpq_entries):
    # Rewriting the same line in consecutive regions of both threads makes
    # a later region's LPO carry bytes whose queued/pending DPO belongs to
    # the *other* thread's region - the exact DPO-dropping case whose
    # pending-op blindness lost committed values pre-fix.
    case = FuzzCase(
        scheme="asap",
        threads=[
            [[(4, False, 1)], [(4, False, 2)], [(4, True, 3)]],
            [[(4, True, 1)], [(4, False, 5)]],
        ],
        wpq_entries=wpq_entries,
    )
    assert check_no_crash(case) == []


@pytest.mark.parametrize("wpq_entries", [2, 4])
def test_dpo_coalesce_under_cross_thread_dependence(wpq_entries):
    # Repeated writes to one line inside a region arm distance-based DPO
    # coalescing; interleaved with another thread's RMW of the same line
    # the coalesced DPO must still carry the final committed value.
    case = FuzzCase(
        scheme="asap",
        threads=[
            [[(4, False, 1), (0, False, 0), (1, False, 0), (2, False, 0),
              (3, False, 0), (4, False, 7)]],
            [[(4, True, 1)]],
        ],
        wpq_entries=wpq_entries,
    )
    assert check_no_crash(case) == []


def test_redo_commits_respect_dependence_order():
    # The redo pinned schedule, checked across the tiny-WPQ range: commit
    # markers must persist in dependence order so no committed value is
    # shadowed by a dependence-earlier region's replay.
    threads = [
        [[(0, False, 0)], [(0, False, 0)], [(0, False, 0)],
         [(0, False, 1), (1, False, 0), (3, False, 0), (5, False, 0)],
         [(0, False, 0)]],
        [[(2, False, 0), (4, False, 0)]],
    ]
    for wpq_entries in (2, 3, 4):
        case = FuzzCase(scheme="asap_redo", threads=threads,
                        wpq_entries=wpq_entries)
        assert check_no_crash(case) == [], f"wpq_entries={wpq_entries}"


def test_legacy_backpressure_reproduces_the_fixed_bug():
    # Regression tripwire in the other direction: the pre-fix WPQ
    # admission (re-opened by the reopen_edge("wpq-fifo") fault hook)
    # must still lose the committed value on the original schedule. If
    # this starts passing, the hook no longer models the old hazard and
    # the fuzzer's shrinker self-test loses its known failure.
    case = FuzzCase(
        scheme="asap",
        threads=[
            [[(0, False, 0)], [(1, False, 0), (3, False, 0)],
             [(0, False, 0), (1, False, 0), (4, False, 0)]],
            [[(0, False, 0), (2, False, 0)], [(6, False, 0)], [(4, True, 1)]],
        ],
        wpq_entries=4,
    )
    with reopen_edge("wpq-fifo"):
        failures = check_no_crash(case)
    assert failures, "the hook no longer reproduces the pre-fix hazard"
    assert "committed values missing" in failures[0]
    assert check_no_crash(case) == []
