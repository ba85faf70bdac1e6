"""Property-based crash-consistency testing.

Hypothesis generates random multi-threaded region programs and random
crash points; recovery must always reproduce the commit oracle's image.
This is the strongest single statement of ASAP's correctness contract:
atomic durability plus dependence-ordered commits, under any interleaving
of LPOs, DPOs, drops, evictions, and structural stalls.
"""

from hypothesis import example, given, settings, strategies as st

from repro.harness.fuzz import (
    FuzzCase,
    build_machine,
    check_crash,
    check_no_crash,
    crash_cycles,
)

NUM_LINES = 16


@st.composite
def programs(draw):
    """A list of per-thread region scripts over a small shared array."""
    num_threads = draw(st.integers(1, 3))
    threads = []
    for _ in range(num_threads):
        regions = draw(
            st.lists(
                st.lists(
                    st.tuples(
                        st.integers(0, NUM_LINES - 1),  # line index
                        st.booleans(),  # read first?
                        st.integers(0, 2**20),  # value
                    ),
                    min_size=1,
                    max_size=5,
                ),
                min_size=1,
                max_size=6,
            )
        )
        threads.append(regions)
    return threads


@settings(max_examples=40, deadline=None)
@given(
    threads=programs(),
    crash_frac=st.floats(0.05, 0.98),
    wpq_entries=st.sampled_from([1, 4, 16]),
)
# The incomplete-undo-chain recovery bug fixed by per-line LPO ordering
# (pinned forever; see tests/property/corpus/
# undo-incomplete-line-chain-wpq1.json and docs/RECOVERY.md): on a
# 1-entry WPQ, a crashed chain of regions rewriting line 1 left the last
# writer's log entry durable while its predecessor's was backpressured
# and lost, so recovery installed an "old value" that never durably
# existed (0x0 over the committed 0x1).
@example(
    threads=[
        [
            [(0, False, 0), (1, False, 1), (2, False, 0), (4, False, 0)],
            [(0, False, 0), (1, False, 0)],
            [(1, False, 0)],
            [(0, False, 0)],
        ]
    ],
    crash_frac=0.96875,
    wpq_entries=1,
)
def test_recovery_consistent_at_any_crash_point(threads, crash_frac, wpq_entries):
    case = FuzzCase("asap", threads, wpq_entries=wpq_entries)
    total = build_machine(case).run().cycles
    (cycle,) = crash_cycles(total, fracs=[crash_frac])
    check = check_crash(case, cycle)
    assert not check.problems, check.failures


@settings(max_examples=15, deadline=None)
@given(threads=programs())
# The cross-thread RMW commit-ordering bug fixed in mem/wpq.py (pinned
# forever; see tests/property/corpus/undo-cross-thread-rmw-wpq4.json):
# a backpressured stale DPO escaped DPO dropping, was overtaken by the
# committed value's DPO, and drained last - PM lost the committed 1.
@example(
    threads=[
        [
            [(0, False, 0)],
            [(1, False, 0), (3, False, 0)],
            [(0, False, 0), (1, False, 0), (4, False, 0)],
        ],
        [[(0, False, 0), (2, False, 0)], [(6, False, 0)], [(4, True, 1)]],
    ]
)
def test_no_crash_run_commits_everything(threads):
    assert check_no_crash(FuzzCase("asap", threads, wpq_entries=4)) == []
