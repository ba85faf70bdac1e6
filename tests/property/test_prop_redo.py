"""Property-based crash consistency for the asap_redo extension.

Same contract as the undo fuzzer: any crash point, any interleaving,
recovery must equal the commit oracle's image. Redo recovery exercises a
completely different path (commit markers, replay-in-order, suppressed
in-place writebacks), so it gets its own fuzzer.
"""

from hypothesis import example, given, settings, strategies as st

from repro.harness.fuzz import (
    FuzzCase,
    build_machine,
    check_crash,
    check_no_crash,
    crash_cycles,
)

NUM_LINES = 12


@st.composite
def programs(draw):
    num_threads = draw(st.integers(1, 3))
    threads = []
    for _ in range(num_threads):
        regions = draw(
            st.lists(
                st.lists(
                    st.tuples(
                        st.integers(0, NUM_LINES - 1),
                        st.booleans(),
                        st.integers(0, 2**20),
                    ),
                    min_size=1,
                    max_size=4,
                ),
                min_size=1,
                max_size=5,
            )
        )
        threads.append(regions)
    return threads


@settings(max_examples=30, deadline=None)
@given(
    threads=programs(),
    crash_frac=st.floats(0.05, 0.98),
    wpq_entries=st.sampled_from([2, 8]),
)
def test_redo_recovery_consistent_at_any_crash_point(threads, crash_frac, wpq_entries):
    case = FuzzCase("asap_redo", threads, wpq_entries=wpq_entries)
    total = build_machine(case).run().cycles
    (cycle,) = crash_cycles(total, fracs=[crash_frac])
    check = check_crash(case, cycle)
    assert not check.problems, check.failures


@settings(max_examples=10, deadline=None)
@given(threads=programs())
# The redo analog of the cross-thread commit-ordering bug (pinned forever;
# see tests/property/corpus/redo-premature-dep-clear-wpq4.json): the
# Dependence List entry was removed at marker *issue* instead of marker
# *acceptance*, letting successors race their markers ahead of their
# dependencies' - fixed in persist/asap_redo.py.
@example(
    threads=[
        [
            [(0, False, 0)],
            [(0, False, 0)],
            [(0, False, 0)],
            [(0, False, 1), (1, False, 0), (3, False, 0), (5, False, 0)],
            [(0, False, 0)],
        ],
        [[(2, False, 0), (4, False, 0)]],
    ]
)
def test_redo_no_crash_run_is_durable(threads):
    assert check_no_crash(FuzzCase("asap_redo", threads, wpq_entries=4)) == []
