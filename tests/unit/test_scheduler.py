"""Unit tests for the discrete-event scheduler."""

import pytest

from repro.common.errors import SimulationError
from repro.engine import Scheduler


def test_events_run_in_time_order():
    s = Scheduler()
    seen = []
    s.at(30, lambda: seen.append(30))
    s.at(10, lambda: seen.append(10))
    s.at(20, lambda: seen.append(20))
    s.run()
    assert seen == [10, 20, 30]
    assert s.now == 30


def test_same_cycle_events_run_fifo():
    s = Scheduler()
    seen = []
    for i in range(5):
        s.at(7, lambda i=i: seen.append(i))
    s.run()
    assert seen == [0, 1, 2, 3, 4]


def test_after_is_relative_to_now():
    s = Scheduler()
    times = []

    def first():
        s.after(5, lambda: times.append(s.now))

    s.at(10, first)
    s.run()
    assert times == [15]


def test_cannot_schedule_in_the_past():
    s = Scheduler()
    s.at(5, lambda: None)
    s.run()
    with pytest.raises(SimulationError):
        s.at(3, lambda: None)


def test_negative_delay_rejected():
    s = Scheduler()
    with pytest.raises(SimulationError):
        s.after(-1, lambda: None)


def test_cancelled_event_does_not_fire():
    s = Scheduler()
    seen = []
    fn = lambda: seen.append("cancelled")  # noqa: E731
    t = s.at(10, fn)
    s.at(10, lambda: seen.append("kept"))
    s.cancel(t, fn)
    s.run()
    assert seen == ["kept"]


def test_run_until_stops_before_later_events():
    s = Scheduler()
    seen = []
    s.at(10, lambda: seen.append(10))
    s.at(20, lambda: seen.append(20))
    executed = s.run(until=15)
    assert seen == [10]
    assert executed == 1
    # clock advances to the until bound when idle
    assert s.now == 15
    s.run()
    assert seen == [10, 20]


def test_events_scheduled_during_run_execute():
    s = Scheduler()
    seen = []

    def chain(n):
        seen.append(n)
        if n < 4:
            s.after(1, lambda: chain(n + 1))

    s.at(0, lambda: chain(0))
    s.run()
    assert seen == [0, 1, 2, 3, 4]
    assert s.now == 4


def test_max_events_guard():
    s = Scheduler()

    def forever():
        s.after(1, forever)

    s.at(0, forever)
    with pytest.raises(SimulationError):
        s.run(max_events=100)


def test_peek_time_skips_cancelled():
    s = Scheduler()
    fn = lambda: None  # noqa: E731
    t = s.at(5, fn)
    s.at(9, lambda: None)
    s.cancel(t, fn)
    assert s.peek_time() == 9


def test_len_counts_live_events():
    s = Scheduler()
    fn = lambda: None  # noqa: E731
    t = s.at(5, fn)
    s.at(6, lambda: None)
    assert len(s) == 2
    s.cancel(t, fn)
    assert len(s) == 1


# -- bucket-queue invariants every run depends on ---------------------------


def test_cancelled_last_event_does_not_advance_clock():
    # A cancelled drain tick can be the queue's last entry; the final
    # clock value is part of every RunResult.
    for drain in ("run", "step"):
        s = Scheduler()
        s.at(5, lambda: None)
        fn = lambda: None  # noqa: E731
        s.cancel(s.at(9, fn), fn)
        if drain == "run":
            assert s.run() == 1
        else:
            while s.step():
                pass
        assert s.now == 5
        assert len(s) == 0


def test_event_scheduled_at_now_during_drain_runs_after_queued_ones():
    s = Scheduler()
    seen = []

    def first():
        seen.append("first")
        s.after(0, lambda: seen.append("nested"))

    s.at(3, first)
    s.at(3, lambda: seen.append("second"))
    s.at(3, lambda: seen.append("third"))
    s.run()
    assert seen == ["first", "second", "third", "nested"]
    assert s.now == 3


def test_event_before_head_scheduled_during_drain_runs_first():
    # now <= t' < head: the new cycle must run before the pending head,
    # whether it lands in the current cycle's bucket or a new one.
    s = Scheduler()
    seen = []

    def first():
        seen.append(("first", s.now))
        s.at(7, lambda: seen.append(("inserted", s.now)))
        s.at(5, lambda: seen.append(("same-cycle", s.now)))

    s.at(5, first)
    s.at(10, lambda: seen.append(("head", s.now)))
    s.run()
    assert seen == [
        ("first", 5),
        ("same-cycle", 5),
        ("inserted", 7),
        ("head", 10),
    ]


def test_event_before_head_scheduled_between_steps_runs_first():
    s = Scheduler()
    seen = []
    s.at(5, lambda: seen.append(5))
    s.at(10, lambda: seen.append(10))
    assert s.step()
    s.at(6, lambda: seen.append(6))
    assert s.peek_time() == 6
    s.run()
    assert seen == [5, 6, 10]


def test_run_until_idles_clock_to_bound():
    s = Scheduler()
    assert s.run(until=50) == 0
    assert s.now == 50
    s.at(60, lambda: None)
    assert s.run(until=100) == 1
    assert s.now == 100
    # The bound is inclusive: an event at exactly ``until`` runs.
    seen = []
    s.at(120, lambda: seen.append(s.now))
    s.at(121, lambda: seen.append(s.now))
    assert s.run(until=120) == 1
    assert seen == [120]
    assert s.now == 120


def test_max_events_counts_only_fired_events():
    s = Scheduler()
    for t in range(3):
        s.at(t, lambda: None)
    fn = lambda: None  # noqa: E731
    s.cancel(s.at(1, fn), fn)
    assert s.run(max_events=3) == 3

    s = Scheduler()
    for t in range(3):
        s.at(t, lambda: None)
    with pytest.raises(SimulationError, match="max_events=2"):
        s.run(max_events=2)
    assert s.now == 1


# -- cancel(time, fn) and interrupted drains ----------------------------------


def test_at_and_after_return_the_fire_cycle():
    s = Scheduler()
    assert s.at(7, lambda: None) == 7
    s.run()
    assert s.after(5, lambda: None) == 12


def test_cancel_ahead_of_cursor_within_current_cycle():
    s = Scheduler()
    seen = []
    victim = lambda: seen.append("victim")  # noqa: E731

    def first():
        seen.append("first")
        s.cancel(3, victim)

    s.at(3, first)
    s.at(3, lambda: seen.append("second"))
    s.at(3, victim)
    s.at(3, lambda: seen.append("third"))
    assert s.run() == 3
    assert seen == ["first", "second", "third"]


def test_cancel_takes_the_last_pending_entry():
    s = Scheduler()
    seen = []
    fn = lambda: seen.append(s.now)  # noqa: E731
    s.at(4, fn)
    s.at(4, fn)
    s.cancel(4, fn)
    assert len(s) == 1
    assert s.run() == 1
    assert seen == [4]


def test_callback_raising_mid_bucket_resumes_rest_of_cycle_once():
    s = Scheduler()
    seen = []

    def boom():
        seen.append("boom")
        raise RuntimeError("boom")

    s.at(2, lambda: seen.append("a"))
    s.at(2, boom)
    s.at(2, lambda: seen.append("b"))
    s.at(2, lambda: seen.append("c"))
    s.at(5, lambda: seen.append("later"))
    with pytest.raises(RuntimeError):
        s.run()
    assert seen == ["a", "boom"]
    assert s.now == 2
    assert len(s) == 3
    assert s.run() == 3
    assert seen == ["a", "boom", "b", "c", "later"]
    assert s.now == 5


def test_cancel_of_event_not_pending_raises():
    s = Scheduler()
    fired = lambda: None  # noqa: E731
    never = lambda: None  # noqa: E731
    s.at(3, fired)
    with pytest.raises(SimulationError):
        s.cancel(3, never)  # never scheduled
    with pytest.raises(SimulationError):
        s.cancel(4, fired)  # scheduled at another cycle
    s.cancel(3, fired)
    with pytest.raises(SimulationError):
        s.cancel(3, fired)  # already cancelled

    def self_cancel():
        s.cancel(8, self_cancel)  # already firing

    s.at(8, self_cancel)
    with pytest.raises(SimulationError):
        s.run()
    s.at(9, fired)
    s.run()
    with pytest.raises(SimulationError):
        s.cancel(9, fired)  # already fired
