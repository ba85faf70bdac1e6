"""Unit tests for the executor (op dispatch, splitting, accounting) and
the commit oracle."""

import pytest

from repro.common.errors import SimulationError
from repro.common.observe import SimObserver
from repro.common.params import SystemConfig
from repro.core.rid import pack_rid
from repro.harness.runner import build_machine, default_params
from repro.mem.image import MemoryImage
from repro.persist import make_scheme
from repro.sim.executor import _split_by_line
from repro.sim.machine import Machine
from repro.sim.ops import Begin, Compute, End, Fence, Lock, Read, Unlock, Write
from repro.sim.oracle import CommitOracle


def test_split_by_line_within_one_line():
    assert _split_by_line(0x1000, 3) == [(0x1000, 0, 3)]


def test_split_by_line_across_lines():
    # an unaligned address starts at its word
    assert _split_by_line(0x1000 + 51, 4) == [(0x1030, 0, 2), (0x1040, 2, 4)]


def test_split_read_by_line():
    # a read of a full line plus a word on either side spans three lines
    spans = _split_by_line(0x1038, 10)
    assert spans == [(0x1038, 0, 1), (0x1040, 1, 9), (0x1080, 9, 10)]


def make_machine(scheme="np"):
    return Machine(SystemConfig.small(), make_scheme(scheme)).inspect()


def test_compute_advances_clock():
    m = make_machine()

    def worker(env):
        yield Compute(500)

    m.spawn(worker)
    res = m.run()
    assert res.cycles >= 500


def test_compute_cycles_are_truncated_to_whole_nonnegative_cycles():
    # the executor coerces Compute.cycles; Scheduler.after does not
    m = make_machine()
    took = []

    def worker(env):
        clock = env.machine.scheduler
        for cycles in (2.5, -3, 0.5, -2.5, 7):
            start = clock.now
            yield Compute(cycles)
            took.append(clock.now - start)

    m.spawn(worker)
    res = m.run()
    assert took == [2, 0, 0, 0, 7]
    assert all(type(t) is int for t in took) and type(res.cycles) is int


def test_read_returns_written_values_across_lines():
    m = make_machine()
    a = m.heap.alloc(256)
    seen = {}

    def worker(env):
        yield Write(a + 56, [11, 22])  # spans two lines
        seen["vals"] = (yield Read(a + 56, 2))

    m.spawn(worker)
    m.run()
    assert seen["vals"] == [11, 22]


def test_region_accounting():
    m = make_machine()
    a = m.heap.alloc(64)

    def worker(env):
        for _ in range(3):
            yield Begin()
            yield Write(a, [1])
            yield End()

    m.spawn(worker)
    res = m.run()
    assert res.regions_completed == 3
    assert res.cycles_per_region > 0


def test_nested_regions_count_once():
    m = make_machine()
    a = m.heap.alloc(64)

    def worker(env):
        yield Begin()
        yield Begin()
        yield Write(a, [1])
        yield End()
        yield End()

    m.spawn(worker)
    res = m.run()
    assert res.regions_completed == 1


def test_end_without_begin_raises():
    m = make_machine()

    def worker(env):
        yield End()

    m.spawn(worker)
    with pytest.raises(SimulationError, match="thread 0: End without Begin"):
        m.run()


@pytest.mark.parametrize("scheme", ["np", "asap", "asap_redo"])
def test_region_ids_come_from_the_scheme_thread(scheme):
    # the template numbers and nests regions; the executor only reads them
    m = make_machine(scheme)
    a = m.heap.alloc(64)
    seen = []

    def worker(env):
        for _ in range(2):
            seen.append((env.current_rid, env.next_rid))
            yield Begin()
            yield Begin()
            seen.append((env.current_rid, env.next_rid))
            yield Write(a, [1])
            yield End()
            seen.append((env.current_rid, env.next_rid))
            yield End()
        seen.append((env.current_rid, env.next_rid))

    m.spawn(worker)
    m.spawn(worker)
    m.run()
    r = pack_rid
    expected = [
        ids
        for t in (0, 1)
        for ids in (
            (None, r(t, 1)), (r(t, 1), r(t, 2)), (r(t, 1), r(t, 2)),
            (None, r(t, 2)), (r(t, 2), r(t, 3)), (r(t, 2), r(t, 3)),
            (None, r(t, 3)),
        )
    ]
    assert sorted(seen, key=str) == sorted(expected, key=str)
    assert sorted(m.oracle.committed_rids) == [r(t, n) for t in (0, 1) for n in (1, 2)]


def test_fence_is_dispatchable_on_all_schemes():
    for scheme in ("np", "sw", "hwundo", "hwredo", "asap"):
        m = make_machine(scheme)
        a = m.heap.alloc(64)

        def worker(env, a=a):
            yield Begin()
            yield Write(a, [1])
            yield End()
            yield Fence()

        m.spawn(worker)
        res = m.run()
        assert res.regions_completed == 1, scheme


def test_oracle_tracks_commit_order():
    oracle = CommitOracle()
    r1, r2 = pack_rid(0, 1), pack_rid(0, 2)
    oracle.region_stored(None, r1, 0x1000, [10])
    oracle.region_stored(None, r2, 0x1000, [20])
    oracle.region_committed(None, r1)
    assert oracle.committed.read_word(0x1000) == 10
    assert oracle.uncommitted_rids() == [r2]
    oracle.region_committed(None, r2)
    assert oracle.committed.read_word(0x1000) == 20


def test_oracle_mismatches():
    oracle = CommitOracle()
    r = pack_rid(0, 1)
    oracle.region_stored(None, r, 0x1000, [5])
    oracle.region_committed(None, r)
    img = MemoryImage()
    diffs = oracle.mismatches(img)
    assert diffs == [(0x1000, 5, 0)]
    img.write_word(0x1000, 5)
    assert oracle.mismatches(img) == []


def test_deadlock_detection():
    m = make_machine()
    lock = m.new_lock()

    def worker(env):
        yield Lock(lock)
        yield Lock(m.new_lock())  # fine
        # never released; second thread will block forever

    def worker2(env):
        yield Lock(lock)

    m.spawn(worker)
    m.spawn(worker2)
    with pytest.raises(SimulationError, match="deadlock"):
        m.run()


def test_deadlock_names_the_lock_each_thread_waits_on():
    m = make_machine()
    a, b = m.new_lock("A"), m.new_lock("B")

    def ab(env):
        yield Lock(a)
        yield Compute(10)
        yield Lock(b)

    def ba(env):
        yield Lock(b)
        yield Compute(10)
        yield Lock(a)

    m.spawn(ab)
    m.spawn(ba)
    with pytest.raises(SimulationError) as err:
        m.run()
    message = str(err.value)
    assert "thread 0: queued on B, held by thread 1" in message
    assert "thread 1: queued on A, held by thread 0" in message


def test_deadlock_off_any_lock_reports_internal_resource():
    m = make_machine("asap")

    def fence_in_region(env):
        yield Begin()
        yield Write(m.heap.alloc(64), [1])
        yield Fence()  # waits for its own region's commit: never

    m.spawn(fence_in_region)
    with pytest.raises(SimulationError) as err:
        m.run()
    assert (
        "thread 0: parked on an internal resource; non-empty wait queues: none"
        in str(err.value)
    )


def test_uninspected_run_folds_nothing_until_read(monkeypatch):
    """A reference run that no check reads only logs: the committed image
    takes no write until it is read, and the first read folds every
    committed region's stores in commit order."""
    machine = build_machine("HM", "asap", params=default_params(True, value_bytes=64))
    image = machine.oracle.committed  # nothing is pending before the run
    folded, runs_of, commit_order = [], {}, []
    original_apply = MemoryImage.apply
    original_record = CommitOracle.region_stored

    def apply(self, runs):
        if self is image:
            folded.append(list(runs))
        original_apply(self, runs)

    def region_stored(self, executor, rid, addr, values):
        runs_of.setdefault(rid, []).append((addr & ~7, tuple(values)))
        original_record(self, executor, rid, addr, values)

    class CommitOrder(SimObserver):
        def region_committed(self, source, rid):
            commit_order.append(rid)

    monkeypatch.setattr(MemoryImage, "apply", apply)
    monkeypatch.setattr(CommitOracle, "region_stored", region_stored)
    machine.observe(CommitOrder())
    result = machine.run()
    assert folded == [] and len(commit_order) == result.regions_completed > 0
    committed = machine.oracle.committed
    assert folded == [runs_of.get(rid, []) for rid in commit_order]
    tracked = machine.oracle.tracked_words
    assert tracked == {
        base + 8 * i
        for runs in runs_of.values()
        for base, values in runs
        for i in range(len(values))
    }
    assert all(committed.read_word(w) == machine.pm_image.read_word(w) for w in tracked)
    assert machine.oracle.committed is committed and len(folded) == len(commit_order)
