"""ASAP engine tests: the Fig. 4 state machine, dependence tracking,
asynchronous commit, and structural stalls."""

import pytest

from repro.common.observe import SimObserver
from repro.common.params import SystemConfig
from repro.core.rid import pack_rid
from repro.core.states import RegionState
from repro.persist import make_scheme
from repro.sim.machine import Machine
from repro.sim.ops import Begin, Compute, End, Fence, Lock, Read, Unlock, Write
from repro.sim.trace import COMMIT, Tracer


def make(scheme_kwargs=None, **small_kwargs):
    m = Machine(SystemConfig.small(**small_kwargs), make_scheme("asap"))
    return m, m.scheme


def test_dependence_list_for_rid_uses_local_lsbs():
    # Sec. 5.6: the LocalRID's LSBs pick the channel whose Dependence
    # List hosts the region, whatever the thread id
    m, eng = make()
    n = len(m.memory.channels)
    for thread_id in (0, 3):
        for local in range(8):
            dl = eng.dep_list_for(pack_rid(thread_id, local))
            assert dl is eng.dep_lists[local % n]
            assert dl.channel_index == local % n


def test_end_retires_before_commit():
    """The asynchronous-commit headline: execution proceeds past asap_end
    while persist operations are outstanding."""
    m, eng = make()
    a = m.heap.alloc(64)
    t = {}

    def worker(env):
        yield Begin()
        yield Write(a, [1])
        yield End()
        t["end_retired"] = m.scheduler.now
        t["commits_at_end"] = eng.stats.commits

    m.spawn(worker)
    m.run()
    assert t["commits_at_end"] == 0  # not yet committed when End retired
    assert eng.stats.commits == 1  # but committed by quiescence
    assert eng.uncommitted_count() == 0


def test_control_dependence_orders_same_thread_commits():
    m, eng = make()
    a = m.heap.alloc(256)
    tracer = Tracer(m)

    def worker(env):
        for i in range(5):
            yield Begin()
            yield Write(a + 64 * i, [i])
            yield End()

    m.spawn(worker)
    m.run()
    commit_order = [e.rid for e in tracer.of_kind(COMMIT)]
    assert commit_order == sorted(commit_order)
    assert len(commit_order) == 5


def test_data_dependence_across_threads():
    """Fig. 2(ii): a consumer region must not commit before its producer.

    A one-entry WPQ keeps the producer's persist operations outstanding
    long enough for the consumer to read the line while the producer is
    still uncommitted - the exact scenario dependence tracking exists for.
    """
    m, eng = make(wpq_entries=1)
    a = m.heap.alloc(64 * 8)
    lock = m.new_lock()
    tracer = Tracer(m)

    def producer(env):
        yield Lock(lock)
        yield Begin()
        for j in range(1, 7):  # extra lines keep the WPQ saturated
            yield Write(a + 64 * j, [j])
        yield Write(a, [41])
        yield End()
        yield Unlock(lock)

    def consumer(env):
        yield Lock(lock)
        yield Begin()
        (x,) = yield Read(a, 1)
        yield Write(a, [x + 1])
        yield End()
        yield Unlock(lock)

    m.spawn(producer)
    m.spawn(consumer)
    m.run()
    assert m.volatile.read_word(a) == 42
    # whichever region consumed must commit after the producer
    commit_order = [e.rid for e in tracer.of_kind(COMMIT)]
    producer_rid, consumer_rid = pack_rid(0, 1), pack_rid(1, 1)
    if commit_order.index(consumer_rid) < commit_order.index(producer_rid):
        pytest.fail(f"consumer committed before producer: {commit_order}")
    assert eng.stats.dep_captures >= 1


def test_read_only_region_commits():
    m, eng = make()
    a = m.heap.alloc(64)
    m.bootstrap_write(a, [5])

    def worker(env):
        yield Begin()
        yield Read(a, 1)
        yield End()

    m.spawn(worker)
    m.run()
    assert eng.stats.commits == 1
    assert eng.stats.lpos_initiated == 0


def test_nested_regions_flatten():
    m, eng = make()
    a = m.heap.alloc(64)

    def worker(env):
        yield Begin()
        yield Begin()
        yield Write(a, [1])
        yield End()
        yield Write(a + 8, [2])
        yield End()

    m.spawn(worker)
    m.run()
    assert eng.stats.regions_begun == 1
    assert eng.stats.commits == 1


def test_first_write_initiates_exactly_one_lpo_per_line():
    m, eng = make()
    a = m.heap.alloc(128)

    def worker(env):
        yield Begin()
        yield Write(a, [1])
        yield Write(a, [2])  # same line: no second LPO
        yield Write(a + 64, [3])  # new line: second LPO
        yield End()

    m.spawn(worker)
    m.run()
    assert eng.stats.lpos_initiated == 2


def test_cl_list_full_stalls_begin():
    # 1 CL entry/core: the second region cannot begin until the first's
    # DPOs complete and the entry clears.
    m, eng = make(cl_list_entries=1)
    a = m.heap.alloc(256)

    def worker(env):
        for i in range(4):
            yield Begin()
            yield Write(a + 64 * i, [i])
            yield End()

    m.spawn(worker)
    m.run()
    assert eng.stats.commits == 4
    assert eng.cl_lists[0].entry_stalls >= 1


@pytest.mark.parametrize("scheme", ["asap", "asap_redo"])
def test_dep_slots_stall_then_resolve(scheme):
    # 1 Dep slot: the reader touches the lines of two still-uncommitted
    # writers, so its second capture stalls until the first writer
    # commits and frees the slot.
    m = Machine(SystemConfig.small(dep_slots=1), make_scheme(scheme))
    a = m.heap.alloc(192)
    tracer = Tracer(m)

    def writer(env, off, cycles):
        yield Begin()
        yield Write(a + off, [off + 1])
        yield Compute(cycles)  # keeps the region open past the reader's reads
        yield End()

    def reader(env):
        yield Compute(300)
        yield Begin()
        yield Read(a, 1)
        yield Read(a + 64, 1)
        yield Write(a + 128, [1])
        yield End()

    m.spawn(lambda env: writer(env, 0, 1000), core_id=0)
    m.spawn(lambda env: writer(env, 64, 3000), core_id=1)
    m.spawn(reader, core_id=2)
    m.run()
    assert sum(dl.dep_stalls for dl in m.scheme.dep_lists) >= 1
    order = [e.rid for e in tracer.of_kind(COMMIT)]
    first, second, reader_rid = pack_rid(0, 1), pack_rid(1, 1), pack_rid(2, 1)
    assert sorted(order) == [first, second, reader_rid]
    assert order.index(reader_rid) > max(order.index(first), order.index(second))


def test_fence_blocks_until_commit():
    m, eng = make()
    a = m.heap.alloc(64)
    t = {}

    def worker(env):
        yield Begin()
        yield Write(a, [1])
        yield End()
        t["after_end"] = eng.stats.commits
        yield Fence()
        t["after_fence"] = eng.stats.commits

    m.spawn(worker)
    m.run()
    assert t["after_end"] == 0
    assert t["after_fence"] == 1
    assert eng.stats.fence_waits == 1


def test_fence_without_regions_is_noop():
    m, eng = make()

    def worker(env):
        yield Fence()

    m.spawn(worker)
    m.run()
    assert eng.stats.fence_waits == 0


class _DepCaptures(SimObserver):
    def __init__(self):
        self.captured = []

    def dep_captured(self, scheme, rid, owner) -> None:
        self.captured.append((rid, owner))


@pytest.mark.parametrize("scheme", ["asap", "asap_redo"])
def test_stale_owner_lookup_clears_tag(scheme):
    m = Machine(SystemConfig.small(), make_scheme(scheme))
    a = m.heap.alloc(64)
    deps = m.observe(_DepCaptures())

    def worker(env):
        yield Begin()
        yield Write(a, [1])
        yield End()
        yield Fence()  # region 1 fully committed
        yield Begin()
        yield Read(a, 1)  # owner tag stale: rid 1 already committed
        yield End()

    m.spawn(worker)
    m.run()
    assert m.hierarchy.tags.get(a).owner_rid is None
    assert deps.captured == []
    if scheme == "asap":
        assert m.scheme.stats.stale_owner_lookups >= 1
        assert m.scheme.stats.commits == 2


def test_log_freed_after_commit():
    m, eng = make()
    a = m.heap.alloc(64)

    def worker(env):
        yield Begin()
        yield Write(a, [1])
        yield End()
        yield Fence()

    m.spawn(worker)
    m.run()
    thread = eng.threads[0]
    assert thread.log.live_records == 0
