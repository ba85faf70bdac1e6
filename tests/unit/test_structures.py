"""Unit tests for CL List, Dependence List, LH-WPQ and RIDs."""

import pytest

from repro.common.errors import SimulationError
from repro.core.cl_list import CLList
from repro.core.dependence import DependenceList
from repro.core.lh_wpq import LogHeaderWPQ
from repro.core.log import LogRecord
from repro.core.rid import RID, local_rid_of, pack_rid, previous_rid, thread_id_of, unpack_rid
from repro.core.states import RegionState
from repro.engine import Scheduler
from repro.mem.image import MemoryImage


# -- RIDs --------------------------------------------------------------------


def test_rid_pack_unpack_roundtrip():
    packed = pack_rid(3, 1000)
    assert unpack_rid(packed) == RID(3, 1000)
    assert thread_id_of(packed) == 3
    assert local_rid_of(packed) == 1000


def test_rid_ordering_within_thread():
    assert pack_rid(1, 5) < pack_rid(1, 6)
    assert previous_rid(pack_rid(1, 6)) == pack_rid(1, 5)
    assert previous_rid(pack_rid(1, 0)) is None


def test_rid_validation():
    with pytest.raises(ValueError):
        pack_rid(-1, 0)
    with pytest.raises(ValueError):
        pack_rid(0, 1 << 33)
    with pytest.raises(ValueError):
        unpack_rid(-5)


def test_rid_str():
    assert str(RID(2, 7)) == "R2.7"


# -- CL List -------------------------------------------------------------------


def test_cl_list_entry_lifecycle():
    s = Scheduler()
    cl = CLList(0, s, entries=2, slots=2)
    e1 = cl.open_entry(11)
    assert e1.state is RegionState.IN_PROGRESS
    cl.open_entry(12)
    assert cl.full
    with pytest.raises(SimulationError):
        cl.open_entry(13)
    cl.remove_entry(11)
    assert not cl.full
    assert cl.entry(11) is None


def test_cl_entry_slot_limits():
    s = Scheduler()
    cl = CLList(0, s, entries=1, slots=2)
    e = cl.open_entry(1)
    e.add_slot(0x100)
    e.add_slot(0x200)
    assert e.slots_full
    with pytest.raises(SimulationError):
        e.add_slot(0x300)
    e.clear_slot(0x100)
    assert not e.slots_full
    assert e.slot_for(0x200) is not None
    assert e.slot_for(0x100) is None


def test_cl_remove_wakes_entry_waiter():
    s = Scheduler()
    cl = CLList(0, s, entries=1, slots=1)
    cl.open_entry(1)
    seen = []
    cl.entry_waiters.park(lambda: seen.append("woken"))
    cl.remove_entry(1)
    s.run()
    assert seen == ["woken"]


def test_duplicate_cl_entry_rejected():
    s = Scheduler()
    cl = CLList(0, s, entries=4, slots=1)
    cl.open_entry(1)
    with pytest.raises(SimulationError):
        cl.open_entry(1)


# -- Dependence List -------------------------------------------------------------


def test_dependence_entry_commit_protocol():
    s = Scheduler()
    dl = DependenceList(0, s, entries=4, dep_slots=2)
    e = dl.open_entry(5)
    e.deps.add(4)
    assert not e.committable
    e.state = RegionState.DONE
    assert not e.committable  # dep outstanding
    ready = dl.clear_dependency(4)
    assert [x.rid for x in ready] == [5]
    assert e.committable


def test_dependence_clear_wakes_dep_waiters():
    s = Scheduler()
    dl = DependenceList(0, s, entries=4, dep_slots=1)
    e = dl.open_entry(5)
    e.deps.add(4)
    seen = []
    dl.dep_waiters.park(lambda: seen.append(1))
    dl.clear_dependency(4)
    s.run()
    assert seen == [1]


def test_dependence_capacity():
    s = Scheduler()
    dl = DependenceList(0, s, entries=1, dep_slots=1)
    dl.open_entry(1)
    assert dl.full
    with pytest.raises(SimulationError):
        dl.open_entry(2)
    dl.remove_entry(1)
    assert dl.empty


def test_dependence_snapshot_format():
    s = Scheduler()
    dl = DependenceList(0, s, entries=4, dep_slots=2)
    e = dl.open_entry(9)
    e.deps.update((3, 7))
    e.state = RegionState.DONE
    (snap,) = dl.snapshot()
    assert snap == {"rid": 9, "state": "Done", "deps": [3, 7]}


# -- LH-WPQ ------------------------------------------------------------------------


def test_lh_wpq_acquire_release_and_stall():
    s = Scheduler()
    lh = LogHeaderWPQ("lh", s, capacity=1)
    r1 = LogRecord(1, 0x1000, 7)
    r2 = LogRecord(2, 0x2000, 7)
    order = []
    lh.acquire(r1, lambda: order.append("r1"))
    lh.acquire(r2, lambda: order.append("r2"))
    s.run()
    assert order == ["r1"]
    assert lh.stalls == 1
    lh.release(0x1000)
    s.run()
    assert order == ["r1", "r2"]


def test_lh_wpq_release_region():
    s = Scheduler()
    lh = LogHeaderWPQ("lh", s, capacity=4)
    for i, addr in enumerate((0x1000, 0x2000, 0x3000)):
        lh.acquire(LogRecord(7 if i < 2 else 8, addr, 7), lambda: None)
    s.run()
    assert lh.release_region(7) == 2
    assert len(lh) == 1


def test_lh_wpq_flush_writes_headers():
    s = Scheduler()
    lh = LogHeaderWPQ("lh", s, capacity=4)
    record = LogRecord(42, 0x1000, 2)
    slot, _ = record.add_entry(0x9000)
    record.confirm(slot)
    lh.acquire(record, lambda: None)
    s.run()
    img = MemoryImage("pm")
    assert lh.flush_to_pm(img) == 1
    assert img.read_word(0x1000) == 42
    assert img.read_word(0x1008) == 0x9000
    # the LH-WPQ is untouched: the header is still held
    assert len(lh) == 1
    assert list(lh.records()) == [record]
