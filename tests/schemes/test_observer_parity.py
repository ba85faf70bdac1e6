"""Observer parity on the ASAP scheme's one write path.

Every region write runs through ``AsapScheme._track_write``, which opens
the CLPtr slot and starts the first-write LPO. The observer calls on
that path sit behind ``observer is not None``, so an observed run must
still report every slot, LPO and DPO the scheme counts. The run below
takes the common case: no dependence capture and no slot stall.
"""

from repro.common.observe import SimObserver
from repro.common.params import SystemConfig
from repro.core import cl_list
from repro.persist import make_scheme
from repro.sim.machine import Machine
from repro.sim.ops import Begin, End, Read, Write

REGIONS = 12
LINES_PER_REGION = 3


class CountingObserver(SimObserver):
    def __init__(self):
        self.slots = []
        self.lpos_initiated = 0
        self.lpos_logged = 0
        self.dpos_initiated = 0

    def slot_opened(self, engine, entry, line):
        self.slots.append((entry.rid, line))

    def lpo_initiated(self, engine, rid, line, entry_addr):
        self.lpos_initiated += 1

    def lpo_logged(self, engine, rid, line):
        self.lpos_logged += 1

    def dpo_initiated(self, engine, rid, line):
        self.dpos_initiated += 1


def test_observer_sees_every_happy_path_event(monkeypatch):
    created = []

    def counting_slot(line):
        slot = real_slot(line=line)
        created.append(slot)
        return slot

    real_slot = cl_list.CLSlot
    monkeypatch.setattr(cl_list, "CLSlot", counting_slot)

    machine = Machine(SystemConfig.small(), make_scheme("asap"))
    scheme = machine.scheme
    observer = CountingObserver()
    scheme.observer = observer
    base = machine.heap.alloc(64 * REGIONS * LINES_PER_REGION)

    def worker(env):
        # One thread, fresh lines per region: no line is ever owned by
        # another region. Each line is written twice (open a slot, then
        # hit it) and read back inside its region.
        for r in range(REGIONS):
            yield Begin()
            for i in range(LINES_PER_REGION):
                addr = base + 64 * (r * LINES_PER_REGION + i)
                yield Write(addr, [r, i])
                yield Write(addr + 8, [r + i])
                (value,) = yield Read(addr, 1)
                assert value == r
            yield End()

    machine.spawn(worker)
    result = machine.run()

    stats = scheme.stats
    assert result.regions_completed == REGIONS
    assert stats.commits == REGIONS
    # Neither a cross-region owner nor a slot stall occurred.
    assert stats.dep_captures == 0
    assert sum(cl.slot_stalls for cl in scheme.cl_lists) == 0
    assert stats.lpos_initiated == REGIONS * LINES_PER_REGION
    assert observer.lpos_initiated == stats.lpos_initiated
    assert observer.lpos_logged == stats.lpos_initiated
    assert stats.dpos_initiated > 0
    assert observer.dpos_initiated == stats.dpos_initiated
    # One slot_opened event per slot the scheme opened, none repeated.
    assert len(created) > 0
    assert len(observer.slots) == len(created)
    assert len(set(observer.slots)) == len(observer.slots)
    assert [line for _, line in observer.slots] == [slot.line for slot in created]
