"""Unit tests for the memory system: channels, interleaving, traffic."""

from repro.common.params import SystemConfig
from repro.engine import Scheduler
from repro.mem.controller import MemorySystem
from repro.mem.image import MemoryImage
from repro.mem.wpq import DPO, LPO, DrainToImage, PersistOp

PM = 0x1000_0000_0000


def build(channels=2):
    cfg = SystemConfig.small()
    s = Scheduler()
    pm = MemoryImage("pm")
    mem = MemorySystem(cfg, s)
    for ch in mem.channels:
        ch.wpq.observer = DrainToImage(pm)
    return cfg, s, pm, mem


def test_line_interleaving_covers_all_channels():
    cfg, s, pm, mem = build()
    seen = {mem.channel_for_line(PM + i * 64).index for i in range(8)}
    assert seen == set(range(len(mem.channels)))


def test_issue_persist_charges_hop_latency():
    cfg, s, pm, mem = build()
    times = []
    op = PersistOp(DPO, PM, PM, ((PM, (1,)),), on_complete=lambda o: times.append(s.now))
    s.at(0, lambda: mem.issue_persist(op))
    s.run()
    assert times == [mem.timing.mc_hop()]


def test_traffic_accounting_by_kind():
    cfg, s, pm, mem = build()
    s.at(0, lambda: mem.issue_persist(PersistOp(LPO, PM, PM + 64, ((PM, (1,)),))))
    s.at(0, lambda: mem.issue_persist(PersistOp(DPO, PM + 64, PM + 64, ((PM + 64, (2,)),))))
    s.run()
    kinds = mem.pm_writes_by_kind()
    assert kinds["lpo"] == 1 and kinds["dpo"] == 1
    assert mem.total_pm_writes() == 2


def test_queued_dpo_lookup_and_drop():
    cfg, s, pm, mem = build()
    dpo = PersistOp(DPO, PM, PM, ((PM, (1,)),))
    s.at(0, lambda: mem.issue_persist(dpo))
    s.run(until=mem.timing.mc_hop())
    wpq = mem.channel_for_line(PM).wpq
    assert list(wpq.queued_ops()) == [dpo]
    # DPO dropping (Sec. 5.1) finds the line's data ops only
    assert mem.channel_for_line(PM + 64).wpq.drop_data_ops_for_line(PM + 64) == 0
    assert wpq.drop_data_ops_for_line(PM) == 1
    assert list(wpq.queued_ops()) == []


def test_flush_persistence_domain():
    cfg, s, pm, mem = build()
    s.at(0, lambda: mem.issue_persist(PersistOp(DPO, PM, PM, ((PM, (7,)),))))
    s.run(until=mem.timing.mc_hop())
    image = pm.copy()
    flushed = mem.flush_persistence_domain(image)
    assert flushed == 1
    assert image.read_word(PM) == 7
    # the queues are untouched: the DPO is still queued, live PM unchanged
    assert len(list(mem.channel_for_line(PM).wpq.queued_ops())) == 1
    assert pm.read_word(PM) == 0


def test_dram_write_accounting():
    cfg, s, pm, mem = build()
    mem.issue_dram_write(0x1000)
    assert sum(ch.stats.dram_writes for ch in mem.channels) == 1
