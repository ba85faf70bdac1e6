"""Unit tests for the NUMA channel-latency extension (Sec. 7.3)."""

from dataclasses import replace

from repro.common.params import MemoryParams, SystemConfig
from repro.mem.timing import TimingModel


def numa_config(remote=(1,), mult=4.0):
    cfg = SystemConfig.small()
    return replace(
        cfg,
        memory=replace(
            cfg.memory,
            numa_remote_channels=remote,
            numa_remote_multiplier=mult,
        ),
    )


def test_remote_channels_scale_hop_and_service():
    t = TimingModel(numa_config(remote=(1,), mult=4.0))
    assert t.mc_hop(0) == t.mem.mc_hop_latency
    assert t.mc_hop(1) == 4 * t.mem.mc_hop_latency
    assert t.pm_write_service(1) == 4 * t.pm_write_service(0)


def test_default_has_no_remote_channels():
    t = TimingModel(SystemConfig.small())
    assert t.mc_hop(0) == t.mc_hop(1) == t.mem.mc_hop_latency
    assert t.pm_write_service(0) == t.pm_write_service(1)


def test_numa_composes_with_pm_multiplier():
    cfg = numa_config(remote=(0,), mult=2.0).with_pm_multiplier(4)
    t = TimingModel(cfg)
    base = MemoryParams().pm_write_service
    assert t.pm_write_service(0) == base * 4 * 2
    assert t.pm_write_service(1) == base * 4


def test_remote_persist_takes_longer_end_to_end():
    from repro.engine import Scheduler
    from repro.mem.controller import MemorySystem
    from repro.mem.wpq import DPO, PersistOp

    cfg = numa_config(remote=(1,), mult=4.0)
    s = Scheduler()
    mem = MemorySystem(cfg, s)
    pm = cfg.address_space.pm_base
    # find one line per channel
    local_line = next(pm + i * 64 for i in range(8) if mem.channel_for_line(pm + i * 64).index == 0)
    remote_line = next(pm + i * 64 for i in range(8) if mem.channel_for_line(pm + i * 64).index == 1)
    times = {}
    s.at(0, lambda: mem.issue_persist(
        PersistOp(DPO, local_line, local_line, ((local_line, (1,)),),
                  on_complete=lambda o: times.__setitem__("local", s.now))))
    s.at(0, lambda: mem.issue_persist(
        PersistOp(DPO, remote_line, remote_line, ((remote_line, (1,)),),
                  on_complete=lambda o: times.__setitem__("remote", s.now))))
    s.run()
    assert times["remote"] == 4 * times["local"]
