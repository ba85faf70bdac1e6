"""Memory controllers and channels.

The machine has ``num_controllers x channels_per_controller`` channels
(Table 2: 2 MCs x 2 channels). Each channel owns a WPQ draining to the PM
image and a DRAM write path. Cache lines interleave across channels by line
address. (Which channel's Dependence List hosts a region is the ASAP
schemes' decision: ``AsyncCommitScheme.dep_list_for``.)
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import Callable, Dict, List, Optional, Tuple

from repro.common.address import AddressSpace
from repro.common.params import SystemConfig
from repro.engine import Scheduler
from repro.mem.image import MemoryImage
from repro.mem.timing import TimingModel
from repro.mem.wpq import (
    DPO,
    LOGHDR,
    LPO,
    WB,
    DrainArbiter,
    PersistOp,
    WritePendingQueue,
)


@dataclass
class TrafficStats:
    """Persistent-memory write-traffic accounting for one channel."""

    #: the channel WPQ's own ``drained_by_kind`` dict (shared, not copied)
    pm_writes_by_kind: Dict[str, int]
    pm_reads: int = 0
    dram_writes: int = 0

    @property
    def pm_writes(self) -> int:
        """Total 64B writes that actually reached persistent memory."""
        return sum(self.pm_writes_by_kind.values())


class Channel:
    """One memory channel: a WPQ in front of PM plus a DRAM write path."""

    def __init__(
        self,
        index: int,
        scheduler: Scheduler,
        timing: TimingModel,
        wpq_entries: int,
        drain_gate: Optional[DrainArbiter] = None,
    ):
        self.index = index
        self.wpq = WritePendingQueue(
            name=f"wpq[{index}]",
            scheduler=scheduler,
            capacity=wpq_entries,
            write_service=timing.pm_write_service(index),
            drain_watermark=timing.mem.wpq_drain_watermark,
            lazy_drain_multiplier=timing.mem.wpq_lazy_drain_multiplier,
            drain_gate=drain_gate,
        )
        self.stats = TrafficStats(self.wpq.drained_by_kind)


class MemorySystem:
    """All channels plus the address-interleaving policy."""

    def __init__(self, config: SystemConfig, scheduler: Scheduler):
        self.config = config
        self.scheduler = scheduler
        self.timing = TimingModel(config)
        self.address_space: AddressSpace = config.address_space
        #: one shared write-bus token in the legacy serialized-drain model;
        #: None (the default) lets every channel drain concurrently
        self.drain_arbiter: Optional[DrainArbiter] = (
            None if config.memory.overlapped_drains else DrainArbiter()
        )
        self.channels: List[Channel] = [
            Channel(
                i,
                scheduler,
                self.timing,
                config.memory.wpq_entries,
                drain_gate=self.drain_arbiter,
            )
            for i in range(config.memory.num_channels)
        ]
        #: per channel (indexed as in :meth:`channel_for_line`): where a
        #: persist op lands and the MC hop to get there
        self._persist_routes: List[Tuple[Callable[[PersistOp], None], int]] = [
            (ch.wpq.submit, self.timing.mc_hop(ch.index)) for ch in self.channels
        ]

    # -- interleaving ------------------------------------------------------

    def channel_for_line(self, line: int) -> Channel:
        """Line-interleaved channel mapping."""
        return self.channels[(line >> 6) % len(self.channels)]

    # -- persist path ------------------------------------------------------

    def issue_persist(self, op: PersistOp) -> None:
        """Send a persist op from the L1 toward its channel's WPQ.

        The op completes (``on_complete``) when the WPQ accepts it, one MC
        hop after issue at the earliest, later under backpressure. Remote
        (NUMA) channels have a longer hop (Sec. 7.3).
        """
        routes = self._persist_routes
        submit, hop = routes[(op.target_line >> 6) % len(routes)]
        self.scheduler.after(hop, partial(submit, op))

    def issue_dram_write(self, line: int) -> None:
        """Account a dirty volatile line written back to DRAM."""
        self.channel_for_line(line).stats.dram_writes += 1

    def count_pm_read(self, line: int) -> None:
        self.channel_for_line(line).stats.pm_reads += 1

    # -- queries used by optimizations and recovery -------------------------

    def drop_log_ops_for_rid(self, rid: int) -> int:
        """LPO dropping across channels: drop ``rid``'s queued log ops
        (``WritePendingQueue.drop_log_ops_for_rid`` on every channel)."""
        return sum(ch.wpq.drop_log_ops_for_rid(rid) for ch in self.channels)

    # -- crash -------------------------------------------------------------

    def flush_persistence_domain(self, image: MemoryImage) -> int:
        """Flush every WPQ, channel by channel, into ``image`` (ADR on
        power failure); the queues are untouched. Returns the number of
        entries flushed."""
        return sum(ch.wpq.flush_to_pm(image) for ch in self.channels)

    # -- aggregate statistics -----------------------------------------------

    def total_pm_writes(self) -> int:
        return sum(ch.stats.pm_writes for ch in self.channels)

    def pm_writes_by_kind(self) -> Dict[str, int]:
        total: Dict[str, int] = {LPO: 0, DPO: 0, WB: 0, LOGHDR: 0}
        for ch in self.channels:
            for kind, n in ch.stats.pm_writes_by_kind.items():
                total[kind] += n
        return total
