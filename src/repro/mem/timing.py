"""Latency bookkeeping derived from :class:`~repro.common.params.MemoryParams`.

Centralising the arithmetic keeps the Fig. 10 latency sweep a one-knob
change (``pm_latency_multiplier``) and gives tests a single place to assert
the derived numbers.
"""

from __future__ import annotations

from repro.common.params import MemoryParams, SystemConfig


class TimingModel:
    """Derived latencies for one machine instance.

    The config is frozen for the machine's lifetime, so every derived
    number is computed once here and the methods are table lookups - the
    persist path asks for ``mc_hop``/``pm_write_service`` on every single
    persist op, which made the repeated round()/multiplier arithmetic a
    measurable slice of the profile (docs/PERF.md). Every number is an
    int, whatever numeric type the config holds: ``Scheduler.after`` does
    not coerce its delays.
    """

    def __init__(self, config: SystemConfig):
        self.config = config
        self.mem: MemoryParams = config.memory
        self._l1 = int(config.l1.latency)
        self._l2 = self._l1 + int(config.l2.latency)
        self._llc = self._l2 + int(config.l3.latency)
        self._mem_read = (
            self._llc + int(self.mem.dram_read_latency),  # [False] DRAM
            self._llc + self.mem.effective_pm_read_latency,  # [True] PM
        )
        nch = self.mem.num_channels
        self._mult = tuple(
            self.mem.numa_remote_multiplier
            if ch in self.mem.numa_remote_channels
            else 1.0
            for ch in range(nch)
        )
        self._mc_hop = tuple(
            round(self.mem.mc_hop_latency * m) for m in self._mult
        )
        self._pm_write_service = tuple(
            max(1, round(self.mem.effective_pm_write_service * m))
            for m in self._mult
        )

    # -- read path ---------------------------------------------------------

    def l1_latency(self) -> int:
        return self._l1

    def l2_latency(self) -> int:
        return self._l2

    def llc_latency(self) -> int:
        return self._llc

    def memory_read_latency(self, is_pm: bool) -> int:
        """LLC-miss service latency from DRAM or PM.

        With the non-blocking hierarchy this is also the MSHR occupancy
        of one fetch: the allocate-to-fill window. The fetch is charged
        exactly once per primary miss; requesters that merge into it
        wait only for the remainder of the window (docs/MEMORY.md).
        """
        return self._mem_read[is_pm]

    # -- persist path ------------------------------------------------------

    def mc_hop(self, channel_index: int = 0) -> int:
        """One-way latency from the L1 to a memory controller."""
        return self._mc_hop[channel_index]

    def pm_write_service(self, channel_index: int = 0) -> int:
        """Cycles the channel is busy draining one line from the WPQ to PM."""
        return self._pm_write_service[channel_index]
