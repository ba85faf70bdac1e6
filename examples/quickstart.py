"""Quickstart: atomic durable regions with asynchronous commit.

Builds a small machine running the ASAP scheme, executes a few atomic
regions from two threads, and shows the headline behaviour: ``End``
retires immediately (asynchronous commit) while regions become durable in
dependence order in the background; ``Fence`` provides synchronous
persistence on demand (Sec. 5.2).

Run:  python examples/quickstart.py
"""

from repro import Machine, SystemConfig, make_scheme
from repro.common.observe import SimObserver
from repro.sim.ops import Begin, End, Fence, Lock, Read, Unlock, Write


class CommitLog(SimObserver):
    """Records (cycle, region id) each time a region becomes durable."""

    def __init__(self, machine):
        self.machine = machine
        self.entries = []

    def region_committed(self, source, rid):
        self.entries.append((self.machine.scheduler.now, rid))


def main():
    # inspect(): keep the PM image and the commit oracle, checked below
    machine = Machine(SystemConfig.small(), make_scheme("asap")).inspect()

    # asap_malloc: allocate persistent data (page-table bit set -> PBit)
    account_a = machine.heap.alloc(64)
    account_b = machine.heap.alloc(64)
    machine.bootstrap_write(account_a, [1000])  # durable initial balances
    machine.bootstrap_write(account_b, [1000])
    lock = machine.new_lock("accounts")

    commit_log = machine.observe(CommitLog(machine)).entries

    def transfer_worker(env, amount):
        """Move `amount` from A to B, five times, atomically each time."""
        for _ in range(5):
            yield Lock(lock)
            yield Begin()  # asap_begin
            (a,) = yield Read(account_a, 1)
            (b,) = yield Read(account_b, 1)
            yield Write(account_a, [a - amount])
            yield Write(account_b, [b + amount])
            yield End()  # asap_end: retires immediately, commits async
            yield Unlock(lock)
        committed_before_fence = len(commit_log)
        yield Fence()  # asap_fence: block until my last region is durable
        print(
            f"  thread {env.thread_id}: {committed_before_fence} commits "
            f"seen at fence entry, {len(commit_log)} after it returned"
        )

    machine.spawn(lambda env: transfer_worker(env, 10))
    machine.spawn(lambda env: transfer_worker(env, 25))

    result = machine.run()

    print(f"simulated {result.cycles} cycles, {result.regions_completed} regions")
    print(f"cycles/region: {result.cycles_per_region:.1f}")
    print(f"PM write traffic: {result.pm_writes} lines {result.pm_writes_by_kind}")
    print(f"commits (in dependence order): {[rid for _, rid in commit_log]}")

    # money is conserved, volatile and durable views agree
    total = machine.volatile.read_word(account_a) + machine.volatile.read_word(account_b)
    assert total == 2000, total
    assert machine.oracle.mismatches(machine.pm_image) == []
    print("balances conserved; durable state matches committed state")


if __name__ == "__main__":
    main()
