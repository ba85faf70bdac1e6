"""Tests for the Sec. 5.1 traffic optimizations and their ablations."""

from dataclasses import replace

import pytest

from repro.common.params import SystemConfig
from repro.persist import make_scheme
from repro.persist.asap import AsapScheme
from repro.sim.machine import Machine
from repro.sim.ops import Begin, Compute, End, Read, Write


def run_with(ablation, regions=40, hot_lines=2, **small_kwargs):
    cfg = SystemConfig.small(**small_kwargs)
    cfg = cfg.with_asap(cfg.asap.ablation(ablation))
    m = Machine(cfg, make_scheme("asap")).inspect()
    a = m.heap.alloc(64 * hot_lines)

    def worker(env):
        for i in range(regions):
            yield Begin()
            for j in range(hot_lines):
                # several stores to the same line (coalescing fodder)
                yield Write(a + 64 * j, [i])
                yield Write(a + 64 * j + 8, [i + 1])
                yield Write(a + 64 * j + 16, [i + 2])
            yield End()

    m.spawn(worker)
    res = m.run()
    return m, res


def test_lpo_dropping_reduces_log_traffic():
    _, without = run_with("+C")
    _, with_lp = run_with("+C+LP")
    assert with_lp.pm_writes_by_kind["lpo"] < without.pm_writes_by_kind["lpo"]


def test_dpo_dropping_reduces_data_traffic_on_hot_lines():
    _, without = run_with("+C+LP")
    m, full = run_with("full")
    assert full.pm_writes_by_kind["dpo"] < without.pm_writes_by_kind["dpo"]
    assert m.scheme.stats.dpo_drops > 0


def test_coalescing_reduces_dpo_initiations():
    m_no, res_no = run_with("no_opt")
    m_c, res_c = run_with("+C")
    assert (
        m_c.scheme.stats.dpos_initiated
        < m_no.scheme.stats.dpos_initiated
    )


def test_ablation_traffic_is_monotone():
    traffic = {}
    for ab in ("no_opt", "+C", "+C+LP", "full"):
        traffic[ab] = run_with(ab)[1].pm_writes
    assert traffic["no_opt"] >= traffic["+C"] >= traffic["+C+LP"] >= traffic["full"]
    assert traffic["no_opt"] > traffic["full"]


def test_optimizations_do_not_change_results():
    """Traffic optimizations must be semantically invisible."""
    finals = set()
    for ab in ("no_opt", "full"):
        m, _ = run_with(ab, regions=20)
        a = min(m.oracle.tracked_words)
        finals.add(tuple(sorted(w for w in m.oracle.committed.items() if w[1])))
        assert len(m.oracle.committed_rids) == 20
    assert len(finals) == 1  # same committed image either way


def test_all_regions_commit_under_every_ablation():
    for ab in ("no_opt", "+C", "+C+LP", "full"):
        m, res = run_with(ab, regions=15)
        assert m.scheme.stats.commits == 15, ab


# -- _retry_dpo: a DPO whose line was rewritten while it was in flight ----------


def record_retry_dpo_branches(monkeypatch):
    """Record which branch each ``AsapScheme._retry_dpo`` call takes."""
    branches = []
    retry = AsapScheme._retry_dpo

    def spy(self, entry, slot, thread):
        meta = self.hierarchy.tags.get(slot.line)
        if entry.slot_for(slot.line) is not slot:
            branches.append("slot cleared")
        elif slot.dpo_inflight:
            branches.append("DPO in flight")
        elif not slot.pending:
            branches.append("not pending")
        elif self._dpo_ready(entry, slot):
            branches.append("issue")
        elif meta.lock_bit and meta.owner_rid != entry.rid:
            branches.append("poll: successor's LPO holds the LockBit")
        else:
            branches.append("poll")
        retry(self, entry, slot, thread)

    monkeypatch.setattr(AsapScheme, "_retry_dpo", spy)
    return branches


def rewrite_while_dpo_in_flight(ablation, successor_gap):
    """Region 1 writes line A, then four other lines (the coalescing
    distance: A's DPO starts), then A again while that DPO is in flight,
    so the DPO lands stale and ``_retry_dpo`` runs. Region 2 then writes
    A, taking the LockBit with its own LPO, ``successor_gap`` cycles after
    region 1 ends. Every line is warmed first, so each write is an L1 hit."""
    cfg = SystemConfig.small()
    cfg = cfg.with_asap(cfg.asap.ablation(ablation))
    m = Machine(cfg, make_scheme("asap")).inspect()
    base = m.heap.alloc(64 * 5)
    lines = [base + 64 * i for i in range(5)]

    def worker(env):
        for line in lines:
            yield Read(line)
        yield Begin()
        yield Write(lines[0], [1])
        for line in lines[1:]:
            yield Write(line, [1])
        yield Compute(16)
        yield Write(lines[0], [2])
        yield End()
        if successor_gap:
            yield Compute(successor_gap)
        yield Begin()
        yield Write(lines[0], [3])
        yield End()

    m.spawn(worker)
    m.run()
    return m


@pytest.mark.parametrize(
    "ablation,successor_gap,branch",
    [
        ("full", 0, "poll: successor's LPO holds the LockBit"),
        # the successor's LPO lands, the retried DPO is accepted and
        # clears the slot before the 50-cycle poll fires
        ("full", 0, "slot cleared"),
        # the LPO lands later: the poll finds the retried DPO in flight
        ("full", 4, "DPO in flight"),
        # No-Opt starts a DPO per write even while one is in flight: the
        # first lands stale after the second took the slot's pending data
        ("no_opt", 0, "not pending"),
    ],
)
def test_retry_dpo_branches_are_reached(
    monkeypatch, ablation, successor_gap, branch
):
    branches = record_retry_dpo_branches(monkeypatch)
    m = rewrite_while_dpo_in_flight(ablation, successor_gap)
    assert branch in branches
    # whichever way the retry went, both regions commit and every slot
    # drains: a return never strands the rewritten data
    assert m.scheme.stats.commits == 2
    assert m.scheme.stats.dpos_reinitiated >= 1
    assert not any(len(cl) for cl in m.scheme.cl_lists)
