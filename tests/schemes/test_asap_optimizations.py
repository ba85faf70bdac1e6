"""Tests for the Sec. 5.1 traffic optimizations and their ablations."""

from dataclasses import replace

import pytest

from repro.common.params import SystemConfig
from repro.persist import make_scheme
from repro.sim.machine import Machine
from repro.sim.ops import Begin, End, Read, Write


def run_with(ablation, regions=40, hot_lines=2, **small_kwargs):
    cfg = SystemConfig.small(**small_kwargs)
    cfg = cfg.with_asap(cfg.asap.ablation(ablation))
    m = Machine(cfg, make_scheme("asap"))
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
