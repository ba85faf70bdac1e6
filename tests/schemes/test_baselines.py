"""Scheme-specific behaviour of the SW / HWUndo / HWRedo baselines."""

from repro.common.params import SystemConfig
from repro.persist import make_scheme
from repro.sim.machine import Machine
from repro.sim.ops import Begin, End, Read, Write


def run(scheme, body, **small_kwargs):
    m = Machine(SystemConfig.small(**small_kwargs), make_scheme(scheme)).inspect()
    a = m.heap.alloc(512)
    m.spawn(lambda env: body(m, a))
    res = m.run()
    return m, res, a


def simple_regions(regions=10, lines=2):
    def body(m, a):
        for i in range(regions):
            yield Begin()
            for j in range(lines):
                yield Write(a + 64 * j, [i + j])
            yield End()

    return body


def test_sw_logs_once_per_line_per_region():
    m, res, a = run("sw", simple_regions(regions=5, lines=3))
    # one log write per line per region, fully drained (SW never drops)
    assert res.pm_writes_by_kind["lpo"] == 15


def test_sw_writes_commit_record_per_region():
    m, res, a = run("sw", simple_regions(regions=5))
    assert res.pm_writes_by_kind["loghdr"] == 5


def test_sw_dpo_only_has_no_log_traffic():
    m, res, a = run("sw_dpo_only", simple_regions(regions=5))
    assert res.pm_writes_by_kind["lpo"] == 0
    assert res.pm_writes_by_kind["dpo"] == 10


def test_sw_end_is_synchronous():
    """SW's End waits for the data flush fence: cycles/region must far
    exceed NP's."""
    _, sw, _ = run("sw", simple_regions(regions=20))
    _, np_res, _ = run("np", simple_regions(regions=20))
    assert sw.cycles_per_region > 2 * np_res.cycles_per_region


def test_hwundo_commit_is_synchronous_and_durable():
    m, res, a = run("hwundo", simple_regions(regions=8))
    # synchronous commit: by the time a region's End retires it is durable,
    # so at quiescence everything is committed and in PM
    assert len(m.oracle.committed_rids) == 8
    assert m.pm_image.read_word(a) == 7


def test_hwundo_overlaps_lpos_within_region():
    """HWUndo's writes do not stall (LPOs hardware-initiated); only End
    stalls. A many-line region should cost much less than the sum of
    synchronous per-write log waits (the SW behaviour)."""
    _, undo, _ = run("hwundo", simple_regions(regions=10, lines=6))
    _, sw, _ = run("sw", simple_regions(regions=10, lines=6))
    assert undo.cycles < sw.cycles


def test_hwundo_rewrites_persist_final_values():
    def body(m, a):
        yield Begin()
        yield Write(a, [1])
        yield Write(a, [2])  # rewrite after DPO may be in flight
        yield Write(a + 64, [3])
        yield Write(a, [4])
        yield End()

    m, res, a = run("hwundo", body)
    assert m.pm_image.read_word(a) == 4


def test_hwredo_relogs_rewritten_lines():
    def body(m, a):
        yield Begin()
        yield Write(a, [1])
        yield Write(a, [2])  # rewritten: needs a second (final-value) LPO
        yield End()

    m, res, a = run("hwredo", body)
    assert res.pm_writes_by_kind["lpo"] == 2


def test_hwredo_postcommit_dpos_offloaded():
    """HWRedo's End waits only for LPO drains; its DPOs land later."""
    m, res, a = run("hwredo", simple_regions(regions=5))
    assert len(m.oracle.committed_rids) == 5
    assert m.pm_image.read_word(a) == 4  # final value installed in place


def test_hwredo_dpo_filter_on_hot_lines():
    def body(m, a):
        for i in range(30):
            yield Begin()
            yield Write(a, [i])  # same line every region
            yield End()

    m, res, a = run("hwredo", body)
    assert res.pm_writes_by_kind["dpo"] < 30


def test_hwredo_read_redirect_penalty(monkeypatch):
    """Reads of already-logged lines pay the log-redirect indirection:
    the same trace runs measurably slower than with the penalty zeroed."""
    from repro.persist import hwredo

    def with_reread(m, a):
        for i in range(20):
            yield Begin()
            yield Write(a, [i])
            # many redirected reads: enough that the indirection cost is
            # not hidden under the region's log-drain wait
            for _ in range(8):
                yield Read(a, 1)
            yield End()

    monkeypatch.setattr(hwredo, "READ_REDIRECT_PENALTY", 0)
    _, plain, _ = run("hwredo", with_reread)
    monkeypatch.setattr(hwredo, "READ_REDIRECT_PENALTY", 12)
    _, redirected, _ = run("hwredo", with_reread)
    assert redirected.cycles > plain.cycles


def test_pm_latency_sensitivity_ordering():
    """The Fig. 10 metric: throughput normalized to NP at the same PM
    latency. ASAP must stay closest to NP as PM slows down."""

    def normalized(scheme, mult):
        _, res, _ = run(scheme, simple_regions(regions=15), pm_latency_multiplier=mult)
        _, np_res, _ = run("np", simple_regions(regions=15), pm_latency_multiplier=mult)
        return res.throughput / np_res.throughput

    for mult in (4, 8):
        asap = normalized("asap", mult)
        undo = normalized("hwundo", mult)
        redo = normalized("hwredo", mult)
        assert asap > undo, (mult, asap, undo)
        assert asap > redo, (mult, asap, redo)
