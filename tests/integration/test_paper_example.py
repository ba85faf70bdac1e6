"""Replays the paper's worked example (Fig. 6): two concurrent atomic
regions on two cores with a data dependence through location A.

R1 (core 0): lock; A = A'; B = B'; unlock  - ends first
R2 (core 1): lock; A = A''; unlock        - depends on R1 via A

Checks performed along the way mirror the figure's panels: ownership
transfer, the dependence entry, the commit ordering, and the DPO-dropping
interaction between R1's DPO[A'] and R2's LPO[A'].
"""

from repro.common.params import SystemConfig
from repro.core.rid import pack_rid
from repro.persist import make_scheme
from repro.sim.machine import Machine
from repro.sim.ops import Begin, End, Lock, Read, Unlock, Write
from repro.sim.trace import COMMIT, Tracer


def build():
    # a single-entry WPQ keeps persist ops outstanding long enough for the
    # dependence to be captured, like the figure's timeline
    m = Machine(SystemConfig.small(wpq_entries=1), make_scheme("asap")).inspect()
    eng = m.scheme
    return m, eng


def test_fig6_walkthrough():
    m, eng = build()
    a = m.heap.alloc(64)
    b = m.heap.alloc(64)
    m.bootstrap_write(a, [100])  # A (old value)
    m.bootstrap_write(b, [200])  # B (old value)
    x = m.new_lock("x")
    r1 = pack_rid(0, 1)
    r2 = pack_rid(1, 1)
    observations = {}
    tracer = Tracer(m)

    def thread1(env):
        yield Lock(x)
        yield Begin()
        yield Write(a, [101])  # A = A' (first write: LPO on old A)
        # Fig. 6a: R1 owns A's line, which is locked while the LPO flies
        meta = m.hierarchy.tags.get(a)
        observations["owner_after_A"] = meta.owner_rid
        observations["locked_after_A"] = meta.lock_bit
        yield Write(b, [201])  # B = B'
        yield Unlock(x)
        yield End()

    def thread2(env):
        yield Lock(x)
        yield Begin()
        (va,) = yield Read(a, 1)
        observations["r2_sees"] = va
        yield Write(a, [102])  # A = A'' (takes ownership, Fig. 6d)
        observations["owner_after_A2"] = m.hierarchy.tags.get(a).owner_rid
        dep_entry = eng.dep_list_for(r2).entry(r2)
        observations["r2_deps"] = set(dep_entry.deps)
        yield Unlock(x)
        yield End()

    m.spawn(thread1, core_id=0)
    m.spawn(thread2, core_id=1)
    m.run()

    # Fig. 6a: first write locked the line and made R1 its owner
    assert observations["owner_after_A"] == r1
    assert observations["locked_after_A"] is True
    # Fig. 6d: R2 read R1's value, took ownership, recorded the dependence
    assert observations["r2_sees"] == 101
    assert observations["owner_after_A2"] == r2
    assert r1 in observations["r2_deps"]
    commit_order = [e.rid for e in tracer.of_kind(COMMIT)]
    # Fig. 6g/h: R1 commits first, then (its dependence cleared) R2
    assert commit_order.index(r1) < commit_order.index(r2)
    assert eng.stats.commits == 2
    # Fig. 6e: R2's LPO for A' found R1's DPO[A'] queued and dropped it
    assert eng.stats.dpo_drops >= 1
    # final durable state: both regions' effects, A = A''
    assert m.pm_image.read_word(a) == 102
    assert m.pm_image.read_word(b) == 201


def test_fig2a_scenario_is_prevented():
    """Fig. 2a: without enforcement, Y could persist while X's LPO is
    lost. With ASAP, region 2 (writing Y) cannot commit before region 1
    (writing X)."""
    m, eng = build()
    x_addr = m.heap.alloc(64)
    y_addr = m.heap.alloc(64)
    tracer = Tracer(m)

    def thread(env):
        yield Begin()
        yield Write(x_addr, [1])  # X = ...
        yield End()
        yield Begin()
        yield Write(y_addr, [2])  # Y = ... (control-dependent on X's region)
        yield End()

    m.spawn(thread)
    m.run()
    commit_order = [e.rid for e in tracer.of_kind(COMMIT)]
    assert commit_order == [pack_rid(0, 1), pack_rid(0, 2)]
