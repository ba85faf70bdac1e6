"""Property-based tests on the WPQ and engine-level accounting invariants."""

from hypothesis import given, settings, strategies as st

from repro.common.params import SystemConfig
from repro.engine import Scheduler
from repro.mem.image import MemoryImage
from repro.mem.wpq import DPO, LPO, PersistOp, WritePendingQueue
from repro.persist import make_scheme
from repro.sim.machine import Machine
from repro.workloads import WorkloadParams, get_workload

PM = 0x1000_0000_0000


@st.composite
def wpq_scripts(draw):
    """A schedule of submits and drops against one WPQ."""
    return draw(
        st.lists(
            st.one_of(
                st.tuples(
                    st.just("submit"),
                    st.integers(0, 15),  # line index
                    st.sampled_from([LPO, DPO]),
                    st.booleans(),  # attach a drain waiter?
                ),
                st.tuples(st.just("drop"), st.integers(0, 15)),
                st.tuples(st.just("advance"), st.integers(1, 500)),
            ),
            max_size=60,
        )
    )


@settings(max_examples=60, deadline=None)
@given(
    script=wpq_scripts(),
    capacity=st.integers(1, 8),
    watermark=st.integers(0, 8),
    lazy=st.integers(1, 16),
)
def test_wpq_invariants_under_random_schedules(script, capacity, watermark, lazy):
    s = Scheduler()
    img = MemoryImage("pm")
    q = WritePendingQueue(
        "q", s, capacity, 10, img,
        drain_watermark=watermark, lazy_drain_multiplier=lazy,
    )
    drained = []
    submitted = 0
    for step in script:
        if step[0] == "submit":
            _, idx, kind, waited = step
            line = PM + 64 * idx
            op = PersistOp(
                kind, line, line, ((line, (idx,)),),
                on_drain=(lambda o: drained.append(o.op_id)) if waited else None,
            )
            q.submit(op)
            submitted += 1
        elif step[0] == "drop":
            q.drop_where(lambda o, i=step[1]: o.target_line == PM + 64 * i)
        else:
            s.run(until=s.now + step[1])
        # core invariants, checked continuously
        assert len(q) <= q.capacity
        assert q._flush_pending >= 0
        assert q.accepted <= submitted
        assert q.drained + q.dropped <= q.accepted
    s.run()
    # every submitted op eventually drains, is dropped (accepted or still
    # backpressured), or remains pending/queued
    assert (
        q.drained + q.dropped + q.dropped_pending + q.pending_count + len(q)
        == submitted
    )
    assert len(q) == 0 and q.pending_count == 0  # the run drains everything


@settings(max_examples=8, deadline=None)
@given(
    seed=st.integers(0, 100),
    wpq_entries=st.sampled_from([2, 8, 16]),
)
def test_engine_accounting_invariants(seed, wpq_entries):
    """Cross-checks between engine stats and machine-level counters after
    a full workload run."""
    params = WorkloadParams(num_threads=2, ops_per_thread=8, setup_items=8, seed=seed)
    machine = Machine(SystemConfig.small(wpq_entries=wpq_entries), make_scheme("asap"))
    machine.install(get_workload("HM", params))
    res = machine.run()
    stats = machine.scheme.stats
    assert stats.regions_begun == stats.regions_ended == stats.commits
    assert stats.commits == res.regions_completed
    assert stats.lpo_drops <= stats.lpos_initiated + stats.loghdr_writes
    assert stats.dpo_drops <= stats.dpos_initiated
    # everything initiated was accepted by some WPQ
    accepted = sum(ch.wpq.accepted for ch in machine.memory.channels)
    assert accepted >= stats.lpos_initiated + stats.dpos_initiated
    # drained + dropped accounts for every accepted entry once idle
    drained = sum(ch.wpq.drained for ch in machine.memory.channels)
    dropped = sum(ch.wpq.dropped for ch in machine.memory.channels)
    assert drained + dropped == accepted
    # no region left anywhere
    assert machine.scheme.uncommitted_count() == 0
    for cl in machine.scheme.cl_lists:
        assert len(cl) == 0
