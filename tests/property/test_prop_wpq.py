"""Property-based tests on the WPQ and engine-level accounting invariants."""

from hypothesis import example, given, settings, strategies as st

from repro.common.observe import SimObserver
from repro.common.params import SystemConfig
from repro.engine import Scheduler
from repro.mem.wpq import DPO, LOGHDR, LPO, WB, PersistOp, WritePendingQueue
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
    q = WritePendingQueue(
        "q", s, capacity, 10,
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


class _Ledger(SimObserver):
    """Records each drop and drain by the op's label (its payload value),
    so two queues fed the same script compare op for op."""

    def __init__(self):
        self.events = []

    def wpq_dropped(self, wpq, op):
        self.events.append(("dropped", op.payload[0][1][0]))

    def wpq_drained(self, wpq, op):
        self.events.append(("drained", op.payload[0][1][0]))


@st.composite
def drop_scripts(draw):
    """Submits of every kind, drains, ``drop_where`` calls and targeted
    drops against one WPQ."""
    return draw(
        st.lists(
            st.one_of(
                # few lines and rids, so victims share an index bucket
                st.tuples(
                    st.just("submit"),
                    st.integers(0, 2),  # line index
                    st.sampled_from([LPO, DPO, WB, LOGHDR]),
                    st.sampled_from([None, 1, 2]),  # rid
                    st.booleans(),  # attach a drain waiter?
                ),
                st.tuples(st.just("drop_where"), st.integers(0, 2)),
                st.tuples(st.just("drop_line"), st.integers(0, 2), st.integers(0, 40)),
                st.tuples(st.just("drop_rid"), st.integers(1, 2)),
                st.tuples(st.just("advance"), st.integers(1, 100)),
            ),
            max_size=60,
        )
    )


@settings(max_examples=120, deadline=None)
@given(
    script=drop_scripts(),
    capacity=st.integers(1, 8),
    watermark=st.integers(0, 8),
    lazy=st.integers(1, 16),
)
# the first targeted drops each find two victims in one index bucket
@example(
    script=[
        ("submit", 0, DPO, None, False),
        ("submit", 1, LPO, 1, False),
        ("submit", 0, WB, 1, False),
        ("submit", 2, LOGHDR, 1, True),
        ("drop_line", 0, 40),
        ("drop_rid", 1),
    ],
    capacity=8,
    watermark=8,
    lazy=16,
)
def test_targeted_drops_match_drop_where(script, capacity, watermark, lazy):
    """One queue takes the targeted drops, a twin the equivalent
    ``drop_where`` predicates. The victim indexes exist only from the
    first targeted drop on, and every targeted drop removes exactly the
    twin's victims, in the same FIFO order."""
    queues, ledgers, ops = [], [], []
    for _ in range(2):
        s = Scheduler()
        q = WritePendingQueue(
            "q", s, capacity, 10,
            drain_watermark=watermark, lazy_drain_multiplier=lazy,
        )
        q.observer = ledger = _Ledger()
        queues.append(q)
        ledgers.append(ledger)
        ops.append([])
    indexed, twin = queues
    targeted = False
    for step in script:
        if step[0] == "submit":
            _, idx, kind, rid, waited = step
            line = PM + 64 * idx
            label = len(ops[0])
            for q, made in zip(queues, ops):
                op = PersistOp(
                    kind, line, line, ((line, (label,)),), rid=rid,
                    on_drain=(lambda o: None) if waited else None,
                )
                made.append(op)
                q.submit(op)
        elif step[0] == "drop_where":
            line = PM + 64 * step[1]
            counts = [q.drop_where(lambda o: o.target_line == line) for q in queues]
            assert counts[0] == counts[1]
        elif step[0] == "drop_line":
            _, idx, pick = step
            line = PM + 64 * idx
            exclude = [made[pick] if pick < len(made) else None for made in ops]
            got = indexed.drop_data_ops_for_line(
                line, exclude[0].op_id if exclude[0] is not None else None
            )
            want = twin.drop_where(
                lambda o: o.kind in (DPO, WB)
                and o.target_line == line
                and o is not exclude[1]
            )
            assert got == want
            targeted = True
        elif step[0] == "drop_rid":
            rid = step[1]
            got = indexed.drop_log_ops_for_rid(rid)
            want = twin.drop_where(lambda o: o.rid == rid and o.kind in (LPO, LOGHDR))
            assert got == want
            targeted = True
        else:
            for q in queues:
                q._scheduler.run(until=q._scheduler.now + step[1])
        # the indexes appear with the first targeted drop, never before
        assert (indexed._data_by_line is not None) == targeted
        assert twin._data_by_line is None
        assert ledgers[0].events == ledgers[1].events
        assert [o.payload for o in indexed.queued_ops()] == [
            o.payload for o in twin.queued_ops()
        ]
        assert [o.payload for o in indexed.pending_ops()] == [
            o.payload for o in twin.pending_ops()
        ]
    for q in queues:
        q._scheduler.run()
    assert ledgers[0].events == ledgers[1].events
    assert indexed.drained_by_kind == twin.drained_by_kind


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
