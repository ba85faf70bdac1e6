"""Unit tests for the Write Pending Queue."""

import pytest

from repro.common.errors import SimulationError
from repro.engine import Scheduler
from repro.mem.image import MemoryImage
from repro.mem.wpq import DPO, LPO, DrainToImage, PersistOp, WritePendingQueue
from tests.faults import reopen_edge

PM = 0x1000_0000_0000


def make_wpq(capacity=4, service=10, watermark=0, lazy=1):
    s = Scheduler()
    img = MemoryImage("pm")
    q = WritePendingQueue(
        "q", s, capacity, service,
        drain_watermark=watermark, lazy_drain_multiplier=lazy,
    )
    q.observer = DrainToImage(img)
    return s, img, q


def op(line=PM, kind=DPO, payload=None, **kw):
    return PersistOp(kind=kind, target_line=line, data_line=line,
                     payload=payload or ((line, (1,)),), **kw)


def test_accept_fires_on_complete_immediately():
    s, img, q = make_wpq()
    done = []
    s.at(0, lambda: q.submit(op(on_complete=lambda o: done.append(s.now))))
    s.run()
    assert done == [0]


def test_drain_applies_payload_to_pm():
    s, img, q = make_wpq(service=10)
    s.at(0, lambda: q.submit(op(payload=((PM, (42,)),))))
    s.run()
    assert img.read_word(PM) == 42
    assert q.drained == 1


def test_drain_rate_is_serialized():
    s, img, q = make_wpq(service=10)
    times = []
    for i in range(3):
        s.at(0, lambda i=i: q.submit(op(line=PM + 64 * i, on_drain=lambda o: times.append(s.now))))
    s.run()
    assert times == [10, 20, 30]


def test_backpressure_blocks_accept_until_drain():
    s, img, q = make_wpq(capacity=2, service=10)
    accepted = []
    for i in range(3):
        s.at(0, lambda i=i: q.submit(op(line=PM + 64 * i, on_complete=lambda o, i=i: accepted.append((i, s.now)))))
    s.run()
    assert accepted[0] == (0, 0)
    assert accepted[1] == (1, 0)
    assert accepted[2][1] == 10  # waited for the first drain


def test_full_flag_and_peak_occupancy():
    s, img, q = make_wpq(capacity=2, service=10)
    s.at(0, lambda: q.submit(op(line=PM)))
    s.at(0, lambda: q.submit(op(line=PM + 64)))
    s.run(until=1)
    assert q.peak_occupancy == 2


def test_drop_where_removes_and_counts():
    s, img, q = make_wpq(capacity=8, service=1000)
    s.at(0, lambda: q.submit(op(line=PM, kind=LPO, rid=7)))
    s.at(0, lambda: q.submit(op(line=PM + 64, kind=DPO, rid=8)))
    s.run(until=5)
    dropped = q.drop_where(lambda o: o.rid == 7)
    assert dropped == 1
    assert q.dropped == 1
    assert len(q) == 1
    # dropped entries never reach PM
    s.run()
    assert img.read_word(PM) == 0
    assert img.read_word(PM + 64) == 1


def test_drop_fires_on_drain_callback():
    s, img, q = make_wpq(capacity=8, service=1000)
    seen = []
    s.at(0, lambda: q.submit(op(kind=DPO, rid=1, on_drain=lambda o: seen.append("drained"))))
    s.run(until=2)
    q.drop_where(lambda o: o.rid == 1)
    assert seen == ["drained"]


def test_flush_to_pm_applies_everything_in_order():
    s, img, q = make_wpq(capacity=8, service=100000)
    s.at(0, lambda: q.submit(op(payload=((PM, (1,)),))))
    s.at(0, lambda: q.submit(op(payload=((PM, (2,)),))))
    s.run(until=5)
    snapshot = img.copy()
    flushed = q.flush_to_pm(snapshot)
    assert flushed == 2
    assert snapshot.read_word(PM) == 2  # FIFO order: the later write wins
    # the queue is untouched: both entries still drain to the live PM image
    assert len(q) == 2
    assert img.read_word(PM) == 0
    s.run()
    assert q.drained == 2
    assert img.read_word(PM) == 2


def test_lazy_drain_below_watermark():
    s, img, q = make_wpq(capacity=8, service=10, watermark=4, lazy=10)
    drained = []
    s.at(0, lambda: q.submit(op()))
    # no flush waiter, occupancy 1 < watermark 4 -> lazy interval 100
    s.run()
    assert q.drained == 1
    assert s.now == 100


def test_flush_waiter_expedites_lazy_drain():
    s, img, q = make_wpq(capacity=8, service=10, watermark=4, lazy=10)
    times = []
    s.at(0, lambda: q.submit(op(on_drain=lambda o: times.append(s.now))))
    s.run()
    assert times == [10]  # full-rate because someone waits


def test_flush_early_in_lazy_interval_expedites():
    # head queued at t=0 drains lazily at t=100; a flush at t=2 expedites
    # the head to t=2+10, then the flush op itself drains at t=22
    s, img, q = make_wpq(capacity=8, service=10, watermark=4, lazy=10)
    times = []
    s.at(0, lambda: q.submit(op(line=PM)))
    s.at(2, lambda: q.submit(op(line=PM + 64, on_drain=lambda o: times.append(s.now))))
    s.run()
    assert times == [22]


def test_flush_late_in_lazy_interval_never_delays():
    # The head's lazy drain is due at t=100. A flush arriving at t=95 must
    # not push the head out to t=95+10: it keeps the sooner deadline
    # (min(remaining, write_service)), so the head drains at t=100 and the
    # flush op at t=110 - not t=105/t=115.
    s, img, q = make_wpq(capacity=8, service=10, watermark=4, lazy=10)
    times = []
    s.at(0, lambda: q.submit(op(line=PM)))
    s.at(95, lambda: q.submit(op(line=PM + 64, on_drain=lambda o: times.append(s.now))))
    s.run()
    assert times == [110]


def test_drop_where_decrements_flush_pending():
    s, img, q = make_wpq(capacity=8, service=10, watermark=4, lazy=10)
    s.at(0, lambda: q.submit(op(line=PM, rid=1, on_drain=lambda o: None)))
    s.at(0, lambda: q.submit(op(line=PM + 64, rid=2)))
    s.run(until=1)
    assert q._flush_pending == 1
    assert q.drop_where(lambda o: o.rid == 1) == 1
    assert q._flush_pending == 0
    # the survivor still drains; nothing hangs on the retired flush waiter
    s.run()
    assert q.drained == 1
    assert img.read_word(PM + 64) == 1


def test_callable_payload_materialised_at_drain():
    s, img, q = make_wpq(service=10)
    box = {"v": 1}
    s.at(0, lambda: q.submit(op(payload=lambda: ((PM, (box["v"],)),))))
    s.at(5, lambda: box.update(v=99))
    s.run()
    assert img.read_word(PM) == 99


def test_zero_capacity_rejected():
    s = Scheduler()
    with pytest.raises(SimulationError):
        WritePendingQueue("q", s, 0, 1)


# -- FIFO backpressure and pending-aware dropping (the ordering fix) --------


def test_backpressured_ops_admitted_in_arrival_order():
    # Five ops hit a 2-entry queue in one cycle; acceptances must follow
    # submission order exactly, never the wake-up race of the legacy path.
    s, img, q = make_wpq(capacity=2, service=10)
    accepted = []
    for i in range(5):
        s.at(0, lambda i=i: q.submit(
            op(line=PM + 64 * i, on_complete=lambda o, i=i: accepted.append(i))))
    s.run()
    assert accepted == [0, 1, 2, 3, 4]


def test_late_submission_cannot_overtake_pending():
    # An op submitted *after* the queue backed up must queue behind the
    # pending op, even though a slot is free by the time it arrives: the
    # same-line FIFO guarantee ASAP's commit ordering builds on.
    s, img, q = make_wpq(capacity=1, service=10)
    order = []
    s.at(0, lambda: q.submit(op(line=PM, payload=((PM, (1,)),))))
    s.at(0, lambda: q.submit(op(line=PM, payload=((PM, (2,)),),
                                on_complete=lambda o: order.append("old"))))
    s.at(5, lambda: q.submit(op(line=PM, payload=((PM, (3,)),),
                                on_complete=lambda o: order.append("new"))))
    s.run()
    assert order == ["old", "new"]
    assert img.read_word(PM) == 3  # the latest write lands last


def test_drop_where_covers_pending_ops():
    s, img, q = make_wpq(capacity=1, service=1000)
    completed = []
    s.at(0, lambda: q.submit(op(line=PM, rid=1)))
    s.at(0, lambda: q.submit(op(line=PM + 64, rid=2,
                                on_complete=lambda o: completed.append(2))))
    s.run(until=2)
    assert q.pending_count == 1
    assert not completed  # still backpressured, not in the ADR domain
    dropped = q.drop_where(lambda o: o.rid == 2)
    assert dropped == 1
    assert q.dropped_pending == 1
    assert q.pending_count == 0
    # the dropped pending op's obligation is discharged: on_complete fired
    assert completed == [2]
    s.run()
    assert img.read_word(PM + 64) == 0  # its bytes never reach PM


def test_drop_of_queued_entry_admits_pending():
    s, img, q = make_wpq(capacity=1, service=1000)
    accepted = []
    s.at(0, lambda: q.submit(op(line=PM, rid=1)))
    s.at(0, lambda: q.submit(op(line=PM + 64, rid=2,
                                on_complete=lambda o: accepted.append(s.now))))
    s.run(until=3)
    q.drop_where(lambda o: o.rid == 1)
    assert accepted == [3]  # admitted the moment the slot freed
    assert len(q) == 1


def test_pending_ops_not_flushed_on_crash():
    s, img, q = make_wpq(capacity=1, service=1000)
    s.at(0, lambda: q.submit(op(line=PM, payload=((PM, (1,)),))))
    s.at(0, lambda: q.submit(op(line=PM + 64, payload=((PM + 64, (2,)),))))
    s.run(until=2)
    snapshot = img.copy()
    assert q.flush_to_pm(snapshot) == 1  # only the accepted entry is in ADR
    assert snapshot.read_word(PM) == 1
    assert snapshot.read_word(PM + 64) == 0
    # the queue is untouched: the entry stays queued, the op backpressured
    assert len(q) == 1
    assert q.pending_count == 1


def test_legacy_backpressure_mode_still_available():
    # The pre-fix model lives on only as the reopen_edge("wpq-fifo") test
    # hook (the shrinker's known bug); it must park rather than queue,
    # and hide parked ops from dropping.
    with reopen_edge("wpq-fifo"):
        s, img, q = make_wpq(capacity=1, service=1000)
        s.at(0, lambda: q.submit(op(line=PM, rid=1)))
        s.at(0, lambda: q.submit(op(line=PM + 64, rid=2)))
        s.run(until=2)
        assert q.pending_count == 0  # parked as a closure, invisible
        assert q.drop_where(lambda o: o.rid == 2) == 0  # ...and undroppable
        s.run()
    assert img.read_word(PM + 64) == 1  # woken by the drain, then accepted
