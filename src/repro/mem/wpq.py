"""The Write Pending Queue (WPQ) of one memory channel.

The WPQ is inside the persistence domain (ADR, Sec. 4.1): a persist
operation *completes* the moment the queue accepts it, and on a power
failure every queued entry is flushed to the persistent medium. The queue
drains to PM at the device's write service rate; a full queue exerts
backpressure on new persist operations, which is how slow PM technologies
slow down schemes with synchronous persist operations (Fig. 10).

Entry removal before drain ("dropping") implements two of ASAP's traffic
optimizations (Sec. 5.1): LPO dropping (the region committed, its log is no
longer needed) and DPO dropping (a later region's LPO carries the same
bytes).

Backpressure preserves arrival order: ops submitted while the queue is full
wait in an explicit FIFO submission queue and are admitted oldest-first as
entries drain. A memory controller never reorders same-address writes, and
ASAP's commit ordering relies on that - if a later region's DPO could be
accepted ahead of an earlier region's backpressured DPO for the same line,
the stale payload would drain last and silently overwrite the committed
value (the cross-thread RMW hazard the property suite falsified on small
WPQs). For the same reason ``drop_where`` covers the submission queue too:
a backpressured DPO holds exactly the bytes a newly accepted LPO just
logged, so it is as superseded as a queued one.
"""

from __future__ import annotations

import itertools
from collections import OrderedDict, deque
from typing import Callable, Deque, Dict, Optional, Tuple

from repro.common.errors import SimulationError
from repro.common.observe import SimObserver
from repro.engine import Scheduler
from repro.mem.image import MemoryImage

_op_ids = itertools.count()

#: persist-op kinds
LPO = "lpo"
DPO = "dpo"
WB = "wb"  # plain eviction writeback of a dirty persistent line
LOGHDR = "loghdr"  # a filled log-record header moving from the LH-WPQ


class PersistOp:
    """One pending 64-byte write to persistent memory.

    A plain ``__slots__`` class whose constructor draws ``op_id`` from the
    module-level counter itself: one is built per LPO, DPO, writeback and
    log header, hundreds of thousands per run, and a generated dataclass
    ``__init__`` costs a default-factory frame per op. Construction sites
    pass the arguments positionally, which is cheaper than by keyword.

    Attributes:
        kind: LPO / DPO / WB / LOGHDR.
        target_line: PM line address the write lands on (a log entry
            address for LPOs, the data address for DPOs/WBs).
        data_line: the subject data line (equals ``target_line`` for
            DPOs/WBs; for LPOs it is the line whose old value is logged).
            DPO dropping matches a new LPO's ``data_line`` against queued
            DPO ``target_line``s.
        payload: the ``(word addr, values)`` runs to apply on drain/flush
            (:meth:`MemoryImage.apply`), or a zero-argument callable
            producing them. A callable is materialised at drain/flush time
            - used for log-record headers, whose durable contents (the
            confirmed-entry set) evolve while the write sits in the queue.
        rid: owning region id (packed int), if any.
        on_complete: invoked once, when the WPQ accepts the op - the ADR
            durability point ASAP builds on (Sec. 4.1).
        on_drain: invoked once, when the write reaches the persistent
            medium (or is dropped as superseded). The pre-ADR durability
            point the SW/HWUndo/HWRedo baselines wait on: their designs
            treat the NVM write itself as the persist's completion.
        op_id: unique, in construction order; the WPQ keys its entries by it.
        submitted_at: cycle the op first reached a WPQ, None before.
        dropped: removed before reaching PM (superseded or no longer
            needed).
        backpressured: the op waited in the submission queue before
            acceptance - i.e. acceptance was NOT immediate.
    """

    __slots__ = (
        "kind", "target_line", "data_line", "payload", "rid", "on_complete",
        "on_drain", "op_id", "submitted_at", "dropped", "backpressured",
    )

    def __init__(
        self,
        kind: str,
        target_line: int,
        data_line: int,
        payload: object,
        rid: Optional[int] = None,
        on_complete: Optional[Callable[["PersistOp"], None]] = None,
        on_drain: Optional[Callable[["PersistOp"], None]] = None,
    ):
        self.kind = kind
        self.target_line = target_line
        self.data_line = data_line
        self.payload = payload
        self.rid = rid
        self.on_complete = on_complete
        self.on_drain = on_drain
        self.op_id = next(_op_ids)
        self.submitted_at = None
        self.dropped = False
        self.backpressured = False

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"PersistOp({self.kind}, op_id={self.op_id}, "
            f"target_line={self.target_line:#x}, rid={self.rid})"
        )

    def materialized_payload(self) -> tuple:
        """The runs this write carries, as of right now."""
        payload = self.payload
        return payload() if callable(payload) else payload


class DrainToImage(SimObserver):
    """Keeps a PM image: applies each op's payload as of its drain."""

    def __init__(self, image: MemoryImage):
        self._apply = image.apply

    def wpq_drained(self, wpq, op) -> None:
        payload = op.payload  # PersistOp.materialized_payload, inline
        self._apply(payload() if callable(payload) else payload)


class DrainArbiter:
    """A single write-bus token shared by every channel's WPQ.

    The legacy lockstep-drain model (``MemoryParams.overlapped_drains =
    False``): only the token holder may service a write, so channels
    drain one at a time instead of concurrently. Grants are strictly
    FIFO; releasing hands the token to the oldest waiting channel in the
    same cycle. The default overlapped model simply never builds one.
    """

    def __init__(self):
        self._held = False
        self._queue: Deque[Callable[[], None]] = deque()

    @property
    def held(self) -> bool:
        return self._held

    def acquire(self, grant: Callable[[], None]) -> None:
        """Call ``grant`` as soon as the token is free (now, if it is)."""
        if self._held:
            self._queue.append(grant)
        else:
            self._held = True
            grant()

    def release(self) -> None:
        """Free the token or hand it straight to the oldest waiter."""
        if self._queue:
            self._queue.popleft()()
        else:
            self._held = False


class WritePendingQueue:
    """Finite FIFO of :class:`PersistOp` with a self-paced drain loop."""

    OBSERVED = ("wpq_submitted", "wpq_accepted", "wpq_drained", "wpq_dropped")

    def __init__(
        self,
        name: str,
        scheduler: Scheduler,
        capacity: int,
        write_service: int,
        drain_watermark: int = 0,
        lazy_drain_multiplier: int = 1,
        drain_gate: Optional[DrainArbiter] = None,
    ):
        """
        Args:
            capacity: WPQ entries (128/channel in Table 2).
            write_service: cycles per drained entry (fixed for the
                machine's lifetime by its :class:`TimingModel`).
            drain_watermark: below this occupancy the controller defers
                writes behind reads - entries drain lazily (every
                ``write_service * lazy_drain_multiplier`` cycles) and thus
                linger long enough for LPO/DPO dropping to find them.
            drain_gate: shared :class:`DrainArbiter` serializing write
                service across channels (legacy lockstep model). The
                drain loop then splits each interval into the lazy slack
                followed by a bus-held ``write_service`` window, so an
                uncontended gated channel drains at exactly the ungated
                cadence while contended channels queue for the token.
        """
        if capacity <= 0:
            raise SimulationError("WPQ capacity must be positive")
        self.name = name
        self._scheduler = scheduler
        self.capacity = capacity
        # drain delays are ints, as Scheduler.after expects
        self._write_service = int(write_service)
        self._drain_watermark = max(0, min(drain_watermark, capacity - 1))
        self._lazy_interval = int(write_service * max(1, lazy_drain_multiplier))
        #: victim indexes, so the targeted drops
        #: (:meth:`drop_data_ops_for_line`, :meth:`drop_log_ops_for_rid`)
        #: find their victims without scanning the whole queue; None until
        #: the first targeted drop builds them, so a queue that never drops
        #: never pays for them. Accepted DPO/WB entries by target line, in
        #: acceptance (FIFO) order, mirroring ``_entries`` ordering exactly
        self._data_by_line: Optional[Dict[int, Dict[int, PersistOp]]] = None
        #: accepted LPO/LOGHDR entries by owning rid, acceptance order
        self._log_by_rid: Optional[Dict[int, Dict[int, PersistOp]]] = None
        #: queued entries someone is waiting to drain (a pending flush
        #: forces full-rate draining - fences push writes through)
        self._flush_pending = 0
        self._entries: "OrderedDict[int, PersistOp]" = OrderedDict()
        #: backpressured ops awaiting admission, in arrival order (the
        #: MC-side submission queue; not yet in the persistence domain)
        self._pending: Deque[PersistOp] = deque()
        self._draining = False
        #: ``(cycle, callback)`` of the scheduled drain-loop step, so an
        #: expedite can cancel it; None while no step is scheduled
        self._drain_event: Optional[Tuple[int, Callable[[], None]]] = None
        self._drain_gate = drain_gate
        #: gated-drain phase: None | "slack" | "waiting" | "holding"
        self._gate_stage: Optional[str] = None
        #: optional :class:`SimObserver` notified on accept/drain/drop
        self.observer: Optional[SimObserver] = None
        # statistics
        self.accepted = 0
        #: entries that reached PM, by kind (the channel's write traffic)
        self.drained_by_kind: Dict[str, int] = {LPO: 0, DPO: 0, WB: 0, LOGHDR: 0}
        self.dropped = 0
        self.dropped_pending = 0
        self.peak_occupancy = 0

    # -- occupancy ---------------------------------------------------------

    def __len__(self) -> int:
        return len(self._entries)

    @property
    def drained(self) -> int:
        return sum(self.drained_by_kind.values())

    @property
    def full(self) -> bool:
        return len(self._entries) >= self.capacity

    @property
    def pending_count(self) -> int:
        """Backpressured ops awaiting admission (outside the ADR domain)."""
        return len(self._pending)

    # -- submission --------------------------------------------------------

    def submit(self, op: PersistOp) -> None:
        """Submit ``op``; accepts now or after backpressure clears.

        ``op.on_complete`` fires at acceptance time (persist-op completion
        per the ADR persistence-domain rule). Admission is strictly in
        submission order: an op arriving while earlier ops are still
        backpressured queues behind them, never ahead.
        """
        if op.submitted_at is None:
            op.submitted_at = self._scheduler.now
            if self.observer is not None:
                self.observer.wpq_submitted(self, op)
        if self._pending or len(self._entries) >= self.capacity:
            op.backpressured = True
            self._pending.append(op)
        else:
            self._accept(op)

    def _admit_pending(self) -> None:
        """Move backpressured ops into freed entries, oldest first."""
        while self._pending and not self.full:
            self._accept(self._pending.popleft())

    def _build_indexes(self) -> None:
        """Index the queued entries for the targeted drops, oldest first."""
        self._data_by_line = {}
        self._log_by_rid = {}
        for op in self._entries.values():
            self._index_add(op)

    def _index_add(self, op: PersistOp) -> None:
        kind = op.kind
        if kind == DPO or kind == WB:
            self._data_by_line.setdefault(op.target_line, {})[op.op_id] = op
        elif op.rid is not None:  # LPO / LOGHDR
            self._log_by_rid.setdefault(op.rid, {})[op.op_id] = op

    def _index_remove(self, op: PersistOp) -> None:
        kind = op.kind
        if kind == DPO or kind == WB:
            index, key = self._data_by_line, op.target_line
        elif op.rid is not None:  # LPO / LOGHDR
            index, key = self._log_by_rid, op.rid
        else:
            return
        bucket = index[key]
        del bucket[op.op_id]
        if not bucket:
            del index[key]

    def _accept(self, op: PersistOp) -> None:
        self._entries[op.op_id] = op
        if self._data_by_line is not None:
            self._index_add(op)
        if op.on_drain is not None:
            self._flush_pending += 1
            # A flush arriving mid-lazy-interval expedites the drain loop.
            # The pending drain keeps its deadline if it is already sooner
            # than one full service interval from now: rescheduling a
            # nearly-elapsed lazy interval at write_service would *delay*
            # the drain, not expedite it.
            if self._draining and self._drain_event is not None:
                scheduler = self._scheduler
                time, fn = self._drain_event
                if self._drain_gate is None:
                    scheduler.cancel(time, fn)
                    delay = min(time - scheduler.now, self._write_service)
                    self._drain_event = (scheduler.after(delay, fn), fn)
                elif self._gate_stage == "slack":
                    # Gated: skip the rest of the lazy slack and contend
                    # for the bus now. "waiting"/"holding" are already as
                    # fast as the token allows.
                    scheduler.cancel(time, fn)
                    self._drain_event = None
                    self._gate_request()
        self.accepted += 1
        occupancy = len(self._entries)
        if occupancy > self.peak_occupancy:
            self.peak_occupancy = occupancy
        if self.observer is not None:
            self.observer.wpq_accepted(self, op)
        if op.on_complete is not None:
            cb, op.on_complete = op.on_complete, None
            cb(op)
        if not self._draining:
            self._ensure_draining()

    # -- drain loop --------------------------------------------------------

    def _ensure_draining(self) -> None:
        """Restart the idle drain loop while entries remain: full-rate
        service above the watermark or under a pending flush, lazy
        (read-prioritised) drain otherwise."""
        entries = self._entries
        if not entries:
            return
        if self._flush_pending > 0 or len(entries) >= self._drain_watermark:
            interval = self._write_service
        else:
            interval = self._lazy_interval
        if self._drain_gate is not None:
            return self._ensure_draining_gated(interval)
        self._draining = True
        fn = self._drain_one
        self._drain_event = (self._scheduler.after(interval, fn), fn)

    # -- gated drain (legacy serialized write bus) -------------------------

    def _ensure_draining_gated(self, interval: int) -> None:
        """Start one gated drain cycle: lazy slack first, then contend for
        the write-bus token, then hold it for one service window."""
        self._draining = True
        self._gate_stage = "slack"
        slack = interval - self._write_service
        fn = self._gate_request
        self._drain_event = (self._scheduler.after(slack, fn), fn)

    def _gate_request(self) -> None:
        self._drain_event = None
        self._gate_stage = "waiting"
        self._drain_gate.acquire(self._gate_granted)

    def _gate_granted(self) -> None:
        self._gate_stage = "holding"
        fn = self._gate_drain
        self._drain_event = (self._scheduler.after(self._write_service, fn), fn)

    def _gate_drain(self) -> None:
        self._gate_stage = None
        self._drain_one()
        self._drain_gate.release()

    def _drain_one(self) -> None:
        """Drain the oldest entry, then schedule the next step - only after
        the op's ``on_drain`` and the admission it made room for, which may
        change the occupancy or flush count (or restart the loop)."""
        self._draining = False
        self._drain_event = None
        entries = self._entries
        if not entries:
            return
        _, op = entries.popitem(last=False)
        if self._data_by_line is not None:
            self._index_remove(op)
        self.drained_by_kind[op.kind] += 1
        if self.observer is not None:
            self.observer.wpq_drained(self, op)
        if op.on_drain is not None:
            self._flush_pending -= 1
            cb, op.on_drain = op.on_drain, None
            cb(op)
        if self._pending:
            self._admit_pending()
        if not self._draining:
            self._ensure_draining()

    # -- dropping ----------------------------------------------------------

    def drop_where(self, predicate: Callable[[PersistOp], bool]) -> int:
        """Remove matching ops before they reach PM - queued *and*
        backpressured.

        A backpressured victim never entered the persistence domain, so its
        ``on_complete`` fires here: dropping means the op's bytes are
        superseded or covered elsewhere (a later LPO logged them, or the
        region committed), and whoever is waiting on acceptance must treat
        the obligation as discharged, exactly as if the op had been
        accepted and then dropped. Returns the total number dropped; freed
        entries admit backpressured submitters in arrival order.

        Ledger: ``self.dropped`` counts only *accepted* victims (so
        ``drained + dropped <= accepted`` always holds); backpressured
        victims count in ``self.dropped_pending`` alone, since they never
        entered the queue's books.
        """
        victims = [op for op in self._entries.values() if predicate(op)]
        return self._finish_drops(victims, predicate)

    def drop_data_ops_for_line(self, line: int, exclude_op_id: Optional[int] = None) -> int:
        """DPO dropping (Sec. 5.1): remove queued DPO/WB ops targeting
        ``line``, except ``exclude_op_id``. Semantically identical to the
        equivalent :meth:`drop_where` call, but the line index finds the
        victims in O(answer) instead of scanning every entry."""
        if self._data_by_line is None:
            self._build_indexes()
        bucket = self._data_by_line.get(line, {})
        victims = [op for op in bucket.values() if op.op_id != exclude_op_id]
        if not victims and not self._pending:
            return 0
        return self._finish_drops(
            victims,
            lambda q: q.kind in (DPO, WB)
            and q.target_line == line
            and q.op_id != exclude_op_id,
        )

    def drop_log_ops_for_rid(self, rid: int) -> int:
        """LPO dropping (Sec. 5.1): remove queued LPO/LOGHDR ops of a
        committed region. Indexed counterpart of the predicate scan."""
        if self._log_by_rid is None:
            self._build_indexes()
        bucket = self._log_by_rid.get(rid)
        victims = list(bucket.values()) if bucket else []
        if not victims and not self._pending:
            return 0
        return self._finish_drops(
            victims, lambda q: q.rid == rid and q.kind in (LPO, LOGHDR)
        )

    def _finish_drops(
        self, victims, predicate: Callable[[PersistOp], bool]
    ) -> int:
        """Shared tail of every drop flavour: process accepted victims (in
        FIFO order), then sweep the backpressured submission queue with the
        full predicate, then refill freed entries."""
        indexed = self._data_by_line is not None
        for op in victims:
            del self._entries[op.op_id]
            if indexed:
                self._index_remove(op)
            op.dropped = True
            self.dropped += 1
            if self.observer is not None:
                self.observer.wpq_dropped(self, op)
            if op.on_drain is not None:
                # A dropped write is satisfied, not lost: its data is
                # superseded or no longer needed; waiters must not hang.
                self._flush_pending -= 1
                cb, op.on_drain = op.on_drain, None
                cb(op)
        dropped_pending = 0
        if self._pending:
            survivors: Deque[PersistOp] = deque()
            for op in self._pending:
                if not predicate(op):
                    survivors.append(op)
                    continue
                op.dropped = True
                self.dropped_pending += 1
                dropped_pending += 1
                if self.observer is not None:
                    self.observer.wpq_dropped(self, op)
                if op.on_complete is not None:
                    cb, op.on_complete = op.on_complete, None
                    cb(op)
                if op.on_drain is not None:
                    cb, op.on_drain = op.on_drain, None
                    cb(op)
            self._pending = survivors
        if victims and self._pending:
            self._admit_pending()
        return len(victims) + dropped_pending

    def queued_ops(self):
        """Iterate queued ops in FIFO order (oldest first)."""
        return iter(self._entries.values())

    def pending_ops(self):
        """Iterate backpressured (not yet accepted) ops, oldest first."""
        return iter(self._pending)

    # -- crash -------------------------------------------------------------

    def flush_to_pm(self, image: MemoryImage) -> int:
        """Persistence-domain flush into ``image``: apply every queued
        entry in FIFO order.

        Models ADR draining the WPQ on power failure, onto a copy of PM
        (crash snapshots are non-destructive): the queue, its indexes and
        callbacks are left untouched, so the run can continue. Callable
        payloads (log-record headers) are materialised now. Returns the
        number of entries flushed. Backpressured ops are *not* flushed:
        they never entered the persistence domain, so their writes are
        lost with the caches - which is safe precisely because their
        ``on_complete`` has not fired and no one was told they persisted.
        """
        for op in self._entries.values():
            image.apply(op.materialized_payload())
        return len(self._entries)
