"""Unit tests for the per-thread circular undo log."""

import pytest

from repro.common.errors import LogOverflowError, SimulationError
from repro.core.log import CHAIN_BIT, LogRecord, UndoLog

BASE = 0x1000_0000_0000
DATA = 0x2000_0000_0000


def make_log(records=4, entries=7, grow=None):
    return UndoLog(0, BASE, records, entries, grow_fn=grow)


def test_record_stride_and_slot_addresses():
    log = make_log()
    assert log.record_stride == 8 * 64
    slot, addr, record, opened, sealed = log.append(1, DATA)
    assert opened and sealed is None
    assert slot == 0
    assert addr == record.header_addr + 64


def test_record_fills_then_seals():
    log = make_log(entries=2)
    _, _, r1, opened, _ = log.append(1, DATA)
    assert opened
    _, _, r1b, opened, sealed = log.append(1, DATA + 64)
    assert r1b is r1 and not opened and sealed is None
    assert r1.full
    _, _, r2, opened, sealed = log.append(1, DATA + 128)
    assert opened and sealed is r1
    assert r2 is not r1


def test_free_returns_slots_for_reuse():
    log = make_log(records=2, entries=1)
    log.append(1, DATA)
    log.append(1, DATA + 64)
    assert log.free_records == 0
    records = log.free(1)
    assert len(records) == 2
    assert log.free_records == 2
    # reuse works
    log.append(2, DATA)
    assert log.live_records == 1


def test_overflow_without_grow_raises():
    log = make_log(records=1, entries=1)
    log.append(1, DATA)
    with pytest.raises(LogOverflowError):
        log.append(1, DATA + 64)
    assert log.overflows == 1


def test_overflow_grows_via_handler():
    allocations = []

    def grow(nbytes):
        allocations.append(nbytes)
        return BASE + 0x10_0000

    log = make_log(records=1, entries=1, grow=grow)
    log.append(1, DATA)
    log.append(1, DATA + 64)  # triggers growth
    assert allocations
    assert log.capacity_records == 2
    assert len(log.segments) == 2


def test_header_payload_confirmed_only():
    log = make_log()
    slot0, _, record, _, _ = log.append(1, DATA)
    slot1, _, _, _, _ = log.append(1, DATA + 64)
    record.confirm(slot1)
    ((addr, words),) = record.header_payload()  # one run: the header line
    assert addr == record.header_addr
    assert words[0] == 1  # rid
    assert words[1 + slot0] == 0  # unconfirmed
    assert words[1 + slot1] == DATA + 64
    # every slot word is explicit (scrubs stale reused slots)
    assert len(words) == 1 + log.entries_per_record


def test_entry_payload_carries_line_and_naming_header_words():
    log = make_log()
    slot, entry_addr, record, _, _ = log.append(1, DATA, chained=True)
    old = tuple(range(10, 18))
    assert record.entry_payload(slot, old) == (
        (entry_addr, old),  # the logged line, shared as is
        (record.header_addr, (1,)),  # rid
        (record.header_word_addr(slot), (DATA | CHAIN_BIT,)),
    )


def test_records_of_and_open_record():
    log = make_log(entries=1)
    log.append(1, DATA)
    log.append(1, DATA + 64)
    assert len(log.records_of(1)) == 2
    assert log.open_record(1) is log.records_of(1)[-1]
    assert log.open_record(99) is None


def test_all_slot_addrs_cover_segments():
    # recovery scans each segment's headers at ``record_stride``
    # (the crash state's log directory); every record lands on one
    log = make_log(records=3)
    headers = [log.append(rid, DATA)[2].header_addr for rid in (1, 2, 3)]
    (base, num_records), = log.segments
    stride = log.record_stride
    assert sorted(headers) == list(range(base, base + num_records * stride, stride))


def test_entries_per_record_bounds():
    with pytest.raises(SimulationError):
        UndoLog(0, BASE, 4, entries_per_record=8)
    with pytest.raises(SimulationError):
        UndoLog(0, BASE, 4, entries_per_record=0)


def test_append_to_full_record_rejected_directly():
    record = LogRecord(1, BASE, 1)
    record.add_entry(DATA)
    with pytest.raises(SimulationError):
        record.add_entry(DATA + 64)
