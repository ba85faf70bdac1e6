"""Unit tests for the recovery procedure's internals."""

import pytest

from repro.common.errors import RecoveryError
from repro.common.units import CACHE_LINE_BYTES, WORD_BYTES
from repro.core.log import encode_slot_word
from repro.mem.image import MemoryImage
from repro.recovery.crash import CrashState
from repro.recovery.recover import _scan_logs, _undo_order, recover, recover_redo
from repro.recovery.recover import RecoveryReport

PM = 0x1000_0000_0000
LOG = 0x1000_1000_0000


def entry(rid, state="Done", deps=()):
    return {"rid": rid, "state": state, "deps": list(deps)}


# -- _undo_order ---------------------------------------------------------------


def test_undo_order_reverses_dependence_chain():
    # 3 depends on 2 depends on 1: undo newest-first
    order = _undo_order([entry(1), entry(2, deps=[1]), entry(3, deps=[2])])
    assert order == [3, 2, 1]


def test_undo_order_handles_forks():
    # both 2 and 3 depend on 1; they must precede 1 in the undo order
    order = _undo_order([entry(1), entry(2, deps=[1]), entry(3, deps=[1])])
    assert order.index(2) < order.index(1)
    assert order.index(3) < order.index(1)


def test_undo_order_ignores_committed_deps():
    # dep on 99 which is not uncommitted (already committed): ignored
    order = _undo_order([entry(5, deps=[99])])
    assert order == [5]


def test_undo_order_detects_cycles():
    with pytest.raises(RecoveryError, match="cycle"):
        _undo_order([entry(1, deps=[2]), entry(2, deps=[1])])


def test_undo_order_independent_regions_any_order():
    order = _undo_order([entry(7), entry(3), entry(5)])
    assert sorted(order) == [3, 5, 7]


# -- _scan_logs ----------------------------------------------------------------


def make_state(pm, log_dir, deps=(), markers=None):
    return CrashState(
        pm_image=pm,
        dependence_entries=list(deps),
        log_directory=log_dir,
        entries_per_record=7,
        marker_directory=markers or {},
        log_kind="redo" if markers else "undo",
    )


def write_record(pm, header, rid, entries):
    """Write a record header + entries directly into a PM image.

    Each entry is ``(data_line, values)`` or ``(data_line, values, chained)``.
    """
    pm.write_word(header, rid)
    for i, e in enumerate(entries):
        data_line, values = e[0], e[1]
        chained = e[2] if len(e) > 2 else False
        pm.write_word(
            header + (1 + i) * WORD_BYTES, encode_slot_word(data_line, chained)
        )
        entry_addr = header + (1 + i) * CACHE_LINE_BYTES
        for off, v in enumerate(values):
            pm.write_word(entry_addr + 8 * off, v)


def test_scan_logs_matches_only_uncommitted_rids():
    pm = MemoryImage()
    stride = 8 * 64
    write_record(pm, LOG, 11, [(PM, [1])])
    write_record(pm, LOG + stride, 22, [(PM + 64, [2])])
    state = make_state(pm, {0: [(LOG, 2, stride)]})
    report = RecoveryReport()
    found = _scan_logs(state, {11}, report)
    assert list(found) == [11]
    assert found[11][0][0] == PM
    assert report.records_scanned == 2
    assert report.records_matched == 1


def test_scan_logs_skips_holes():
    """A zero header word (unconfirmed LPO) is skipped, later slots kept."""
    pm = MemoryImage()
    pm.write_word(LOG, 11)
    pm.write_word(LOG + 8, 0)  # slot 0: unconfirmed
    pm.write_word(LOG + 16, PM + 128)  # slot 1: confirmed
    state = make_state(pm, {0: [(LOG, 1, 8 * 64)]})
    found = _scan_logs(state, {11}, RecoveryReport())
    assert found[11] == [(PM + 128, LOG + 2 * 64, False)]


def test_scan_logs_decodes_chain_bit():
    """The CHAIN_BIT rides in the slot word's low bits; the decoded line
    address stays 64-byte aligned."""
    pm = MemoryImage()
    write_record(pm, LOG, 11, [(PM, [1], True), (PM + 64, [2])])
    state = make_state(pm, {0: [(LOG, 1, 8 * 64)]})
    found = _scan_logs(state, {11}, RecoveryReport())
    assert found[11] == [(PM, LOG + 64, True), (PM + 64, LOG + 128, False)]


# -- recover (undo) ---------------------------------------------------------------


def test_recover_restores_full_line_exactly():
    pm = MemoryImage()
    # data line currently holds "new" garbage from an uncommitted region
    pm.write_range(PM, [9, 9, 9, 9, 9, 9, 9, 9])
    # log entry holds the old value: word0=5, rest zero
    write_record(pm, LOG, 11, [(PM, [5, 0, 0, 0, 0, 0, 0, 0])])
    state = make_state(pm, {0: [(LOG, 1, 8 * 64)]}, deps=[entry(11)])
    image, report = recover(state)
    assert image.read_word(PM) == 5
    for off in range(8, 64, 8):
        assert image.read_word(PM + off) == 0
    assert report.undone_rids == [11]
    assert report.restored_lines == 1
    # input image untouched
    assert pm.read_word(PM) == 9


def test_recover_chain_unwinds_to_oldest_value():
    pm = MemoryImage()
    pm.write_word(PM, 300)  # current (from region 13)
    write_record(pm, LOG, 12, [(PM, [100, 0, 0, 0, 0, 0, 0, 0])])  # old=100
    write_record(pm, LOG + 512, 13, [(PM, [200, 0, 0, 0, 0, 0, 0, 0])])  # old=200
    state = make_state(
        pm,
        {0: [(LOG, 2, 512)]},
        deps=[entry(12), entry(13, deps=[12])],
    )
    image, report = recover(state)
    # undo 13 first (restores 200), then 12 (restores 100)
    assert report.undone_rids == [13, 12]
    assert image.read_word(PM) == 100


def test_recover_no_uncommitted_is_identity():
    pm = MemoryImage()
    pm.write_word(PM, 42)
    state = make_state(pm, {})
    image, report = recover(state)
    assert image.read_word(PM) == 42
    assert report.undone_count == 0


# -- chained entries ------------------------------------------------------------


def test_defensive_trusts_ordered_images():
    """rid 13 (chained to uncommitted rid 12) holds the only durable entry
    for line PM. Under per-line LPO ordering "earliest durable writer is
    chained" happens legitimately whenever the predecessor's entry was
    superseded or freed, so recovery restores it."""
    pm = MemoryImage()
    pm.write_word(PM, 300)  # current (from region 13)
    write_record(pm, LOG, 12, [])
    write_record(pm, LOG + 512, 13, [(PM, [200, 0, 0, 0, 0, 0, 0, 0], True)])
    state = make_state(
        pm, {0: [(LOG, 2, 512)]}, deps=[entry(12), entry(13, deps=[12])]
    )
    image, report = recover(state)
    assert image.read_word(PM) == 200
    assert report.restored_lines == 1


def test_defensive_restores_when_chained_predecessor_committed():
    """Chained bit set but every dependency already committed: the logged
    old value is committed data, so the restore is sound."""
    pm = MemoryImage()
    pm.write_word(PM, 300)
    # rid 12 (13's predecessor) committed before the crash: it is not in
    # the dependence list and its log record was freed
    write_record(pm, LOG, 13, [(PM, [200, 0, 0, 0, 0, 0, 0, 0], True)])
    state = make_state(pm, {0: [(LOG, 1, 512)]}, deps=[entry(13, deps=[12])])
    image, report = recover(state)
    assert image.read_word(PM) == 200
    assert report.restored_lines == 1


# -- recover_redo ---------------------------------------------------------------------


MARK = 0x1000_2000_0000


def test_recover_redo_replays_marked_regions_in_order():
    pm = MemoryImage()
    # two committed regions wrote the same line; seq order 1 then 2
    write_record(pm, LOG, 11, [(PM, [111, 0, 0, 0, 0, 0, 0, 0])])
    write_record(pm, LOG + 512, 12, [(PM, [222, 0, 0, 0, 0, 0, 0, 0])])
    pm.write_word(MARK, 12)
    pm.write_word(MARK + 8, 2)
    pm.write_word(MARK + 64, 11)
    pm.write_word(MARK + 64 + 8, 1)
    state = make_state(
        pm,
        {0: [(LOG, 2, 512)]},
        markers={0: [(MARK, 2, 64)]},
    )
    image, report = recover(state)
    assert image.read_word(PM) == 222  # seq 2 replayed last
    assert report.restored_lines == 2


def test_recover_redo_ignores_unmarked_and_dep_listed():
    pm = MemoryImage()
    write_record(pm, LOG, 11, [(PM, [111, 0, 0, 0, 0, 0, 0, 0])])
    # marker exists but region is still in the dependence list: a marker
    # slot left over from an earlier reused rid must not resurrect it
    pm.write_word(MARK, 11)
    pm.write_word(MARK + 8, 7)
    state = make_state(
        pm,
        {0: [(LOG, 1, 512)]},
        deps=[entry(11, state="InProgress")],
        markers={0: [(MARK, 1, 64)]},
    )
    image, report = recover(state)
    assert image.read_word(PM) == 0  # never replayed
    assert report.restored_lines == 0


def test_recover_dispatches_on_log_kind():
    pm = MemoryImage()
    state = make_state(pm, {}, markers={0: [(MARK, 1, 64)]})
    assert state.log_kind == "redo"
    image, report = recover(state)  # must route to recover_redo
    assert report.restored_lines == 0


def test_recovery_cost_model():
    report = RecoveryReport(undone_rids=[1, 2], restored_lines=5, records_scanned=20)
    expected = 20 * RecoveryReport.HEADER_READ_COST + 5 * RecoveryReport.LINE_RESTORE_COST
    assert report.estimated_cycles == expected
    assert RecoveryReport().estimated_cycles == 0
