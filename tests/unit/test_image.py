"""Unit tests for the functional memory images."""

import pytest
from hypothesis import given, strategies as st

from repro.common.errors import SimulationError
from repro.mem.image import ZERO_LINE, MemoryImage

BASE = 0x1000_0000_0000


def test_unwritten_words_read_zero():
    img = MemoryImage()
    assert img.read_word(BASE) == 0
    assert img.line(BASE) is ZERO_LINE


def test_write_read_roundtrip():
    img = MemoryImage()
    img.write_word(BASE, 1234)
    assert img.read_word(BASE) == 1234


def test_unaligned_access_rejected():
    img = MemoryImage()
    with pytest.raises(SimulationError):
        img.read_word(BASE + 3)
    with pytest.raises(SimulationError):
        img.write_word(BASE + 4, 1)  # 4 is not 8-aligned


def test_write_range_consecutive_words():
    img = MemoryImage()
    img.write_range(BASE, [1, 2, 3])
    assert img.read_words(BASE, 3) == [1, 2, 3]


def test_read_line_snapshot_only_materialised():
    # The snapshot is the stored tuple: unwritten words read as zero, and
    # later stores replace the line rather than mutate the snapshot.
    img = MemoryImage()
    img.write_word(BASE, 7)
    img.write_word(BASE + 56, 9)
    snap = img.line(BASE + 8)  # any addr in the line
    assert snap == (7, 0, 0, 0, 0, 0, 0, 9)
    img.write_word(BASE + 8, 5)
    assert snap == (7, 0, 0, 0, 0, 0, 0, 9)
    assert img.line(BASE) == (7, 5, 0, 0, 0, 0, 0, 9)


def test_snapshot_line_helper_matches_read_line():
    # Any byte address of the line yields the same (shared, not copied) tuple.
    img = MemoryImage()
    img.write_word(BASE + 16, 5)
    snap = img.line(BASE)
    assert img.line(BASE + 63) is snap
    assert img.line(BASE + 17) is snap


def test_aligned_full_line_store_installs_one_tuple():
    img = MemoryImage()
    words = (1, 2, 3, 4, 5, 6, 7, 8)
    img.write_range(BASE + 64, words)
    assert img.line(BASE + 64) is words


def test_apply_payload():
    img = MemoryImage()
    img.apply(((BASE, (1, 2)),))
    assert img.read_word(BASE + 8) == 2


def test_apply_full_line_run_replaces_every_word():
    img = MemoryImage()
    img.write_range(BASE, [1, 2, 3, 4, 5, 6, 7, 8])
    img.apply(((BASE, (42,) + ZERO_LINE[1:]),))
    assert img.read_word(BASE) == 42
    for off in range(8, 64, 8):
        assert img.read_word(BASE + off) == 0


def test_apply_line_at_another_address():
    """Recovery's restore: a log entry's line installed at its data line."""
    img = MemoryImage()
    entry, data = BASE + 0x1000, BASE
    img.write_range(entry, list(range(10, 18)))
    img.write_word(data + 8, 99)
    img.apply(((data, img.line(entry)),))
    assert img.read_words(data, 8) == list(range(10, 18))


def test_copy_is_independent():
    img = MemoryImage()
    img.write_word(BASE, 1)
    dup = img.copy()
    dup.write_word(BASE, 2)
    assert img.read_word(BASE) == 1
    assert dup.read_word(BASE) == 2


# -- bulk operations vs the per-word reference loop --------------------------

_values = st.integers(0, 2**64 - 1)
#: word-aligned addresses over four lines, so reads hit written words
_aligned = st.integers(0, 31).map(lambda i: BASE + 8 * i)
_writes = st.lists(st.tuples(_aligned, _values), max_size=24)


def _image(writes) -> MemoryImage:
    img = MemoryImage()
    for addr, value in writes:
        img.write_word(addr, value)
    return img


@given(_writes, st.integers(0, 255))
def test_line_matches_per_word_loop(writes, offset):
    img = _image(writes)
    addr = BASE + offset  # any byte of the line
    base = addr & ~63
    assert img.line(addr) == tuple(img.read_word(base + 8 * i) for i in range(8))


@given(_writes, st.integers(0, 31), st.integers(0, 16))
def test_read_words_matches_per_word_loop(writes, index, n):
    img = _image(writes)
    addr = BASE + 8 * index
    assert img.read_words(addr, n) == [img.read_word(addr + 8 * i) for i in range(n)]


@given(_writes, st.integers(0, 255), st.lists(_values, max_size=20))
def test_write_range_matches_per_word_loop(writes, offset, values):
    bulk, ref = _image(writes), _image(writes)
    addr = BASE + offset  # the base is aligned down to its word
    bulk.write_range(addr, values)
    base = addr & ~7
    for i, value in enumerate(values):
        ref.write_word(base + 8 * i, value)
    assert dict(bulk.items()) == dict(ref.items())


@given(_writes, st.integers(0, 255), st.lists(_values, max_size=20))
def test_share_lines_leaves_what_the_write_would(writes, offset, values):
    source, shared, written = _image(writes), _image(writes), _image(writes)
    addr = BASE + offset
    source.write_range(addr, values)
    source.share_lines(addr, len(values), shared)
    written.write_range(addr, values)
    assert dict(shared.lines()) == dict(written.lines())
    for i in range(len(values)):  # every touched line is the source's tuple
        word = (addr & ~7) + 8 * i
        assert shared.line(word) is source.line(word)


_runs = st.lists(
    st.tuples(_aligned, st.lists(_values, min_size=1, max_size=9).map(tuple)),
    max_size=6,
)


@given(_writes, _runs)
def test_apply_matches_per_word_loop(writes, runs):
    bulk, ref = _image(writes), _image(writes)
    bulk.apply(tuple(runs))
    for addr, values in runs:
        for i, value in enumerate(values):
            ref.write_word(addr + 8 * i, value)
    assert dict(bulk.items()) == dict(ref.items())


def test_misaligned_addresses_still_raise():
    img = MemoryImage()
    with pytest.raises(SimulationError):
        img.apply(((BASE, (1,)), (BASE + 4, (2,))))
    assert img.read_word(BASE) == 0  # checked before anything is written
    with pytest.raises(SimulationError):
        img.read_words(BASE + 3, 2)
    with pytest.raises(SimulationError):
        img.write_word(BASE + 12, 1)
