"""Unit tests for the functional memory images."""

import pytest
from hypothesis import given, strategies as st

from repro.common.address import words_of_line
from repro.common.errors import SimulationError
from repro.mem.image import MemoryImage, rebase_line, snapshot_line

BASE = 0x1000_0000_0000


def test_unwritten_words_read_zero():
    img = MemoryImage()
    assert img.read_word(BASE) == 0


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
    assert img.read_range(BASE, 24) == (1, 2, 3)


def test_read_line_snapshot_only_materialised():
    img = MemoryImage()
    img.write_word(BASE, 7)
    img.write_word(BASE + 56, 9)
    snap = img.read_line(BASE + 8)  # any addr in the line
    assert snap == {BASE: 7, BASE + 56: 9}


def test_snapshot_line_helper_matches_read_line():
    img = MemoryImage()
    img.write_word(BASE + 16, 5)
    assert snapshot_line(img, BASE + 63) == img.read_line(BASE)


def test_apply_payload():
    img = MemoryImage()
    img.apply({BASE: 1, BASE + 8: 2})
    assert img.read_word(BASE + 8) == 2


def test_apply_line_exact_clears_unmentioned_words():
    img = MemoryImage()
    img.write_range(BASE, [1, 2, 3, 4, 5, 6, 7, 8])
    img.apply_line_exact(BASE, {BASE: 42})
    assert img.read_word(BASE) == 42
    for off in range(8, 64, 8):
        assert img.read_word(BASE + off) == 0


def test_copy_is_independent():
    img = MemoryImage()
    img.write_word(BASE, 1)
    dup = img.copy()
    dup.write_word(BASE, 2)
    assert img.read_word(BASE) == 1
    assert dup.read_word(BASE) == 2


def test_equal_on():
    a, b = MemoryImage(), MemoryImage()
    a.write_word(BASE, 3)
    b.write_word(BASE, 3)
    assert a.equal_on(b, [BASE])
    b.write_word(BASE + 8, 9)
    assert not a.equal_on(b, [BASE, BASE + 8])


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
def test_line_words_matches_per_word_loop(writes, offset):
    img = _image(writes)
    addr = BASE + offset  # any byte of the line
    expect = {w: img.read_word(w) for w in words_of_line(addr)}
    got = img.line_words(addr)
    assert got == expect
    assert list(got) == list(expect)  # same word order as the loop


@given(_writes, st.integers(0, 31), st.integers(0, 16))
def test_read_words_matches_per_word_loop(writes, index, n):
    img = _image(writes)
    addr = BASE + 8 * index
    assert img.read_words(addr, n) == [img.read_word(addr + 8 * i) for i in range(n)]


@given(_writes, st.integers(0, 255), st.lists(_values, max_size=12), st.booleans())
def test_write_range_matches_per_word_loop(writes, offset, values, as_iterator):
    bulk, ref = _image(writes), _image(writes)
    addr = BASE + offset  # the base is aligned down to its word
    bulk.write_range(addr, iter(values) if as_iterator else values)
    base = addr & ~7
    for i, value in enumerate(values):
        ref.write_word(base + 8 * i, value)
    assert dict(bulk.items()) == dict(ref.items())


@given(_writes, st.dictionaries(_aligned, _values, max_size=12))
def test_apply_matches_per_word_loop(writes, payload):
    bulk, ref = _image(writes), _image(writes)
    bulk.apply(payload)
    for addr, value in payload.items():
        ref.write_word(addr, value)
    assert dict(bulk.items()) == dict(ref.items())


@given(_writes, st.integers(0, 3), st.integers(0, 2**20))
def test_rebase_line_matches_entry_addressed_loop(writes, line_index, entry_index):
    img = _image(writes)
    line = BASE + 64 * line_index
    entry = 0x2000_0000_0000 + 64 * entry_index
    expect = {entry + (w - line): img.read_word(w) for w in words_of_line(line)}
    assert rebase_line(img.line_words(line), entry) == expect


def test_misaligned_addresses_still_raise():
    img = MemoryImage()
    with pytest.raises(SimulationError):
        img.apply({BASE: 1, BASE + 4: 2})
    with pytest.raises(SimulationError):
        img.read_words(BASE + 3, 2)
    with pytest.raises(SimulationError):
        img.write_word(BASE + 12, 1)
