"""Property tests: the line-granular image against a plain word model.

Random sequences of word stores, multi-word stores, line snapshots, run
applies and ``copy()``s run on a :class:`MemoryImage` and, side by side,
on a ``{word addr: value}`` dict. After every step the image must read
exactly what the dict holds, and everything captured earlier (line
snapshots, copies) must still hold what it held when it was taken.

``strided_lines`` (the recovery scans' reader) must return exactly the
written lines of its window, with the words the dict holds, whichever
of its two strategies the image's size picks.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.common.errors import SimulationError
from repro.mem.image import MemoryImage

BASE = 0x1000_0000_0000
#: four lines, so stores, runs and reads cross line boundaries
WORDS = 32

_values = st.integers(0, 2**64 - 1)
_word = st.integers(0, WORDS - 1)
_multi = st.lists(_values, min_size=1, max_size=12)

_ops = st.one_of(
    st.tuples(st.just("store"), _word, _values),
    st.tuples(st.just("store_range"), _word, _multi),
    st.tuples(st.just("snapshot"), st.integers(0, WORDS * 8 - 1)),
    st.tuples(
        st.just("apply"), st.lists(st.tuples(_word, _multi), min_size=1, max_size=4)
    ),
    st.tuples(st.just("bad_apply"), st.lists(st.tuples(_word, _multi), max_size=3),
              st.integers(1, 7)),
    st.tuples(st.just("copy")),
)


def _read(model, addr):
    return model.get(addr, 0)


def _store(model, word, values):
    for i, value in enumerate(values):
        model[BASE + 8 * (word + i)] = value


def _check(img, model):
    # every word of the range and one line past it (unwritten words read 0)
    span = WORDS + 8 + 12
    assert img.read_words(BASE, span) == [_read(model, BASE + 8 * i) for i in range(span)]
    assert img.read_words(BASE + 24, span) == [
        _read(model, BASE + 24 + 8 * i) for i in range(span)
    ]


@settings(max_examples=200, deadline=None)
@given(st.lists(_ops, max_size=30))
def test_image_matches_word_model(ops):
    img, model = MemoryImage(), {}
    snapshots = []  # (line base, tuple, the words it held)
    copies = []  # (image copy, model copy)
    for op in ops:
        kind = op[0]
        if kind == "store":
            _, word, value = op
            img.write_word(BASE + 8 * word, value)
            _store(model, word, [value])
        elif kind == "store_range":
            _, word, values = op
            img.write_range(BASE + 8 * word, values)
            _store(model, word, values)
        elif kind == "snapshot":
            base = (BASE + op[1]) & ~63
            snap = img.line(BASE + op[1])
            snapshots.append((base, snap, [_read(model, base + 8 * i) for i in range(8)]))
        elif kind == "apply":
            runs = tuple((BASE + 8 * w, tuple(vs)) for w, vs in op[1])
            img.apply(runs)
            for w, vs in op[1]:
                _store(model, w, vs)
        elif kind == "bad_apply":
            _, good, misalign = op
            runs = [(BASE + 8 * w, tuple(vs)) for w, vs in good]
            runs.append((BASE + misalign, (1,)))
            with pytest.raises(SimulationError):
                img.apply(tuple(runs))
        else:
            copies.append((img.copy(), dict(model)))
        _check(img, model)
    for base, snap, words in snapshots:
        assert list(snap) == words
    for dup, frozen in copies:
        _check(dup, frozen)


#: lines the strided-read test may write: some before, between and past
#: the slots of every window it draws
LINES = 96
_line_values = st.lists(st.one_of(st.just(0), _values), min_size=8, max_size=8)
_line_writes = st.lists(
    st.one_of(
        st.tuples(st.just("line"), st.integers(0, LINES - 1), _line_values),
        st.tuples(st.just("word"), st.integers(0, LINES * 8 - 1), st.one_of(st.just(0), _values)),
    ),
    max_size=40,
)


@settings(max_examples=300, deadline=None)
@given(_line_writes, st.sampled_from((64, 128, 512)), st.integers(0, 24), st.data())
def test_strided_lines_match_word_model(writes, stride, start_line, data):
    img, model, written = MemoryImage(), {}, set()
    for kind, where, value in writes:
        if kind == "line":
            img.apply(((BASE + 64 * where, tuple(value)),))
            _store(model, 8 * where, value)
            written.add(BASE + 64 * where)
        else:
            img.write_word(BASE + 8 * where, value)
            _store(model, where, [value])
            written.add((BASE + 8 * where) & ~63)
    # a window wider than the image walks its lines; a narrower one
    # intersects its keys with the window: draw each side equally often
    if data.draw(st.booleans(), label="window wider than image"):
        n = data.draw(st.integers(len(img) + 1, len(img) + 20), label="n")
    else:
        n = data.draw(st.integers(0, len(img)), label="n")
    start = BASE + 64 * start_line
    window = [start + stride * i for i in range(n)]
    got = img.strided_lines(start, n, stride)
    # every written line of the window, stored zeros included, in order
    assert got == [
        (line, tuple(_read(model, line + 8 * w) for w in range(8)))
        for line in window
        if line in written
    ]
    for bad_start, bad_stride in (
        (start + 8, stride),
        (start + 32, stride),
        (start, stride + 8),
        (start, 0),
        (start, -stride),
    ):
        with pytest.raises(SimulationError):
            img.strided_lines(bad_start, n, bad_stride)
