"""Property test: the commit oracle against an eagerly folding model.

The oracle only logs stores and commits, and folds them into its
``committed`` image and ``tracked_words`` set when those are read. The
model here folds each region into a ``{word addr: value}`` dict at the
instant the region commits and tracks every word at the instant it is
written. Random interleavings of stores, commits and reads (the two
views, ``mismatches`` against a random image and ``uncommitted_rids``),
after pre-run direct writes of the kind ``Machine.bootstrap_write`` and
``Machine.adopt_image`` make, must read the same from both at every
read. Stores follow the scheme contract: a region commits at most once
and stores nothing after it commits.
"""

from hypothesis import given, settings, strategies as st

from repro.core.rid import pack_rid
from repro.mem.image import MemoryImage
from repro.sim.oracle import CommitOracle

BASE = 0x1000_0000_0000
#: two lines, so runs cross a line boundary and regions overlap often
WORDS = 16
REGIONS = 4

#: few distinct values, so images agree on some words and not on others
_values = st.lists(st.integers(0, 3), min_size=1, max_size=10)
_word = st.integers(0, WORDS - 1)
_region = st.integers(0, REGIONS - 1)

_setup = st.one_of(
    st.tuples(st.just("bootstrap"), _word, _values),
    st.tuples(st.just("adopt"), st.lists(st.tuples(_word, _values), max_size=3)),
)
_write = st.tuples(st.just("write"), _region, _word, _values)
_commit = st.tuples(st.just("commit"), _region)
_read = st.one_of(
    st.tuples(st.just("committed")),
    st.tuples(st.just("tracked")),
    st.tuples(st.just("uncommitted")),
    st.tuples(
        st.just("mismatches"),
        st.lists(st.tuples(_word, st.integers(0, 3)), max_size=12),
        st.integers(1, 6),
    ),
)
#: stores and commits are each twice as likely as a read (``one_of``
#: would flatten ``_read`` and weigh its four kinds alone), so several
#: commits often wait for one fold
_ops = st.sampled_from([_write, _write, _commit, _commit, _read]).flatmap(
    lambda kind: kind
)
#: after the last op, every view is read once more
_FINAL_READS = [("committed",), ("tracked",), ("uncommitted",), ("mismatches", [], 99)]


def _rid(region):
    return pack_rid(region % 2, region // 2 + 1)


def _addr(word):
    return BASE + 8 * word


class EagerModel:
    """Folds a region's stores the moment it commits."""

    def __init__(self):
        self.words = {}
        self.writes = {}
        self.committed = set()
        self.tracked = set()

    def store(self, addr, values):
        for i, value in enumerate(values):
            self.words[addr + 8 * i] = value

    def record(self, rid, addr, values):
        self.writes.setdefault(rid, []).append((addr, values))
        self.tracked.update(addr + 8 * i for i in range(len(values)))

    def commit(self, rid):
        self.committed.add(rid)
        for addr, values in self.writes.get(rid, ()):
            self.store(addr, values)

    def mismatches(self, image, limit):
        diffs = [
            (w, self.words.get(w, 0), image.read_word(w))
            for w in sorted(self.tracked)
            if self.words.get(w, 0) != image.read_word(w)
        ]
        return diffs[:limit]


@settings(max_examples=200, deadline=None)
@given(st.lists(_setup, max_size=4), st.lists(_ops, min_size=8, max_size=40))
def test_oracle_matches_eager_model(setup, ops):
    oracle, model = CommitOracle(), EagerModel()
    image = oracle.committed  # taken once, as the machine does
    for op in setup:
        if op[0] == "bootstrap":
            image.write_range(_addr(op[1]), op[2])
            model.store(_addr(op[1]), op[2])
        else:
            runs = tuple((_addr(w), tuple(vs)) for w, vs in op[1])
            image.apply(runs)
            for addr, values in runs:
                model.store(addr, values)
    for op in ops + _FINAL_READS:
        kind = op[0]
        if kind == "write":
            _, region, word, values = op
            rid = _rid(region)
            if rid not in model.committed:
                oracle.region_stored(None, rid, _addr(word), values)
                model.record(rid, _addr(word), values)
        elif kind == "commit":
            rid = _rid(op[1])
            if rid not in model.committed:
                oracle.region_committed(None, rid)
                model.commit(rid)
        elif kind == "committed":
            span = [_addr(w) for w in range(WORDS + 8)]
            assert [oracle.committed.read_word(a) for a in span] == [
                model.words.get(a, 0) for a in span
            ]
        elif kind == "tracked":
            assert oracle.tracked_words == model.tracked
        elif kind == "uncommitted":
            assert oracle.uncommitted_rids() == [
                r for r in model.writes if r not in model.committed
            ]
        else:
            _, words, limit = op
            other = MemoryImage()
            for word, value in words:
                other.write_word(_addr(word), value)
            assert oracle.mismatches(other, limit) == model.mismatches(other, limit)
    assert oracle.committed_rids == model.committed
    assert oracle.committed is image
