"""Unit tests for the Bloom filter and OwnerRID spill buffer (Sec. 5.3)."""

from repro.core.bloom import BloomFilter, OwnerSpillBuffer


def test_bloom_no_false_negatives():
    bf = BloomFilter(1024, 4)
    lines = [i * 64 for i in range(100)]
    for line in lines:
        bf.insert(line)
    assert all(bf.maybe_contains(line) for line in lines)


def test_bloom_clear():
    bf = BloomFilter(1024, 4)
    bf.insert(640)
    bf.clear()
    assert not bf.maybe_contains(640)
    assert bf.clears == 1


def test_bloom_mostly_rejects_absent_lines():
    bf = BloomFilter(8 * 1024, 4)
    for i in range(50):
        bf.insert(i * 64)
    false_hits = sum(bf.maybe_contains((1000 + i) * 64) for i in range(500))
    assert false_hits < 50  # well under 10%


def test_spill_lookup_roundtrip():
    buf = OwnerSpillBuffer(2, 1024, 4)
    buf.spill(640, 77)
    owner, latency = buf.lookup(640)
    assert owner == 77
    assert latency == OwnerSpillBuffer.LOOKUP_PENALTY
    assert buf.hits == 1


def test_lookup_miss_is_free_when_filter_rejects():
    buf = OwnerSpillBuffer(2, 8 * 1024, 4)
    owner, latency = buf.lookup(12800)
    assert owner is None
    assert latency == 0


def test_discard_removes_entry():
    buf = OwnerSpillBuffer(1, 1024, 4)
    buf.spill(640, 5)
    buf.discard(640)
    owner, _ = buf.lookup(640)
    assert owner is None
    assert buf.false_positives >= 1  # filter still says maybe


def test_clear_channel_garbage_collects():
    # one bit per channel: once a channel's filter is set again, every line
    # on it is a filter hit, so a saved owner clear_channel left behind
    # would be handed back
    buf = OwnerSpillBuffer(2, 1, 1)
    # channel = (line >> 6) % 2
    buf.spill(0 * 64, 1)   # channel 0
    buf.spill(1 * 64, 2)   # channel 1
    buf.clear_channel(0)
    assert buf.lookup(0) == (None, 0)  # the cleared filter rejects
    buf.spill(2 * 64, 3)   # channel 0 again: its one bit is set
    assert buf.lookup(0) == (None, OwnerSpillBuffer.LOOKUP_PENALTY)
    assert buf.false_positives == 1
    assert buf.lookup(64)[0] == 2
