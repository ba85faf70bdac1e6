"""Functional memory images at 8-byte-word granularity.

An image is a sparse map from word-aligned addresses to integers. Unwritten
words read as zero, which matches zero-initialised simulated memory.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Mapping

from repro.common.address import line_base, split_words, words_of_line
from repro.common.errors import SimulationError
from repro.common.units import CACHE_LINE_BYTES, WORD_BYTES

#: nonzero bits of a misaligned word address (``&`` beats ``%`` here)
_WORD_MASK = WORD_BYTES - 1


class MemoryImage:
    """A sparse, word-granular functional memory."""

    def __init__(self, name: str = "mem"):
        self.name = name
        self._words: Dict[int, int] = {}

    def __len__(self) -> int:
        return len(self._words)

    def read_word(self, addr: int) -> int:
        """Read the word at ``addr`` (must be 8-byte aligned)."""
        if addr & _WORD_MASK:
            raise SimulationError(f"unaligned word read at {addr:#x}")
        return self._words.get(addr, 0)

    def write_word(self, addr: int, value: int) -> None:
        """Write the word at ``addr`` (must be 8-byte aligned)."""
        if addr & _WORD_MASK:
            raise SimulationError(f"unaligned word write at {addr:#x}")
        self._words[addr] = value

    def read_range(self, addr: int, nbytes: int) -> tuple:
        """Read every word overlapping ``[addr, addr+nbytes)``."""
        return tuple(self.read_word(w) for w in split_words(addr, nbytes))

    def read_words(self, addr: int, n: int, stride: int = WORD_BYTES) -> List[int]:
        """Read ``n`` words starting at ``addr``, a positive ``stride``
        bytes apart (consecutive by default). ``addr`` and ``stride`` must
        be 8-byte aligned; checking both covers every word read."""
        if (addr | stride) & _WORD_MASK:
            raise SimulationError(f"unaligned word read at {addr:#x} (stride {stride})")
        get = self._words.get
        return [get(w, 0) for w in range(addr, addr + n * stride, stride)]

    def write_range(self, addr: int, values: Iterable[int]) -> None:
        """Write consecutive words starting at ``addr``'s containing word.

        The base is aligned down by construction, so no word needs a check.
        """
        base = addr & ~_WORD_MASK
        words = self._words
        for i, value in enumerate(values):
            words[base + i * WORD_BYTES] = value

    def line_words(self, addr: int) -> Dict[int, int]:
        """Snapshot every word of the cache line containing ``addr`` as
        {word addr: value}, zeros included - the payload of a persist op
        that rewrites the whole line."""
        base = addr & ~(CACHE_LINE_BYTES - 1)
        get = self._words.get
        return {
            w: get(w, 0) for w in range(base, base + CACHE_LINE_BYTES, WORD_BYTES)
        }

    def read_line(self, addr: int) -> Dict[int, int]:
        """Snapshot the cache line containing ``addr`` as {word addr: value}.

        Only materialised words are returned; absent words are zero.
        """
        base = addr & ~(CACHE_LINE_BYTES - 1)
        words = self._words
        return {
            w: words[w]
            for w in range(base, base + CACHE_LINE_BYTES, WORD_BYTES)
            if w in words
        }

    def apply(self, payload: Mapping[int, int]) -> None:
        """Apply a {word addr: value} payload (e.g. a drained persist op).

        Every word is checked before any is written."""
        for addr in payload:
            if addr & _WORD_MASK:
                raise SimulationError(f"unaligned word write at {addr:#x}")
        self._words.update(payload)

    def apply_line_exact(self, line_addr: int, payload: Mapping[int, int]) -> None:
        """Overwrite a full cache line with ``payload``.

        Words of the line absent from ``payload`` are reset to zero: a line
        snapshot captures the whole 64 bytes, so restoring it must also
        restore the zeros.
        """
        base = line_base(line_addr)
        for w in words_of_line(base):
            if w in payload:
                self._words[w] = payload[w]
            else:
                self._words.pop(w, None)

    def copy(self) -> "MemoryImage":
        """Deep copy (used by the crash machinery to freeze PM state)."""
        dup = MemoryImage(self.name)
        dup._words = dict(self._words)
        return dup

    def items(self):
        """Iterate over (word addr, value) pairs of materialised words."""
        return self._words.items()

    def equal_on(self, other: "MemoryImage", addrs: Iterable[int]) -> bool:
        """Compare two images on a set of word addresses."""
        return all(self.read_word(a) == other.read_word(a) for a in addrs)


def snapshot_line(image: MemoryImage, addr: int) -> Dict[int, int]:
    """Snapshot the full cache line containing ``addr`` from ``image``.

    The result maps every materialised word of the line to its value; it is
    the payload format carried by persist operations.
    """
    return image.read_line(line_base(addr))


def rebase_line(words: Mapping[int, int], to: int) -> Dict[int, int]:
    """Re-key a line snapshot onto the line at ``to`` (a log entry), keeping
    each word's offset within the line."""
    return {to + (w & (CACHE_LINE_BYTES - 1)): v for w, v in words.items()}
