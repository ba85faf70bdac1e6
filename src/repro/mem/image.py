"""Functional memory images at cache-line granularity.

An image maps line base addresses to immutable 8-tuples of words; an
unwritten line reads as the shared :data:`ZERO_LINE` (zero-initialised
memory). A line snapshot is the stored tuple itself, so a persist op that
carries a whole line (an LPO's old value, a DPO or writeback) shares it.

A persist payload is a tuple of ``(word addr, values)`` *runs*, each
writing ``values`` to consecutive words; a data line is one full-line run.
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Sequence, Tuple

from repro.common.errors import SimulationError
from repro.common.units import CACHE_LINE_BYTES, WORD_BYTES, WORDS_PER_LINE

#: nonzero bits of a misaligned word address (``&`` beats ``%`` here)
_WORD_MASK = WORD_BYTES - 1
_LINE_MASK = CACHE_LINE_BYTES - 1

#: the value of every line nothing has written
ZERO_LINE: Tuple[int, ...] = (0,) * WORDS_PER_LINE


class MemoryImage:
    """A sparse, line-granular functional memory."""

    __slots__ = ("name", "_lines")

    def __init__(self, name: str = "mem"):
        self.name = name
        self._lines: Dict[int, Tuple[int, ...]] = {}

    def __len__(self) -> int:
        """The number of materialised lines."""
        return len(self._lines)

    def read_word(self, addr: int) -> int:
        """Read the word at ``addr`` (must be 8-byte aligned)."""
        if addr & _WORD_MASK:
            raise SimulationError(f"unaligned word read at {addr:#x}")
        return self._lines.get(addr & ~_LINE_MASK, ZERO_LINE)[(addr & _LINE_MASK) >> 3]

    def write_word(self, addr: int, value: int) -> None:
        """Write the word at ``addr`` (must be 8-byte aligned)."""
        self.apply(((addr, (value,)),))

    def read_words(self, addr: int, n: int) -> List[int]:
        """Read ``n`` consecutive words starting at ``addr`` (must be
        8-byte aligned)."""
        if addr & _WORD_MASK:
            raise SimulationError(f"unaligned word read at {addr:#x}")
        lines = self._lines
        first = (addr & _LINE_MASK) >> 3
        if first + n <= WORDS_PER_LINE:
            return list(lines.get(addr & ~_LINE_MASK, ZERO_LINE)[first:first + n])
        return [
            lines.get(w & ~_LINE_MASK, ZERO_LINE)[(w & _LINE_MASK) >> 3]
            for w in range(addr, addr + n * WORD_BYTES, WORD_BYTES)
        ]

    def strided_lines(
        self, addr: int, n: int, stride: int
    ) -> List[Tuple[int, Tuple[int, ...]]]:
        """The materialised lines among the ``n`` lines ``stride`` bytes
        apart from ``addr``, as ``(line base, 8-tuple)`` pairs in address
        order; every other line of the window reads :data:`ZERO_LINE`.
        ``addr`` and a positive ``stride`` must be line-aligned.

        Costs the smaller of the window's ``n`` and the image's line
        count: an image with fewer lines is walked, otherwise its keys
        are intersected with the window in C. No unwritten line of the
        window takes a Python step. Recovery's scans need both sides:
        fuzz images are smaller than their log windows, crash-sweep
        images are often larger (docs/PERF.md).
        """
        if (addr | stride) & _LINE_MASK or stride <= 0:
            raise SimulationError(
                f"strided line read at {addr:#x} (stride {stride}): need a "
                "line-aligned start and a positive line-multiple stride"
            )
        lines = self._lines
        if n <= 0:
            return []
        end = addr + n * stride
        if len(lines) < n:
            hits = [a for a in lines if addr <= a < end and not (a - addr) % stride]
        else:
            hits = lines.keys() & range(addr, end, stride)
        return [(a, lines[a]) for a in sorted(hits)]

    def write_range(self, addr: int, values: Sequence[int]) -> None:
        """Write consecutive words starting at ``addr``'s containing word.

        The base is aligned down by construction, so no word needs a check.
        Each touched line is stored once: a partly written first or last
        line is rebuilt around its kept words, and every whole line is a
        slice of the values.
        """
        lines = self._lines
        line = addr & ~_LINE_MASK
        first = (addr & _LINE_MASK) >> 3
        n = len(values)
        end = first + n
        if end <= WORDS_PER_LINE:  # one line
            if n == WORDS_PER_LINE:
                lines[line] = tuple(values)
            elif n:
                old = lines.get(line, ZERO_LINE)
                lines[line] = old[:first] + tuple(values) + old[end:]
            return
        values = tuple(values)
        done = 0
        if first:  # the first line's last words
            done = WORDS_PER_LINE - first
            lines[line] = lines.get(line, ZERO_LINE)[:first] + values[:done]
            line += CACHE_LINE_BYTES
        whole = n - (n - done) % WORDS_PER_LINE
        for start in range(done, whole, WORDS_PER_LINE):
            lines[line] = values[start:start + WORDS_PER_LINE]
            line += CACHE_LINE_BYTES
        if whole < n:  # the last line's first words
            lines[line] = values[whole:] + lines.get(line, ZERO_LINE)[n - whole:]

    def share_lines(self, addr: int, n: int, *targets: "MemoryImage") -> None:
        """Store this image's tuples, shared, in each of ``targets`` for
        every line that the ``n`` consecutive words from ``addr``'s
        containing word touch. A target that held the same lines as this
        image before it took ``write_range(addr, values)`` (``n`` values)
        then holds what that write would have left there."""
        if n <= 0:
            return
        lines = self._lines
        first = addr & ~_LINE_MASK
        last = ((addr & ~_WORD_MASK) + (n - 1) * WORD_BYTES) & ~_LINE_MASK
        if first == last:
            words = lines[first]
            for target in targets:
                target._lines[first] = words
            return
        shared = [(line, lines[line]) for line in range(first, last + 1, CACHE_LINE_BYTES)]
        for target in targets:
            target._lines.update(shared)

    def line(self, addr: int) -> Tuple[int, ...]:
        """The cache line containing ``addr``: its stored 8-tuple, shared,
        or :data:`ZERO_LINE`. Later stores replace the tuple, so this is a
        snapshot."""
        return self._lines.get(addr & ~_LINE_MASK, ZERO_LINE)

    def apply(self, runs) -> None:
        """Apply a payload's ``(word addr, values)`` runs in order; every
        run's alignment is checked before any is written."""
        for addr, _values in runs:
            if addr & _WORD_MASK:
                raise SimulationError(f"unaligned word write at {addr:#x}")
        lines = self._lines
        for addr, values in runs:
            if len(values) == WORDS_PER_LINE and not addr & _LINE_MASK:
                lines[addr] = tuple(values)
            else:
                self.write_range(addr, values)

    def copy(self) -> "MemoryImage":
        """An independent image (the crash machinery freezes PM with it);
        lines are immutable, so a shallow copy suffices."""
        dup = MemoryImage(self.name)
        dup._lines = self._lines.copy()
        return dup

    def lines(self):
        """Iterate over (line base, 8-tuple) pairs of materialised lines."""
        return self._lines.items()

    def items(self) -> Iterator[Tuple[int, int]]:
        """Iterate over (word addr, value) pairs of every word of every
        materialised line (zeros included)."""
        for base, words in self._lines.items():
            for i, value in enumerate(words):
                yield base + i * WORD_BYTES, value
