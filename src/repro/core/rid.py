"""Atomic-region identifiers (Sec. 5.6).

A RID is ``ThreadID`` ++ ``LocalRID``: including the thread id removes any
need to synchronise across threads when assigning ids, and the LocalRID's
LSBs select the memory-controller channel that hosts the region's
Dependence List entry.

We pack RIDs into a single int (thread id in the high bits) so they can be
stored in tag-extension fields, log headers, and WPQ entries uniformly.
"""

from __future__ import annotations

from typing import NamedTuple

_LOCAL_BITS = 32
_LOCAL_MASK = (1 << _LOCAL_BITS) - 1


class RID(NamedTuple):
    """An unpacked region id."""

    thread_id: int
    local_rid: int

    def __str__(self) -> str:  # e.g. "R3.17"
        return f"R{self.thread_id}.{self.local_rid}"


def pack_rid(thread_id: int, local_rid: int) -> int:
    """Pack thread id and LocalRID into one integer."""
    if thread_id < 0 or local_rid < 0:
        raise ValueError(f"negative rid components ({thread_id}, {local_rid})")
    if local_rid > _LOCAL_MASK:
        raise ValueError(f"LocalRID {local_rid} exceeds {_LOCAL_BITS} bits")
    return (thread_id << _LOCAL_BITS) | local_rid


def unpack_rid(packed: int) -> RID:
    """Inverse of :func:`pack_rid`."""
    if packed < 0:
        raise ValueError(f"negative packed rid {packed}")
    return RID(packed >> _LOCAL_BITS, packed & _LOCAL_MASK)


def local_rid_of(packed: int) -> int:
    """Extract the LocalRID (used for channel selection)."""
    return packed & _LOCAL_MASK


def thread_id_of(packed: int) -> int:
    """Extract the ThreadID."""
    return packed >> _LOCAL_BITS


def previous_rid(packed: int):
    """The packed rid of the same thread's previous region, or None.

    Used at ``asap_begin`` to capture the control dependence on the
    thread's previous atomic region (Sec. 4.5).
    """
    local = packed & _LOCAL_MASK
    if local == 0:
        return None
    return packed - 1
