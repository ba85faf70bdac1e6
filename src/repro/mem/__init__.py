"""Memory substrate: functional images, caches, WPQs, memory controllers.

The substrate separates *function* from *timing*:

* :class:`~repro.mem.image.MemoryImage` holds actual word values. The
  machine keeps two: the volatile image (what the CPUs see) and the PM
  image (what survives a crash). The PM image is only updated by WPQ
  drains; a crash snapshot applies the persistence-domain flush to a
  copy of it.
* The cache hierarchy and memory controllers provide latencies and
  occupancy (queueing/backpressure) but never store data values; data
  payloads are snapshotted into persist operations when those are created.
"""

from repro.mem.image import MemoryImage
from repro.mem.tagstore import LineMeta, TagStore
from repro.mem.cache import CacheArray
from repro.mem.wpq import PersistOp, WritePendingQueue
from repro.mem.timing import TimingModel
from repro.mem.controller import Channel, MemorySystem

__all__ = [
    "MemoryImage",
    "LineMeta",
    "TagStore",
    "CacheArray",
    "PersistOp",
    "WritePendingQueue",
    "TimingModel",
    "Channel",
    "MemorySystem",
]
