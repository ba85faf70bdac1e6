"""ASAP proper: the paper's contribution (Secs. 4-5).

This package implements the hardware structures of Fig. 3:

* region ids (:mod:`repro.core.rid`),
* the per-thread circular undo log and its record/header layout
  (:mod:`repro.core.log`),
* the Log Header WPQ (:mod:`repro.core.lh_wpq`),
* the per-core Modified Cache Line List (:mod:`repro.core.cl_list`),
* the per-channel Dependence List (:mod:`repro.core.dependence`),
* and the Bloom filter + DRAM spill buffer for dependence tracking across
  LLC evictions (:mod:`repro.core.bloom`).

The asynchronous-commit protocol of Fig. 4, which ties them to the cache
hierarchy and memory controllers, is :class:`repro.persist.asap.AsapScheme`.
"""

from repro.core.rid import RID, pack_rid, unpack_rid
from repro.core.states import RegionState
from repro.core.log import LogRecord, UndoLog
from repro.core.lh_wpq import LogHeaderWPQ
from repro.core.cl_list import CLEntry, CLList, CLSlot
from repro.core.dependence import DependenceEntry, DependenceList
from repro.core.bloom import BloomFilter, OwnerSpillBuffer

__all__ = [
    "RID",
    "pack_rid",
    "unpack_rid",
    "RegionState",
    "LogRecord",
    "UndoLog",
    "LogHeaderWPQ",
    "CLEntry",
    "CLList",
    "CLSlot",
    "DependenceEntry",
    "DependenceList",
    "BloomFilter",
    "OwnerSpillBuffer",
]
