"""Workload framework: shadow-modelled persistent data structures.

Workloads follow the reproduction band's trace-driven approach: each data
structure keeps a *shadow* model in plain Python (for control flow) and
emits the memory ops a real PM implementation would perform - reads along
the traversal path, writes to every modified node, payload writes sized by
``value_bytes``. Because generators only advance at simulated-execution
time, shadow mutations inside lock-protected sections serialise exactly
like the simulated critical sections do.

The emitted *values* are real: node fields hold real keys/pointers and
payload words hold derived values, so the recovery tests can check that a
recovered image is a byte-consistent prefix of the run.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass
from typing import Dict, List

from repro.common.errors import ConfigError, SimulationError
from repro.common.units import WORD_BYTES
from repro.sim.machine import Machine


def expect_word(actual: int, expected: int, context: str) -> None:
    """Check a value read from simulated memory against the shadow model.

    Workloads use this instead of a bare ``assert`` so the check survives
    ``python -O`` and failures carry a diagnostic payload: a divergence
    here means the simulator returned a value the shadow never wrote -
    an ordering or isolation bug, not a workload bug.
    """
    if actual != expected:
        raise SimulationError(
            f"shadow model diverged from simulated memory: {context} "
            f"(read {actual:#x}, expected {expected:#x})"
        )


@dataclass(frozen=True)
class WorkloadParams:
    """Knobs shared by every workload.

    ``value_bytes`` is the paper's "data size per atomic region" (64 B and
    2 KB in Figs. 7-8): the payload written by each insert/update.
    """

    num_threads: int = 4
    ops_per_thread: int = 50
    value_bytes: int = 64
    seed: int = 42
    #: elements pre-loaded (bootstrap, durable before measurement begins)
    setup_items: int = 64
    #: fraction of operations that mutate existing entries rather than
    #: inserting new ones (where the workload distinguishes the two)
    update_fraction: float = 0.5

    def __post_init__(self):
        if self.num_threads <= 0 or self.ops_per_thread < 0:
            raise ConfigError("need positive thread/op counts")
        if self.value_bytes < WORD_BYTES or self.value_bytes % WORD_BYTES:
            raise ConfigError("value_bytes must be a positive multiple of 8")
        if not 0.0 <= self.update_fraction <= 1.0:
            raise ConfigError("update_fraction must be within [0, 1]")

    @property
    def value_words(self) -> int:
        return self.value_bytes // WORD_BYTES


class Workload(abc.ABC):
    """One Table 3 benchmark."""

    #: short evaluation name ("BN", "BT", ...)
    name: str = "?"
    description: str = ""
    #: "batch" workloads are the Table 3 benchmarks every figure sweeps by
    #: default; "service" workloads (open-loop request traffic, see
    #: :mod:`repro.workloads.service`) opt out of those defaults and are
    #: listed by :func:`service_workload_names` instead
    family: str = "batch"

    def __init__(self, params: WorkloadParams):
        self.params = params

    @abc.abstractmethod
    def install(self, machine: Machine) -> None:
        """Bootstrap the data structure and spawn the worker threads.

        Called by ``machine.install(workload)``, which also records the
        workload for the crash check's validators; call that instead."""

    # -- shared helpers ------------------------------------------------------

    @staticmethod
    def derive_value(seed: int, key: int, op_index: int) -> int:
        """A deterministic, run-unique payload word."""
        return (seed * 1_000_003 + key * 257 + op_index * 7919) & 0x7FFF_FFFF_FFFF

    def payload_words(self, base_value: int) -> List[int]:
        """The ``value_bytes``-sized payload for one insert/update."""
        n = self.params.value_words
        return [(base_value + i) & 0x7FFF_FFFF_FFFF for i in range(n)]

    def alloc_node(self, machine: Machine, header_words: int) -> int:
        """Allocate a node: header words + the payload area, line-aligned."""
        size = header_words * WORD_BYTES + self.params.value_bytes
        return machine.heap.alloc(size)

    # -- semantic validation -----------------------------------------------

    def validate_image(self, image) -> List[str]:
        """Check the data structure's invariants directly on a memory image.

        Walks the structure from its persistent roots using only pointer
        and key words found in ``image`` (never the shadow model), so it
        can validate a *recovered* PM image: any dependence-consistent
        prefix of the run must satisfy the structure's invariants - every
        atomic region moves it from one valid state to another.

        Returns a list of human-readable violations (empty = valid).
        """
        return []


#: registry: name -> Workload subclass
_REGISTRY: Dict[str, type] = {}


def register(cls: type) -> type:
    """Class decorator adding a workload to the registry."""
    _REGISTRY[cls.name] = cls
    return cls


def get_workload(name: str, params: WorkloadParams = WorkloadParams()) -> Workload:
    """Instantiate a registered workload by its Table 3 name."""
    try:
        cls = _REGISTRY[name]
    except KeyError:
        raise ConfigError(f"unknown workload {name!r}; choose from {sorted(_REGISTRY)}")
    return cls(params)


def workload_names() -> List[str]:
    """All Table 3 (batch) workload names, in the paper's order.

    Service workloads are deliberately excluded: every figure, benchmark
    and crash-test sweeps this list by default, and request-driven
    workloads need a :class:`~repro.workloads.service.ServiceParams` to
    mean anything. Use :func:`service_workload_names` for those.
    """
    batch = {n for n, cls in _REGISTRY.items() if cls.family == "batch"}
    order = ["BN", "BT", "CT", "EO", "HM", "Q", "RB", "SS", "TPCC"]
    return [n for n in order if n in batch] + sorted(batch - set(order))


def service_workload_names() -> List[str]:
    """All open-loop service workload names, sorted."""
    return sorted(n for n, cls in _REGISTRY.items() if cls.family == "service")
