"""ASAP: Architecture Support for Asynchronous Persistence - reproduction.

A pure-Python architectural simulator reproducing Abulila et al., ISCA
2022: hardware write-ahead logging for persistent memory with
*asynchronous region commit*, enforced-in-hardware control/data dependence
tracking, and the paper's full evaluation (SW / HWUndo / HWRedo / NP
baselines, nine Table 3 workloads, crash recovery, and every
table/figure's benchmark harness).

Quickstart::

    from repro import Machine, SystemConfig, make_scheme
    from repro.sim.ops import Begin, End, Read, Write

    machine = Machine(SystemConfig.small(), make_scheme("asap"))
    cell = machine.heap.alloc(64)          # asap_malloc

    def worker(env):
        yield Begin()                      # asap_begin
        yield Write(cell, [42])
        yield End()                        # asap_end - returns immediately;
                                           # the region commits asynchronously

    machine.spawn(worker)
    result = machine.run()
    print(result.throughput, result.pm_writes)

A crash or a recovery check needs the PM image and the commit oracle:
attach them first, ``Machine(...).inspect()``.

See DESIGN.md for the system inventory and EXPERIMENTS.md for
paper-vs-measured results.
"""

from repro.common.params import (
    AsapParams,
    CacheParams,
    CoreParams,
    MemoryParams,
    SystemConfig,
)
from repro.persist import make_scheme, scheme_names
from repro.sim.machine import Machine
from repro.sim.stats import RunResult
from repro.workloads import WorkloadParams, get_workload, workload_names

__version__ = "1.1.0"

__all__ = [
    "AsapParams",
    "CacheParams",
    "CoreParams",
    "MemoryParams",
    "SystemConfig",
    "Machine",
    "RunResult",
    "make_scheme",
    "scheme_names",
    "WorkloadParams",
    "get_workload",
    "workload_names",
    "__version__",
]
