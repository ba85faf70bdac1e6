"""Sensitivity to persistent-memory technology (a miniature Fig. 10).

Sweeps the PM latency multiplier from battery-backed DRAM (1x) to a slow
NVM technology (16x) and prints each scheme's throughput normalized to NP
at the same latency - showing why asynchronous commit makes ASAP "robust
against increasing persistent memory latency".

Run:  python examples/latency_sensitivity.py
"""

from repro import Machine, SystemConfig, make_scheme
from repro.workloads import WorkloadParams, get_workload

PARAMS = WorkloadParams(num_threads=4, ops_per_thread=25, value_bytes=64)
MULTIPLIERS = [1, 2, 4, 16]
SCHEMES = ["asap", "hwundo", "hwredo"]
WORKLOAD = "HM"


def throughput(scheme, multiplier):
    cfg = SystemConfig.small(num_cores=8, pm_latency_multiplier=multiplier)
    machine = Machine(cfg, make_scheme(scheme))
    machine.install(get_workload(WORKLOAD, PARAMS))
    return machine.run().throughput


def main():
    print(f"workload: {WORKLOAD}; throughput normalized to NP (higher is better)")
    print(f"{'PM latency':>10s} " + "".join(f"{s:>9s}" for s in SCHEMES))
    for m in MULTIPLIERS:
        np_tp = throughput("np", m)
        row = [throughput(s, m) / np_tp for s in SCHEMES]
        print(f"{m:>9d}x " + "".join(f"{v:>9.2f}" for v in row))
    print()
    print("expected shape (paper Fig. 10): ASAP stays near NP across the")
    print("sweep; HWUndo and HWRedo fall away as persist operations on the")
    print("commit path stretch with the device latency.")


if __name__ == "__main__":
    main()
