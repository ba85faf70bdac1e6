"""TPC-C New-Order under all six persistence schemes.

The paper's largest workload (5-15 order lines plus district and stock
updates per atomic region) run under all six schemes - NP / SW / HWUndo /
HWRedo / ASAP and the asap_redo extension - on the same machine
configuration: a miniature of the Fig. 7/8/9b columns for TPCC.

Run:  python examples/tpcc_comparison.py
"""

from repro import Machine, SystemConfig, make_scheme
from repro.workloads import WorkloadParams, get_workload

PARAMS = WorkloadParams(num_threads=4, ops_per_thread=20, value_bytes=64)
SCHEMES = ["np", "sw", "hwundo", "hwredo", "asap", "asap_redo"]


def run(scheme):
    machine = Machine(SystemConfig.small(num_cores=8), make_scheme(scheme))
    machine.install(get_workload("TPCC", PARAMS))
    return machine.run()


def main():
    results = {scheme: run(scheme) for scheme in SCHEMES}
    sw = results["sw"]
    np_result = results["np"]

    header = (
        f"{'scheme':8s} {'cycles':>10s} {'speedup/SW':>11s} "
        f"{'cycles/region':>14s} {'vs NP':>7s} {'PM writes':>10s}"
    )
    print(header)
    print("-" * len(header))
    for scheme in SCHEMES:
        r = results[scheme]
        print(
            f"{scheme:8s} {r.cycles:>10d} {r.speedup_over(sw):>11.2f} "
            f"{r.cycles_per_region:>14.0f} "
            f"{r.cycles_per_region / np_result.cycles_per_region:>7.2f} "
            f"{r.pm_writes:>10d}"
        )

    asap = results["asap"]
    print()
    print(
        f"ASAP vs HWUndo: {asap.speedup_over(results['hwundo']):.2f}x faster, "
        f"{asap.traffic_ratio_over(results['hwundo']):.2f}x the PM traffic"
    )
    print(
        f"ASAP vs HWRedo: {asap.speedup_over(results['hwredo']):.2f}x faster, "
        f"{asap.traffic_ratio_over(results['hwredo']):.2f}x the PM traffic"
    )


if __name__ == "__main__":
    main()
