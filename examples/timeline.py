"""Visualizing asynchronous commit: the same program's timeline under a
synchronous-commit scheme (HWUndo) and under ASAP.

For each atomic region we print when `asap_end` retired and when the
region actually committed. Under HWUndo the two coincide (execution
stalls at the end of the region until it is durable); under ASAP the
instruction stream runs ahead and commits trail behind, in dependence
order - Fig. 4's state machine at work.

Run:  python examples/timeline.py
"""

from repro import Machine, SystemConfig, make_scheme
from repro.core.rid import unpack_rid
from repro.sim.ops import Begin, End, Read, Write
from repro.sim.trace import Tracer

REGIONS = 6


def run_traced(scheme_name):
    machine = Machine(SystemConfig.small(), make_scheme(scheme_name))
    tracer = Tracer(machine)
    a = machine.heap.alloc(64 * REGIONS)

    def worker(env):
        for i in range(REGIONS):
            yield Begin()
            (v,) = yield Read(a + 64 * i, 1)
            yield Write(a + 64 * i, [v + i])
            yield End()

    machine.spawn(worker)
    machine.run()
    return tracer


def show(scheme_name):
    tracer = run_traced(scheme_name)
    ends = {e.rid: e.cycle for e in tracer.of_kind("end")}
    commits = {e.rid: e.cycle for e in tracer.of_kind("commit")}
    print(f"\n{scheme_name}:")
    print(f"  {'region':>8} {'end retired':>12} {'committed':>10} {'lag':>6}")
    for rid in sorted(ends):
        lag = commits[rid] - ends[rid]
        print(
            f"  {str(unpack_rid(rid)):>8} {ends[rid]:>12} "
            f"{commits[rid]:>10} {lag:>6}"
        )
    lags = [commits[r] - ends[r] for r in ends]
    print(f"  mean commit lag: {sum(lags) / len(lags):.0f} cycles")


def main():
    print("one thread, six atomic regions, identical program:")
    show("hwundo")
    show("asap")
    print(
        "\nHWUndo stalls the thread until each region is durable (lag 0);"
        "\nASAP retires End immediately and commits in the background."
    )


if __name__ == "__main__":
    main()
