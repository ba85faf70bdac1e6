"""One workload's measured passes, run in this process.

``asap_bench.py`` starts a fresh interpreter per workload and mode::

    python3 bench/measure.py '{"workload": "fig7", "seed": 42, "trace": false}'

which prints one JSON object (see :func:`measure`) as its last line.

Everything here times the simulator from outside, through its public
calls: ``harness.runner.build_machine``, ``Machine.__init__`` and
``Machine.run``, ``harness.fuzz.run_fuzz`` with its ``build_machine``,
``check_no_crash`` and ``check_crash``, and the recovery functions the
fuzzer calls (``crash_machine``, ``recover``, ``verify_recovery``).
:class:`Probe` wraps those calls while a pass runs and restores them
afterwards; the simulator's own code is never edited.
"""

from __future__ import annotations

import cProfile
import dataclasses
import gc
import glob
import hashlib
import json
import math
import os
import resource
import statistics
import sys
import time
from collections import Counter
from typing import Dict, List, Optional, Tuple

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
if SRC not in sys.path:
    sys.path.insert(0, SRC)

from hostclock import HostClock  # noqa: E402
from layers import LAYERS, layer_profile  # noqa: E402
from repro.harness import fuzz, runner  # noqa: E402
from repro.harness.experiments import fig7, serve_bench  # noqa: E402
from repro.sim.machine import Machine  # noqa: E402

WORKLOADS = ("fig7", "fig7-fast", "serve", "fuzz")
FUZZ_BUDGET = 4800
FUZZ_CRASH_POINTS = 3
FUZZ_CORPUS = os.path.join("tests", "property", "corpus")
SERVE_REQUESTS = 256
#: every this-many-th cell is re-run on the other simulation core
CROSS_CORE_STRIDE = 10

#: simulated counts summed over every ``Machine.run`` result in a pass
RUN_COUNTS = {
    "sim.executor.ops": lambda r: r.ops_executed,
    "persist.regions": lambda r: r.regions_completed,
    "mem.hierarchy.accesses": lambda r: r.cache_accesses,
    "mem.hierarchy.llc_misses": lambda r: r.llc_misses,
    "mem.hierarchy.mshr_merges": lambda r: r.mshr_merges,
    "mem.hierarchy.stall_locked_set": lambda r: r.stall_breakdown.get("locked_set", 0),
    "mem.hierarchy.stall_mshr": lambda r: r.stall_breakdown.get("mshr", 0),
    "mem.wpq.pm_writes": lambda r: r.pm_writes,
    "mem.wpq.pm_reads": lambda r: r.pm_reads,
    "core.stall_cl": lambda r: r.stall_breakdown.get("cl_entry", 0)
    + r.stall_breakdown.get("cl_slot", 0),
    "core.stall_dep": lambda r: r.stall_breakdown.get("dep_entry", 0)
    + r.stall_breakdown.get("dep_slot", 0),
    "core.stall_lh_wpq": lambda r: r.stall_breakdown.get("lh_wpq", 0),
}

#: end-to-end metrics: name -> unit
END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "sim_ops_per_s": "ops/s",
    "runs_per_s": "runs/s",
    "cell_p50_ms": "ms",
    "cell_p80_ms": "ms",
    "peak_rss_mb": "MB",
}

#: per-layer host times from the untraced passes: name -> unit
UNTRACED_TIMES = {
    "sim.build_s": "s",
    "workloads.install_s": "s",
    "sim.run_s": "s",
    "engine.host_us_per_event": "us",
    "recovery.s": "s",
    "recovery.crash_s": "s",
    "recovery.verify_s": "s",
}

#: per-layer metrics from the untraced passes: name -> unit
UNTRACED_LAYER = {
    **UNTRACED_TIMES,
    "engine.events": "count",
    "recovery.recoveries": "count",
    **{name: "count" for name in RUN_COUNTS},
    "recovery.records_scanned": "count",
    "recovery.restored_lines": "count",
}

#: per-layer metrics from the traced pass: name -> unit
TRACED_LAYER = {
    "trace.overhead_x": "x",
    **{
        f"{layer}.{stat}": unit
        for layer in LAYERS
        for stat, unit in (("self_s", "s"), ("share", "fraction"), ("calls", "count"))
    },
}

Span = Tuple[float, float]


def digest(result) -> str:
    """sha256 of a ``RunResult``'s canonical JSON form."""
    text = json.dumps(dataclasses.asdict(result), sort_keys=True)
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def cell_label(spec) -> str:
    return "/".join(str(part) for part in spec.key)


def cell_specs(workload: str, seed: int) -> list:
    """The workload's cells exactly as its experiment plans them, with
    the benchmark seed in ``WorkloadParams.seed``."""
    if workload == "serve":
        plan = serve_bench.plan(quick=True, loads=serve_bench.LOADS_FULL)
        overrides = {"seed": seed, "requests": SERVE_REQUESTS}
    else:
        plan = fig7.plan(quick=True)
        overrides = {"seed": seed}
    return [
        dataclasses.replace(
            spec,
            params=dataclasses.replace(spec.params, **overrides),
            fast=workload == "fig7-fast",
        )
        for spec in plan.specs
    ]


def fuzz_corpus() -> list:
    """The regression corpus, normalised as ``asap-repro fuzz --corpus`` does."""
    cases = []
    for path in sorted(glob.glob(os.path.join(ROOT, FUZZ_CORPUS, "*.json"))):
        case, _meta = fuzz.load_corpus_entry(path)
        cases.append(
            dataclasses.replace(
                case,
                fifo_backpressure=True,
                ordered_line_log_persists=True,
                crash_fracs=[],
                mshrs_per_cache=None,
            )
        )
    return cases


class Probe:
    """Untraced timers and counters around the simulator's public calls.

    Use as a context manager: entering wraps ``Machine.__init__``,
    ``Machine.run`` and the ``repro.harness.fuzz`` module functions,
    leaving restores them. :meth:`reset` starts a new pass.
    """

    _FUZZ_NAMES = (
        "build_machine",
        "check_no_crash",
        "check_crash",
        "crash_machine",
        "recover",
        "verify_recovery",
    )

    def __init__(self, clock_active: bool = True):
        self.clock_active = clock_active
        self.reset()

    def reset(self) -> None:
        self.clock = HostClock(active=self.clock_active)
        self.times: Counter = Counter()
        self.counts: Counter = Counter()
        self.setup_spans: List[Span] = []
        self.cell_spans: List[Span] = []

    def __enter__(self) -> "Probe":
        self._saved_machine = (Machine.__init__, Machine.run)
        self._saved_fuzz = {name: getattr(fuzz, name) for name in self._FUZZ_NAMES}
        orig_init, orig_run = self._saved_machine
        saved = self._saved_fuzz
        probe = self

        def init(machine, *args, **kwargs):
            start = time.perf_counter()
            orig_init(machine, *args, **kwargs)
            probe.times["sim.build_s"] += time.perf_counter() - start
            scheduler_run = machine.scheduler.run

            def counted_run(*a, **k):
                executed = scheduler_run(*a, **k)
                probe.counts["engine.events"] += executed
                return executed

            machine.scheduler.run = counted_run

        def run(machine, *args, **kwargs):
            start = time.perf_counter()
            result = orig_run(machine, *args, **kwargs)
            probe.times["sim.run_s"] += time.perf_counter() - start
            for name, count in RUN_COUNTS.items():
                probe.counts[name] += count(result)
            return result

        def timed(name, on_done, tick=False):
            fn = saved[name]

            def wrapper(*args, **kwargs):
                if tick:
                    probe.clock.tick()
                start = time.perf_counter()
                out = fn(*args, **kwargs)
                on_done(start, time.perf_counter(), out)
                return out

            return wrapper

        def add(name):
            def on_done(start, end, _out):
                probe.times[name] += end - start

            return on_done

        def on_recover(start, end, out):
            probe.times["recovery.s"] += end - start
            probe.counts["recovery.recoveries"] += 1
            probe.counts["recovery.records_scanned"] += out[1].records_scanned
            probe.counts["recovery.restored_lines"] += out[1].restored_lines

        Machine.__init__, Machine.run = init, run
        fuzz.build_machine = timed(
            "build_machine", lambda s, e, _o: probe.setup_spans.append((s, e))
        )
        fuzz.check_no_crash = timed(
            "check_no_crash", lambda s, e, _o: probe.cell_spans.append((s, e)), True
        )
        fuzz.check_crash = timed(
            "check_crash", lambda s, e, _o: probe.cell_spans.append((s, e)), True
        )
        fuzz.crash_machine = timed("crash_machine", add("recovery.crash_s"))
        fuzz.recover = timed("recover", on_recover)
        fuzz.verify_recovery = timed("verify_recovery", add("recovery.verify_s"))
        return self

    def __exit__(self, *exc) -> None:
        Machine.__init__, Machine.run = self._saved_machine
        for name, fn in self._saved_fuzz.items():
            setattr(fuzz, name, fn)

    def summary(self, start: float, end: float) -> dict:
        """Timings of the pass that ran from ``start`` to ``end``, in
        reference-host seconds (see ``hostclock``)."""
        clock = self.clock
        wall_s = clock.seconds(start, end)
        raw_wall_s = clock.raw_seconds(start, end)
        # wrapped calls nest inside cells; rescale them by the pass's factor
        scale = wall_s / raw_wall_s if raw_wall_s > 0 else 1.0
        setup_s = sum(clock.seconds(a, b) for a, b in self.setup_spans)
        times = {name: self.times[name] * scale for name in UNTRACED_TIMES}
        times["workloads.install_s"] = setup_s - times["sim.build_s"]
        events = self.counts["engine.events"]
        times["engine.host_us_per_event"] = (
            times["sim.run_s"] / events * 1e6 if events else 0.0
        )
        layers = dict(times)
        for name in UNTRACED_LAYER:
            if name not in layers:
                layers[name] = self.counts[name]
        return {
            "wall_s": wall_s,
            "raw_wall_s": raw_wall_s,
            "setup_s": setup_s,
            "cell_ms": [clock.seconds(a, b) * 1e3 for a, b in self.cell_spans],
            "layers": layers,
        }


def run_cells(specs, probe: Probe) -> dict:
    """One closed-loop pass over ``specs``: each cell starts when the
    previous one ends."""
    probe.reset()
    results: Dict[str, object] = {}
    errors: Dict[str, str] = {}
    probe.clock.tick()
    start = time.perf_counter()
    for spec in specs:
        label = cell_label(spec)
        probe.clock.tick()
        t0 = time.perf_counter()
        try:
            machine = runner.build_machine(
                spec.workload, spec.scheme, spec.config, spec.params, fast=spec.fast
            )
            t1 = time.perf_counter()
            results[label] = machine.run()
        except Exception as exc:  # a failing cell is recorded, not fatal
            errors[label] = f"{type(exc).__name__}: {exc}"
            continue
        # A machine is a web of reference cycles. Collecting it here charges
        # each cell for reclaiming its own garbage, instead of whichever
        # later cell happens to trigger a full collection.
        del machine
        gc.collect()
        probe.setup_spans.append((t0, t1))
        probe.cell_spans.append((t0, time.perf_counter()))
    end = time.perf_counter()
    probe.clock.tick()
    out = probe.summary(start, end)
    out["digests"] = {label: digest(r) for label, r in results.items()}
    out["errors"] = errors
    return out


def run_fuzz_pass(seed: int, budget: int, corpus: list, probe: Probe) -> dict:
    """One ``run_fuzz`` campaign; its check runs are the cells."""
    probe.reset()
    probe.clock.tick()
    start = time.perf_counter()
    digests: dict = {}
    errors: Dict[str, str] = {}
    first_failure = ""
    try:
        report = fuzz.run_fuzz(
            seed=seed,
            budget=budget,
            crash_points=FUZZ_CRASH_POINTS,
            corpus=corpus,
            shrink=False,
        )
        digests = {
            "runs": report.runs,
            "cases": report.cases,
            "failing_cases": [int(f.split()[1]) for f in report.failures],
        }
        first_failure = report.failures[0] if report.failures else ""
    except Exception as exc:
        errors["run_fuzz"] = f"{type(exc).__name__}: {exc}"
    end = time.perf_counter()
    probe.clock.tick()
    out = probe.summary(start, end)
    out.update(digests=digests, errors=errors, first_failure=first_failure)
    return out


def quantile(values: List[float], q: float) -> float:
    """Harrell-Davis estimate of the ``q`` quantile.

    A weighted mean of every order statistic, weighted by the
    Beta((n+1)q, (n+1)(1-q)) density over each one's rank interval
    (midpoint rule). Cell times are far from uniform - the 90 Fig. 7
    cells jump from 65 ms to 130 ms to 190 ms around their median - so a
    single order statistic moves by a whole gap when two cells swap
    rank; this estimate moves smoothly.
    """
    ordered = sorted(values)
    n = len(ordered)
    a, b = (n + 1) * q, (n + 1) * (1 - q)
    logs = [
        (a - 1) * math.log((i + 0.5) / n) + (b - 1) * math.log(1 - (i + 0.5) / n)
        for i in range(n)
    ]
    top = max(logs)
    weights = [math.exp(x - top) for x in logs]
    return sum(w * v for w, v in zip(weights, ordered)) / sum(weights)


def measure(
    workload: str,
    seed: int = 42,
    seconds: float = 0.0,
    trace: bool = False,
    size: Optional[int] = None,
    cells: Optional[List[str]] = None,
) -> dict:
    """Run ``workload`` and return its metrics and result digests.

    Untraced (``trace=False``), whole passes over the workload repeat
    until about ``seconds`` have elapsed (at least one pass); a timing
    is the median over passes, and each cell's time is its median over
    passes. Afterwards a sample of cells is re-run on the other
    simulation core, which must give identical results. Traced, one
    pass runs under cProfile and its self time is split by layer.

    ``size`` shrinks the workload (the first ``size`` cells, or a fuzz
    budget of ``size`` runs); ``cells`` keeps only the named cells.
    """
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}; choose from {WORKLOADS}")
    if workload == "fuzz":
        corpus = fuzz_corpus()
        budget = size or FUZZ_BUDGET
        specs: list = []

        def one_pass(probe):
            return run_fuzz_pass(seed, budget, corpus, probe)

    else:
        specs = cell_specs(workload, seed)
        if cells:
            specs = [s for s in specs if cell_label(s) in cells]
        if size:
            specs = specs[:size]

        def one_pass(probe):
            return run_cells(specs, probe)

    out: dict = {"workload": workload, "seed": seed}
    with Probe(clock_active=not trace) as probe:
        if trace:
            profiler = cProfile.Profile()
            profiler.enable()
            passes = [one_pass(probe)]
            profiler.disable()
            profiler.create_stats()
            by_layer = layer_profile(profiler.stats, SRC)
            total = sum(v["self_s"] for v in by_layer.values()) or 1.0
            out["layers"] = {}
            for layer, v in by_layer.items():
                out["layers"][f"{layer}.self_s"] = v["self_s"]
                out["layers"][f"{layer}.share"] = v["self_s"] / total
                out["layers"][f"{layer}.calls"] = round(v["calls"])
        else:
            passes = []
            start = time.perf_counter()
            while True:
                passes.append(one_pass(probe))
                typical = statistics.median(p["raw_wall_s"] for p in passes)
                if time.perf_counter() - start + typical / 2 >= seconds:
                    break
            out["layers"] = {
                name: statistics.median(p["layers"][name] for p in passes)
                for name in UNTRACED_LAYER
            }
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    first = passes[0]
    n = len(first["cell_ms"])
    attempted = first["digests"].get("cases", 0) if workload == "fuzz" else len(specs)
    wall_s = statistics.median(p["wall_s"] for p in passes)
    out.update(
        passes=len(passes),
        n=n,
        wall_s=wall_s,
        raw_wall_s=statistics.median(p["raw_wall_s"] for p in passes),
        digests=first["digests"],
        errors={k: v for p in passes for k, v in p["errors"].items()},
        unstable=sorted(
            k
            for p in passes[1:]
            for k in set(p["digests"]) | set(first["digests"])
            if p["digests"].get(k) != first["digests"].get(k)
        ),
        first_failure=first.get("first_failure", ""),
        attempted=max(1, attempted),
    )
    if not trace:
        out["cross_core"] = cross_core(specs, seed, first["digests"])
        # a cell that raised in one pass leaves the passes unaligned
        aligned = all(len(p["cell_ms"]) == n for p in passes)
        per_cell = [
            statistics.median(p["cell_ms"][i] for p in passes) for i in range(n)
        ] if aligned else []
        out["metrics"] = {
            "setup_s": statistics.median(p["setup_s"] for p in passes),
            "wall_s": wall_s,
            "sim_ops_per_s": out["layers"]["sim.executor.ops"] / wall_s,
            "runs_per_s": n / wall_s,
            "cell_p50_ms": quantile(per_cell, 0.5) if per_cell else 0.0,
            "cell_p80_ms": quantile(per_cell, 0.8) if per_cell else 0.0,
            "peak_rss_mb": peak_rss_mb,
        }
    return out


def cross_core(specs, seed: int, digests: Dict[str, str]) -> Dict[str, str]:
    """Re-run every ``CROSS_CORE_STRIDE``-th cell (offset by the seed) on
    the other core; returns ``{label: problem}`` for cells that differ."""
    problems: Dict[str, str] = {}
    if not specs:
        return problems
    offset = seed % min(CROSS_CORE_STRIDE, len(specs))
    for spec in specs[offset::CROSS_CORE_STRIDE]:
        label = cell_label(spec)
        if label not in digests:
            continue
        other = runner.build_machine(
            spec.workload, spec.scheme, spec.config, spec.params, fast=not spec.fast
        ).run()
        if digest(other) != digests[label]:
            core = "reference" if spec.fast else "fast"
            problems[label] = f"differs from the {core} core"
    return problems


def main(argv=None) -> int:
    args = json.loads((argv or sys.argv[1:])[0])
    print(json.dumps(measure(**args), sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
