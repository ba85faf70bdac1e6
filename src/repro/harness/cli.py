"""Command-line entry point: regenerate the paper's tables and figures.

Usage::

    asap-repro fig7                # one experiment, quick mode
    asap-repro all --full --jobs 8 # everything, full machine, 8 workers
    asap-repro fig7 --no-cache     # force every cell to re-run
    asap-repro serve-bench         # open-loop tail latency vs offered load
    asap-repro config              # dump the Table 2 configuration
    asap-repro workloads           # list the Table 3 benchmarks
    python -m repro.harness.run fig9b

Every experiment is a matrix of independent simulation cells; ``--jobs N``
fans them out across worker processes and the on-disk result cache (on by
default; see ``--cache-dir``/``--no-cache``) memoises finished cells, so
re-running ``all`` recomputes only what changed. Results are identical
for any job count and cache state - see docs/HARNESS.md.
"""

from __future__ import annotations

import argparse
import sys
import time

from repro.common.params import SystemConfig
from repro.harness.experiments import REGISTRY
from repro.harness.parallel import (
    add_execution_flags,
    cache_from_args,
    progress_from_args,
)
from repro.workloads import WorkloadParams, get_workload, workload_names


def _dump_config() -> str:
    cfg = SystemConfig()
    lines = ["Table 2: system configuration"]
    lines.append(f"  cores: {cfg.num_cores}")
    for name, c in (("L1", cfg.l1), ("L2", cfg.l2), ("L3", cfg.l3)):
        lines.append(
            f"  {name}: {c.size_bytes // 1024} KB, {c.assoc}-way, {c.latency} cycles"
        )
    m = cfg.memory
    lines.append(
        f"  memory: {m.num_controllers} MCs x {m.channels_per_controller} "
        f"channels, {m.wpq_entries} WPQ entries/channel"
    )
    a = cfg.asap
    lines.append(
        f"  ASAP: CL List {a.cl_list_entries} entries/core ({a.clptr_slots} "
        f"CLPtrs), Dependence List {a.dependence_list_entries}/channel "
        f"({a.dep_slots} Deps), LH-WPQ {a.lh_wpq_entries}/channel, "
        f"Bloom {a.bloom_filter_bits // 8} B/channel"
    )
    return "\n".join(lines)


def _dump_workloads() -> str:
    from repro.workloads import service_workload_names

    lines = ["Table 3: benchmarks"]
    for name in workload_names():
        wl = get_workload(name, WorkloadParams())
        lines.append(f"  {name:<6s} {wl.description}")
    lines.append("service workloads (open-loop; see serve-bench)")
    for name in service_workload_names():
        wl = get_workload(name)
        lines.append(f"  {name:<9s} {wl.description}")
    return "\n".join(lines)


def _ratio(numerator: float, denominator: float, suffix: str = "x") -> str:
    """``num/den`` to two decimals, or "n/a" when the denominator is zero
    (a quick run can legitimately complete no regions under one scheme)."""
    if not denominator:
        return "n/a"
    return f"{numerator / denominator:.2f}{suffix}"


def main(argv=None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    if argv and argv[0] == "fuzz":
        # The fuzzer owns its flags (--seed/--budget/--points/...); hand
        # the rest of the command line straight to it.
        from repro.harness.fuzz import main as fuzz_main

        return fuzz_main(list(argv[1:]))
    if argv and argv[0] == "explore":
        # Likewise the design-space explorer (--space/--axis/--driver/...).
        from repro.explore.cli import main as explore_main

        return explore_main(list(argv[1:]))
    if argv and argv[0] == "recover":
        # And the explainable-recovery replayer (--case/--explain/--json/...).
        from repro.recovery.explain import main as recover_main

        return recover_main(list(argv[1:]))
    if argv and argv[0] == "analyze":
        # And the analysis front end (lint/sanitize/races/rules), the same
        # one behind `python -m repro.analysis`.
        from repro.analysis.__main__ import main as analyze_main

        return analyze_main(list(argv[1:]))

    parser = argparse.ArgumentParser(
        prog="asap-repro",
        description="Regenerate the ASAP paper's tables and figures",
    )
    parser.add_argument(
        "experiment",
        help=f"one of {sorted(REGISTRY)}, 'all', 'config', 'workloads', "
        "'summary', 'crashtest', 'fuzz' (see 'fuzz --help'), "
        "'explore' (see 'explore --help'), 'recover' "
        "(see 'recover --help'), or 'analyze' (see 'analyze --help')",
    )
    parser.add_argument(
        "--workloads",
        nargs="*",
        default=None,
        help="restrict to these Table 3 workloads",
    )
    parser.add_argument(
        "--json",
        metavar="FILE",
        default=None,
        help="also dump every experiment's rows as JSON to FILE",
    )
    parser.add_argument(
        "--csv-dir",
        metavar="DIR",
        default=None,
        help="also write one CSV per experiment into DIR",
    )
    add_execution_flags(parser)
    args = parser.parse_args(argv)

    jobs = max(1, args.jobs)
    cache = cache_from_args(args)

    if args.experiment == "config":
        print(_dump_config())
        return 0
    if args.experiment == "workloads":
        print(_dump_workloads())
        return 0
    if args.experiment == "summary":
        from repro.harness.experiments import fig7, fig8, fig9b
        from repro.area import estimate_area

        workloads = args.workloads or ["BN", "HM", "Q"]
        common = dict(quick=not args.full, workloads=workloads)
        execute_kwargs = dict(jobs=jobs, cache=cache, sanitize=args.sanitize)
        f7 = fig7.plan(sizes=[64], **common).execute(**execute_kwargs)
        f8 = fig8.plan(sizes=[64], **common).execute(**execute_kwargs)
        f9 = fig9b.plan(**common).execute(**execute_kwargs)
        area_pct = estimate_area().total_overhead * 100
        gm7, gm8, gm9 = f7.rows["GeoMean"], f8.rows["GeoMean"], f9.rows["GeoMean"]
        print("headline claims (paper -> measured, geomean over "
              f"{', '.join(workloads)}):")
        print(f"  speedup over SW:        ASAP 2.25x -> {gm7['ASAP']:.2f}x")
        print(f"  vs no-persistence:      0.96x NP   -> "
              f"{_ratio(gm7['ASAP'], gm7['NP'], 'x NP')}")
        print(f"  region latency vs NP:   1.08x      -> {gm8['ASAP']:.2f}x")
        print(f"  traffic vs HWUndo:      0.52x      -> {_ratio(1, gm9['HWUndo'])}")
        print(f"  traffic vs HWRedo:      0.62x      -> {_ratio(1, gm9['HWRedo'])}")
        print(f"  area overhead:          ~2.5%      -> {area_pct:.2f}%")
        return 0
    if args.experiment == "crashtest":
        from repro.harness.crashtest import run_crashtest
        from repro.persist import recoverable_schemes

        targets = args.workloads or workload_names()
        failed = False
        for name in targets:
            for scheme in recoverable_schemes():
                report = run_crashtest(workload=name, scheme=scheme)
                print(report.summary())
                failed = failed or not report.ok
        return 1 if failed else 0

    names = sorted(REGISTRY) if args.experiment == "all" else [args.experiment]
    collected = {}
    for name in names:
        if name not in REGISTRY:
            parser.error(f"unknown experiment {name!r}; choose from {sorted(REGISTRY)}")
        start = time.time()
        hits_before = cache.hits if cache else 0
        plan = REGISTRY[name](quick=not args.full, workloads=args.workloads)
        result = plan.execute(
            jobs=jobs,
            cache=cache,
            progress=progress_from_args(args, name),
            sanitize=args.sanitize,
        )
        results = result if isinstance(result, list) else [result]
        for r in results:
            print(r.to_table())
            print()
        collected[name] = [r.to_dict() for r in results]
        if args.csv_dir:
            import pathlib

            out = pathlib.Path(args.csv_dir)
            out.mkdir(parents=True, exist_ok=True)
            for i, r in enumerate(results):
                suffix = f"_{i}" if len(results) > 1 else ""
                (out / f"{name}{suffix}.csv").write_text(r.to_csv())
        cached_note = (
            f", {cache.hits - hits_before} cells from cache" if cache else ""
        )
        print(f"  [{time.time() - start:.1f}s{cached_note}]\n")
    if args.json:
        import json

        with open(args.json, "w") as fh:
            json.dump(collected, fh, indent=2)
        print(f"wrote {args.json}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
