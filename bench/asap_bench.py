#!/usr/bin/env python3
"""Host-time benchmark of the ASAP simulator (see bench/README.md).

Usage::

    python3 bench/asap_bench.py                      # all four workloads, seed 42
    python3 bench/asap_bench.py --workload fig7 --seed 7 --seconds 15
    python3 bench/asap_bench.py --trace              # adds per-layer metrics
    python3 bench/asap_bench.py --update-golden      # rewrite bench/golden.json

Each workload runs in its own fresh interpreter (``bench/measure.py``),
one at a time, so the load is one single-threaded process. ``--trace``
runs each workload again in another interpreter under cProfile. Every
metric is printed by name with its unit, then one JSON line: end-to-end
metrics untraced, per-layer metrics with ``--trace``. Simulated results
are checked against ``bench/golden.json`` at its seed; ``fig7-fast``
must equal ``fig7`` cell by cell; a sample of cells is re-run on the
other simulation core. A failed check is reported in the output (and
in the JSON line's ``correct``/``failed``), not in the exit code, which
is 0 whenever a result was printed.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from typing import Dict, List

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
GOLDEN = os.path.join(BENCH, "golden.json")
DEFAULT_SEED = 42
#: a hung child is killed after this long
CHILD_TIMEOUT_S = 900


def run_child(spec: dict) -> dict:
    """Run ``measure.measure(**spec)`` in a fresh interpreter."""
    proc = subprocess.run(
        [sys.executable, os.path.join(BENCH, "measure.py"), json.dumps(spec)],
        cwd=ROOT,
        stdout=subprocess.PIPE,
        text=True,
        timeout=CHILD_TIMEOUT_S,
    )
    if proc.returncode != 0:
        raise RuntimeError(
            f"{spec['workload']} child exited with code {proc.returncode}"
        )
    return json.loads(proc.stdout.strip().splitlines()[-1])


def load_golden() -> dict:
    try:
        with open(GOLDEN) as fh:
            return json.load(fh)
    except FileNotFoundError:
        return {}


def replay_command(workload: str, seed: int, label: str) -> str:
    if workload == "fuzz":
        return (
            f"PYTHONPATH=src python3 -m repro.harness.cli fuzz --seed {seed} "
            "--budget 4800 --corpus tests/property/corpus --no-shrink"
        )
    return (
        f"python3 bench/asap_bench.py --workload {workload} --seed {seed} "
        f"--cell {label}"
    )


def find_failures(out: dict, golden: dict, reference: dict) -> Dict[str, str]:
    """``{cell: reason}`` for every cell of one workload that failed.

    ``reference`` is fig7's digests from this invocation (or empty),
    which ``fig7-fast`` must equal.
    """
    workload = out["workload"]
    digests = out["digests"]
    failed = dict(out["errors"])
    for label in out["unstable"]:
        failed.setdefault(label, "differs between passes")
    for label, problem in out.get("cross_core", {}).items():
        failed.setdefault(label, problem)
    if workload == "fuzz":
        expect = golden.get("fuzz") if out["seed"] == golden.get("seed") else None
        if expect is not None and out.get("full") and digests != expect:
            got = set(digests.get("failing_cases", []))
            want = set(expect["failing_cases"])
            for case in sorted(got ^ want) or ["campaign"]:
                failed.setdefault(
                    f"case {case}",
                    f"golden: runs/cases/failing cases {digests.get('runs')}/"
                    f"{digests.get('cases')}/{len(got)}, expected "
                    f"{expect['runs']}/{expect['cases']}/{len(want)}",
                )
        return failed
    key = "serve" if workload == "serve" else "fig7"
    if out["seed"] == golden.get("seed") and key in golden:
        for label, sha in digests.items():
            if golden[key].get(label, sha) != sha:
                failed.setdefault(label, "differs from bench/golden.json")
    for label, sha in digests.items():
        if reference.get(label, sha) != sha:
            failed.setdefault(label, "differs from fig7's result for the cell")
    return failed


def bench_workload(
    workload: str,
    seed: int,
    seconds: float = 0.0,
    trace: bool = False,
    size=None,
    cells=None,
) -> dict:
    """Untraced child, then (``trace``) a traced child, for one workload."""
    spec = {"workload": workload, "seed": seed, "seconds": seconds, "size": size}
    if cells:
        spec["cells"] = cells
    out = run_child(dict(spec, trace=False))
    out["full"] = size is None and not cells
    if trace:
        traced = run_child(dict(spec, trace=True))
        out["layers"].update(traced["layers"])
        out["layers"]["trace.overhead_x"] = traced["raw_wall_s"] / out["raw_wall_s"]
        differ = {
            k
            for k in set(traced["digests"]) | set(out["digests"])
            if traced["digests"].get(k) != out["digests"].get(k)
        }
        out["unstable"] = sorted(set(out["unstable"]) | differ)
        out["errors"].update(traced["errors"])
    return out


def print_report(out: dict, failed: Dict[str, str], units: dict) -> None:
    workload = out["workload"]
    print(
        f"== {workload}  seed {out['seed']}  passes {out['passes']}  "
        f"n {out['n']} {'check runs' if workload == 'fuzz' else 'cells'}"
    )
    for name in units:
        if name in out["metrics"]:
            print(f"  {name:<34} {out['metrics'][name]:>16.6g} {units[name]}")
    print(f"  {'(raw host wall_s)':<34} {out['raw_wall_s']:>16.6g} s")
    print(
        f"  {'failed_frac':<34} {len(failed) / out['attempted']:>16.6g} fraction"
        f"  ({len(failed)}/{out['attempted']})"
    )
    if workload == "fuzz":
        d = out["digests"]
        print(
            f"  fuzz: {d.get('runs')} runs, {d.get('cases')} cases, "
            f"{len(d.get('failing_cases', []))} crash-consistency findings"
        )
        if out["first_failure"]:
            print(f"  first: {' '.join(out['first_failure'].split())}")
    if "trace.overhead_x" in out["layers"]:
        for name, value in sorted(out["layers"].items()):
            print(f"  {name:<34} {value:>16.6g} {units[name]}")
    for label, reason in failed.items():
        print(
            f"  FAILED {workload} {label} seed {out['seed']}: {reason}\n"
            f"    replay: {replay_command(workload, out['seed'], label)}"
        )


def update_golden(args) -> int:
    if args.seed != DEFAULT_SEED:
        print(
            f"--update-golden records seed {DEFAULT_SEED} only (got {args.seed})",
            file=sys.stderr,
        )
        return 2
    golden = {"seed": DEFAULT_SEED}
    for workload in ("fig7", "serve", "fuzz"):
        out = bench_workload(workload, DEFAULT_SEED)
        if out["errors"]:
            print(f"{workload} raised: {out['errors']}", file=sys.stderr)
            return 1
        golden[workload] = out["digests"]
    with open(GOLDEN, "w") as fh:
        json.dump(golden, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"wrote {GOLDEN}")
    return 0


def main(argv=None) -> int:
    if not os.path.isdir(os.path.join(ROOT, "src", "repro")):
        print(f"no simulator sources under {ROOT}/src/repro", file=sys.stderr)
        return 2
    from measure import END_TO_END, TRACED_LAYER, UNTRACED_LAYER, WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--workload",
        "--workloads",
        dest="workloads",
        nargs="+",
        choices=WORKLOADS,
        default=list(WORKLOADS),
    )
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument(
        "--seconds",
        type=float,
        default=0.0,
        help="repeat whole passes for about this long (default: one pass)",
    )
    parser.add_argument(
        "--trace",
        type=int,
        nargs="?",
        const=1,
        default=0,
        choices=(0, 1),
        help="also run each workload under cProfile for per-layer metrics",
    )
    parser.add_argument("--json", metavar="FILE", help="write every result here")
    parser.add_argument(
        "--cell", action="append", help="run only this cell (replay a failure)"
    )
    parser.add_argument(
        "--update-golden",
        action="store_true",
        help=f"rewrite bench/golden.json (seed {DEFAULT_SEED} only)",
    )
    args = parser.parse_args(argv)
    if args.update_golden:
        return update_golden(args)

    units = {**END_TO_END, **UNTRACED_LAYER, **TRACED_LAYER}
    golden = load_golden()
    results: List[dict] = []
    reference: Dict[str, str] = {}
    attempted = failed_total = 0
    for workload in args.workloads:
        out = bench_workload(
            workload, args.seed, args.seconds, bool(args.trace), cells=args.cell
        )
        if workload == "fig7":
            reference = out["digests"]
        failed = find_failures(
            out, golden, reference if workload == "fig7-fast" else {}
        )
        out["failed"] = failed
        print_report(out, failed, units)
        results.append(out)
        attempted += out["attempted"]
        failed_total += len(failed)

    names = (
        list(UNTRACED_LAYER) + list(TRACED_LAYER) if args.trace else list(END_TO_END)
    )
    source = "layers" if args.trace else "metrics"
    metrics = {}
    for out in results:
        prefix = "" if len(results) == 1 else f"{out['workload']}."
        for name in names:
            metrics[prefix + name] = {"value": out[source][name], "unit": units[name]}
    if args.json:
        with open(args.json, "w") as fh:
            json.dump(results, fh, indent=1, sort_keys=True)
    print(
        json.dumps(
            {
                "correct": failed_total == 0,
                "attempted": attempted,
                "failed": failed_total,
                "metrics": metrics,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
