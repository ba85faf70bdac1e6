#!/usr/bin/env python
"""Benchmark the payload-free mode against the reference machine.

Runs the Fig. 7 cell matrix (every Table 3 workload at 64 B and 2 KB
region sizes, under SW/HWRedo/HWUndo/ASAP/NP) twice per cell - once on
the reference machine and once with payloads, oracle and observers
elided (``fast=True``) - and writes ``BENCH_engine.json`` with per-cell
wall times, simulated-ops throughput, and speedups.

The headline number is the *total-time-weighted* speedup (total reference
seconds over total fast seconds): a per-cell geomean would let the many
cheap NP cells dilute the log-scheme cells where nearly all of the wall
time - and therefore all of the practical benefit - lives.

Both runs of a cell are also cross-checked for stat identity (the same
invariant ``tests/integration/test_vectorized_diff.py`` enforces), so a
benchmark run doubles as a differential smoke test.

Usage::

    python tools/bench_engine.py                       # quick, full matrix
    python tools/bench_engine.py --workloads HM Q      # subset
    python tools/bench_engine.py --full                # Table 2 machine
    make bench-json                                    # quick, full matrix
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from dataclasses import asdict

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from repro.harness.experiments import fig7  # noqa: E402
from repro.harness.runner import run_once  # noqa: E402


def _time_cell(spec, fast, repeat):
    """Best-of-``repeat`` wall time plus the (deterministic) RunResult."""
    best = None
    result = None
    for _ in range(repeat):
        start = time.perf_counter()
        result = run_once(
            spec.workload, spec.scheme, spec.config, spec.params, fast=fast
        )
        elapsed = time.perf_counter() - start
        if best is None or elapsed < best:
            best = elapsed
    return best, result


def bench(workloads, sizes, quick, repeat, verbose=True):
    specs = fig7.plan(quick, workloads, sizes).specs
    cells = []
    total_ref = total_fast = 0.0
    divergences = 0
    for spec in specs:
        workload, size, label = spec.workload, spec.key[1], spec.key[2]
        ref_s, ref = _time_cell(spec, False, repeat)
        fast_s, fast = _time_cell(spec, True, repeat)
        identical = asdict(ref) == asdict(fast)
        if not identical:
            divergences += 1
        total_ref += ref_s
        total_fast += fast_s
        cell = {
            "workload": workload,
            "scheme": label,
            "value_bytes": size,
            "ref_seconds": round(ref_s, 4),
            "fast_seconds": round(fast_s, 4),
            "ops_executed": ref.ops_executed,
            "ref_ops_per_sec": round(ref.ops_executed / ref_s, 1),
            "fast_ops_per_sec": round(fast.ops_executed / fast_s, 1),
            "speedup": round(ref_s / fast_s, 3),
            "identical_stats": identical,
        }
        cells.append(cell)
        if verbose:
            print(
                f"  {workload}/{label}/{size}B: ref {ref_s:.3f}s "
                f"fast {fast_s:.3f}s  {ref_s / fast_s:.2f}x"
                f"{'' if identical else '  ** STATS DIVERGE **'}",
                file=sys.stderr,
                flush=True,
            )
    return {
        "config": "quick" if quick else "full",
        "repeat": repeat,
        "schemes": list(dict.fromkeys(spec.key[2] for spec in specs)),
        "cells": cells,
        "total": {
            "ref_seconds": round(total_ref, 3),
            "fast_seconds": round(total_fast, 3),
            "speedup_time_weighted": round(total_ref / total_fast, 3),
        },
        "divergences": divergences,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--workloads", nargs="*", default=None, help="Table 3 subset (default: all)"
    )
    parser.add_argument(
        "--sizes", nargs="*", type=int, default=None, help="region value bytes"
    )
    parser.add_argument(
        "--full", action="store_true", help="full Table 2 machine (slow)"
    )
    parser.add_argument(
        "--repeat", type=int, default=1, help="timings are best-of-N (default 1)"
    )
    parser.add_argument(
        "--out", default="BENCH_engine.json", metavar="FILE", help="output path"
    )
    parser.add_argument(
        "--allow-divergence",
        action="store_true",
        help="report ref/fast stat divergences but exit 0 anyway "
        "(for bisecting; CI and make bench-json must not use this)",
    )
    args = parser.parse_args(argv)

    report = bench(
        args.workloads, args.sizes, quick=not args.full, repeat=max(1, args.repeat)
    )
    with open(args.out, "w") as fh:
        json.dump(report, fh, indent=2)
        fh.write("\n")
    total = report["total"]
    print(
        f"wrote {args.out}: {len(report['cells'])} cells, "
        f"ref {total['ref_seconds']}s fast {total['fast_seconds']}s, "
        f"time-weighted speedup {total['speedup_time_weighted']}x, "
        f"{report['divergences']} divergences"
    )
    if report["divergences"]:
        # The benchmark doubles as a differential smoke test; a divergence
        # means the elision is broken, so fail loudly and name the cells.
        bad = [c for c in report["cells"] if not c["identical_stats"]]
        print(
            f"ERROR: payload-free run diverged from the reference machine in "
            f"{len(bad)} cell(s):",
            file=sys.stderr,
        )
        for cell in bad:
            print(
                f"  {cell['workload']}/{cell['scheme']}/"
                f"{cell['value_bytes']}B",
                file=sys.stderr,
            )
        print(
            "  reproduce with: PYTHONPATH=src python -m pytest "
            "tests/integration/test_vectorized_diff.py",
            file=sys.stderr,
        )
        if not args.allow_divergence:
            return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
