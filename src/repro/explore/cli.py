"""``asap-repro explore`` - the design-space exploration subcommand.

Examples::

    # 2-axis grid over two workloads, 4 workers, markdown report
    asap-repro explore --axis lh_wpq_entries=4,16,64 \\
        --axis dep_list_entries=8,32 --workloads HM Q --jobs 4

    # the same space from a JSON file, with JSON/CSV artifacts
    asap-repro explore --space sweep.json --json out.json --csv out.csv

    # seeded random sampling, then adaptive refinement
    asap-repro explore --space sweep.json --driver random --samples 12
    asap-repro explore --space sweep.json --driver refine --rounds 4

Determinism contract: the markdown/JSON/CSV outputs are byte-identical
for any ``--jobs`` value and any cache state; ``--require-cache-rate R``
additionally fails the run when fewer than ``R`` of the cells came from
the result cache (CI uses it to prove warm-sweep behaviour).
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Dict, List

from repro.common.errors import ConfigError, ReproError
from repro.explore.analysis import analyze
from repro.explore.drivers import DRIVERS, make_driver
from repro.explore.engine import OBJECTIVES, explore
from repro.explore.report import to_csv, to_json, to_markdown
from repro.explore.space import SweepSpace
from repro.harness.parallel import (
    add_execution_flags,
    cache_from_args,
    progress_from_args,
)


def _parse_value(text: str):
    """An axis value from the command line: int, float, or bool."""
    lowered = text.strip().lower()
    if lowered in ("true", "false"):
        return lowered == "true"
    try:
        return int(text)
    except ValueError:
        pass
    try:
        return float(text)
    except ValueError:
        raise ConfigError(f"cannot parse axis value {text!r}")


def _parse_axis_flags(flags: List[str]) -> Dict[str, list]:
    """``name=v1,v2,...`` flags into the space's axes mapping."""
    axes: Dict[str, list] = {}
    for flag in flags:
        name, sep, values = flag.partition("=")
        if not sep or not values:
            raise ConfigError(
                f"--axis wants name=v1,v2,... , got {flag!r}"
            )
        axes[name.strip()] = [_parse_value(v) for v in values.split(",")]
    return axes


def _parse_baseline_flags(flags: List[str]) -> Dict[str, object]:
    out: Dict[str, object] = {}
    for flag in flags:
        name, sep, value = flag.partition("=")
        if not sep:
            raise ConfigError(f"--baseline wants name=value, got {flag!r}")
        out[name.strip()] = _parse_value(value)
    return out


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="asap-repro explore",
        description="Explore the hardware design space of the ASAP model",
    )
    src = parser.add_argument_group("sweep space")
    src.add_argument(
        "--space",
        metavar="FILE",
        help="JSON sweep-space file (axes/workloads/scheme/baseline); "
        "--axis/--workloads flags override its fields",
    )
    src.add_argument(
        "--axis",
        action="append",
        default=[],
        metavar="NAME=V1,V2,...",
        help="add a sweep axis (repeatable); names as in "
        "'asap-repro explore --list-axes'",
    )
    src.add_argument(
        "--workloads",
        nargs="*",
        default=None,
        help="Table 3 workloads to evaluate at every point",
    )
    src.add_argument("--scheme", default=None, help="persistence scheme (default asap)")
    src.add_argument(
        "--baseline",
        action="append",
        default=[],
        metavar="NAME=VALUE",
        help="fixed axis value applied to every point (repeatable)",
    )
    search = parser.add_argument_group("search")
    search.add_argument(
        "--driver",
        default="grid",
        choices=sorted(DRIVERS),
        help="search strategy (default grid)",
    )
    search.add_argument(
        "--objective",
        default="throughput",
        choices=sorted(OBJECTIVES),
        help="optimisation target (default throughput)",
    )
    search.add_argument(
        "--samples", type=int, default=16, help="random driver: points to draw"
    )
    search.add_argument(
        "--rounds", type=int, default=4, help="refine driver: refinement rounds"
    )
    search.add_argument(
        "--seed", type=int, default=0, help="random driver: RNG seed"
    )
    execu = parser.add_argument_group("execution")
    add_execution_flags(execu)
    execu.add_argument(
        "--require-cache-rate", type=float, default=None, metavar="R",
        help="exit 1 unless at least R (0..1) of the cells were served "
        "from the result cache",
    )
    out = parser.add_argument_group("output")
    out.add_argument("--json", metavar="FILE", help="write the full report as JSON")
    out.add_argument("--csv", metavar="FILE", help="write per-point rows as CSV")
    out.add_argument(
        "--list-axes", action="store_true",
        help="print every sweepable axis (with defaults) and exit",
    )
    return parser


def _list_axes() -> str:
    from repro.common.params import AXIS_ALIASES, sweepable_axes

    lines = ["sweepable axes (canonical name, type, default):"]
    for name, target in sorted(sweepable_axes().items()):
        lines.append(
            f"  {name:<36s} {target.kind.__name__:<6s} {target.default}"
        )
    lines.append("aliases:")
    for alias, canonical in sorted(AXIS_ALIASES.items()):
        lines.append(f"  {alias:<36s} -> {canonical}")
    lines.append(
        "bare field names (e.g. lh_wpq_entries) resolve when unambiguous"
    )
    return "\n".join(lines)


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.list_axes:
        print(_list_axes())
        return 0

    try:
        file_spec: dict = {}
        if args.space:
            with open(args.space) as fh:
                file_spec = json.load(fh)
        axes = dict(file_spec.get("axes", {}))
        axes.update(_parse_axis_flags(args.axis))
        workloads = args.workloads or file_spec.get("workloads") or []
        baseline = dict(file_spec.get("baseline", {}))
        baseline.update(_parse_baseline_flags(args.baseline))
        scheme = args.scheme or file_spec.get("scheme", "asap")
        if not axes:
            parser.error("no axes: pass --axis NAME=V1,V2 or --space FILE")
        if not workloads:
            parser.error("no workloads: pass --workloads or --space FILE")
        space = SweepSpace.build(
            axes=axes, workloads=workloads, scheme=scheme, baseline=baseline
        )

        driver_kwargs = {}
        if args.driver == "random":
            driver_kwargs = dict(samples=args.samples, seed=args.seed)
        elif args.driver == "refine":
            driver_kwargs = dict(rounds=args.rounds)
        driver = make_driver(args.driver, **driver_kwargs)

        result = explore(
            space,
            driver,
            objective=args.objective,
            quick=not args.full,
            jobs=max(1, args.jobs),
            cache=cache_from_args(args),
            progress=progress_from_args(args, "explore"),
            sanitize=args.sanitize,
        )
    except ReproError as exc:
        print(f"explore: {exc}", file=sys.stderr)
        return 2

    analysis = analyze(result)
    print(to_markdown(result, analysis), end="")
    if args.json:
        with open(args.json, "w") as fh:
            fh.write(to_json(result, analysis))
        print(f"wrote {args.json}", file=sys.stderr)
    if args.csv:
        with open(args.csv, "w") as fh:
            fh.write(to_csv(result, analysis))
        print(f"wrote {args.csv}", file=sys.stderr)

    total_cells = len(result.outcomes) * len(space.workloads)
    cached_cells = sum(o.cached_cells for o in result.outcomes)
    rate = cached_cells / total_cells if total_cells else 0.0
    print(
        f"  [{total_cells} cells, {cached_cells} from cache "
        f"({rate * 100:.0f}%)]",
        file=sys.stderr,
    )
    if args.require_cache_rate is not None and rate < args.require_cache_rate:
        print(
            f"explore: cache rate {rate:.2f} below required "
            f"{args.require_cache_rate:.2f}",
            file=sys.stderr,
        )
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
