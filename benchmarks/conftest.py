"""Benchmark harness configuration.

Each benchmark regenerates one of the paper's tables/figures on the
scaled-down "quick" machine, prints the paper-vs-measured table, and
asserts the paper's qualitative shape (who wins, ordering, crossovers).

Run with::

    pytest benchmarks/ --benchmark-only

Environment knobs:

* ``ASAP_BENCH_WORKLOADS`` - comma-separated Table 3 subset (default: all
  nine, exactly the paper's rows).
* ``ASAP_BENCH_FULL=1`` - use the full Table 2 machine (slow).
* ``ASAP_BENCH_JOBS=N`` - fan each figure's simulation cells out across N
  worker processes (default 1: serial). Rows are identical either way;
  only the wall time changes. The result cache is never used here - a
  benchmark that reads cached cells would time the cache, not the
  simulator.
"""

import os

import pytest

from repro.workloads import workload_names


def bench_workloads():
    env = os.environ.get("ASAP_BENCH_WORKLOADS")
    if env:
        return [w.strip() for w in env.split(",") if w.strip()]
    return workload_names()


def bench_quick() -> bool:
    return os.environ.get("ASAP_BENCH_FULL", "0") != "1"


def bench_jobs() -> int:
    return max(1, int(os.environ.get("ASAP_BENCH_JOBS", "1")))


@pytest.fixture(scope="session")
def workloads():
    return bench_workloads()


@pytest.fixture(scope="session")
def quick():
    return bench_quick()


def run_figure(benchmark, plan_fn, **kwargs):
    """Plan and execute a figure regeneration exactly once under the
    benchmark timer."""
    result = benchmark.pedantic(
        lambda: plan_fn(**kwargs).execute(jobs=bench_jobs()),
        rounds=1,
        iterations=1,
    )
    print()
    print(result.to_table())
    if "GeoMean" in result.rows:
        benchmark.extra_info.update(
            {f"geomean:{k}": round(v, 3) for k, v in result.rows["GeoMean"].items()}
        )
    return result
