"""Figure 10: throughput sensitivity to PM latency (1x..16x).

Paper shape: ASAP tracks NP across the sweep; both synchronous-commit
schemes degrade; HWUndo is the most latency-sensitive.
"""

from benchmarks.conftest import run_figure
from repro.harness.experiments import fig10


def test_fig10(benchmark, workloads, quick):
    result = run_figure(benchmark, fig10.plan, quick=quick, workloads=workloads)
    gm = result.rows["GeoMean"]
    for m in (1, 2, 4, 16):
        assert gm[f"ASAP@{m}x"] > gm[f"HWUndo@{m}x"], m
        assert gm[f"ASAP@{m}x"] > gm[f"HWRedo@{m}x"], m
    # ASAP robust: loses little of its NP-relative standing from 1x to 16x
    assert gm["ASAP@16x"] > 0.5 * gm["ASAP@1x"]
    # the sync schemes fall away from NP as PM slows
    assert gm["HWUndo@16x"] < gm["HWUndo@1x"]
