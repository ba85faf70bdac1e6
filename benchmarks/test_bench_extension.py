"""Extension: undo-ASAP vs the Fig. 2c redo-ASAP variant."""

from benchmarks.conftest import run_figure
from repro.harness.experiments import extension


def test_extension(benchmark, workloads, quick):
    result = run_figure(benchmark, extension.plan, quick=quick, workloads=workloads)
    gm = result.rows["GeoMean"]
    # the paper's Sec. 3 design rationale: with asynchronous commit, undo
    # logging is at least as fast and far cheaper in PM traffic
    assert gm["redo throughput"] <= 1.05
    assert gm["redo traffic"] > 1.5
