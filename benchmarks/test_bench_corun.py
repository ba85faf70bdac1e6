"""The Sec. 1 co-run/lifetime claim: traffic optimizations pay off under
bandwidth contention (extension experiment)."""

from benchmarks.conftest import run_figure
from repro.harness.experiments import corun


def test_corun(benchmark, quick):
    result = run_figure(benchmark, corun.plan, quick=quick)
    gm = result.rows["GeoMean"]
    # without the Sec. 5.1 optimizations, co-run throughput drops and PM
    # write volume (inverse lifetime) balloons
    assert gm["throughput"] < 0.98
    assert gm["PM writes"] > 1.5
    assert gm["lifetime proxy"] < 0.7
    # multi-tenant mix: the batch tenant's extra no-opt log traffic queues
    # ahead of the service tenant's persists, so the open-loop tenant pays
    # in tail latency too (docs/SERVICE.md)
    mix = result.rows["SVC+HM no-opt"]
    assert mix["throughput"] < 0.98
    assert mix["PM writes"] > 1.5
    assert mix["svc p99"] > 1.2
