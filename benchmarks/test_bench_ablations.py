"""Design-choice ablations (DESIGN.md's extension index): DPO distance,
WPQ capacity, and the Sec. 5.3 Bloom-filter/spill path."""

from benchmarks.conftest import run_figure
from repro.harness.experiments import ablations


def test_dpo_distance(benchmark):
    result = run_figure(benchmark, ablations.plan_dpo_distance)
    dpos = result.rows["DPOs initiated"]
    # d=1 issues many more DPOs; beyond 2 the curve is flat (the paper's
    # "no benefit beyond four")
    assert dpos["d=1"] > 1.3
    assert abs(dpos["d=8"] - dpos["d=4"]) < 0.15


def test_wpq_capacity(benchmark):
    result = run_figure(benchmark, ablations.plan_wpq_size)
    asap = result.rows["ASAP"]
    # ASAP sustains throughput with a 2-entry persistence-domain buffer
    assert asap["wpq=2"] > 0.95 * asap["wpq=32"]
    # and stays above the synchronous baselines at every size
    for col in asap:
        assert asap[col] > result.rows["HWUNDO"][col]
        assert asap[col] > result.rows["SW"][col]


def test_bloom_filter(benchmark):
    result = run_figure(benchmark, ablations.plan_bloom)
    good = result.rows["1KB filter"]
    bad = result.rows["1-bit filter"]
    # the spill path fires and the buffer finds the owners
    assert good["spills"] > 0
    assert good["hits"] == bad["hits"]
    # the 1 KB filter screens reload probes; a degenerate one wastes many
    assert good["false positives"] < bad["false positives"]
    assert bad["false positives"] > 50


def test_fence_batching(benchmark):
    result = run_figure(benchmark, ablations.plan_fence_batching)
    row = result.rows["throughput"]
    # per-region fencing forfeits most of the async-commit win; batching
    # recovers it (Sec. 5.2's guidance)
    assert row["every 1"] < 0.7
    assert row["every 4"] > row["every 1"]
    assert row["every 16"] > 0.9
