"""Section 7.4: sensitivity to LH-WPQ size.

Paper: a 16-entry LH-WPQ runs ASAP at 0.78x of the 128-entry config, yet
still outperforms HWUndo (1.10x) and HWRedo (1.18x).
"""

from benchmarks.conftest import run_figure
from repro.harness.experiments import lhwpq


def test_lhwpq(benchmark, workloads, quick):
    result = run_figure(benchmark, lhwpq.plan, quick=quick, workloads=workloads)
    gm = result.rows["GeoMean"]
    # shrinking the LH-WPQ costs something but not everything...
    assert 0.3 < gm["ASAP16/ASAP128"] < 1.02
    # ...and small-ASAP still beats the full-size sync baselines
    assert gm["ASAP16/HWUndo"] > 1.0
    assert gm["ASAP16/HWRedo"] > 1.0
