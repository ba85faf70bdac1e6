"""Figure 9b: PM write traffic across schemes, normalized to ASAP.

Paper geomeans (normalized to ASAP): SW 2.56x, HWUndo 1.92x, HWRedo 1.61x.
"""

from benchmarks.conftest import run_figure
from repro.harness.experiments import fig9b


def test_fig9b(benchmark, workloads, quick):
    result = run_figure(benchmark, fig9b.plan, quick=quick, workloads=workloads)
    gm = result.rows["GeoMean"]
    # ASAP generates the least PM write traffic; SW the most; redo beats
    # undo (its DRAM-filtered post-commit DPOs) - the paper's ordering
    assert gm["SW"] > gm["HWUndo"] > 1.0
    assert gm["SW"] > gm["HWRedo"] > 1.0
