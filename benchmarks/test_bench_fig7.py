"""Figure 7: speedup over SW at 64B and 2KB regions.

Paper geomeans: HWRedo 1.49x, HWUndo 1.60x, ASAP 2.25x, NP 2.34x.
"""

from benchmarks.conftest import run_figure
from repro.harness.experiments import fig7


def test_fig7(benchmark, workloads, quick):
    result = run_figure(benchmark, fig7.plan, quick=quick, workloads=workloads)
    gm = result.rows["GeoMean"]
    # every hardware scheme beats SW; ASAP beats both sync-commit schemes;
    # NP bounds ASAP from above (within measurement slack)
    assert gm["HWRedo"] > 1.0 and gm["HWUndo"] > 1.0
    assert gm["ASAP"] > gm["HWRedo"]
    assert gm["ASAP"] > gm["HWUndo"]
    assert gm["NP"] >= gm["ASAP"] * 0.95
