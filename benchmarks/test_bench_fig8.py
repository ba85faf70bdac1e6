"""Figure 8: cycles per atomic region normalized to NP.

Paper geomeans: HWRedo 1.69x, HWUndo 1.61x, ASAP 1.08x.
"""

from benchmarks.conftest import run_figure
from repro.harness.experiments import fig8


def test_fig8(benchmark, workloads, quick):
    result = run_figure(benchmark, fig8.plan, quick=quick, workloads=workloads)
    gm = result.rows["GeoMean"]
    assert gm["SW"] > gm["HWUndo"]
    assert gm["SW"] > gm["HWRedo"]
    assert gm["HWUndo"] > gm["ASAP"]
    assert gm["HWRedo"] > gm["ASAP"]
    # asynchronous commit keeps region latency near NP's
    assert gm["ASAP"] < 1.7
