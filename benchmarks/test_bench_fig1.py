"""Figure 1: overhead of LPOs and DPOs in a software approach.

Paper geomeans: DPO Only 0.58x, LPO & DPO 0.31x of NP throughput.
"""

from benchmarks.conftest import run_figure
from repro.harness.experiments import fig1


def test_fig1(benchmark, workloads, quick):
    result = run_figure(benchmark, fig1.plan, quick=quick, workloads=workloads)
    gm = result.rows["GeoMean"]
    assert gm["DPO Only"] < 1.0
    assert gm["LPO & DPO"] < gm["DPO Only"]
