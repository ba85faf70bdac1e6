"""Figure 9a: incremental benefit of ASAP's traffic optimizations.

Paper: +C saves ~8%, +LP a further ~33%, +DP a further ~31%.
"""

from benchmarks.conftest import run_figure
from repro.harness.experiments import fig9a


def test_fig9a(benchmark, workloads, quick):
    result = run_figure(benchmark, fig9a.plan, quick=quick, workloads=workloads)
    gm = result.rows["GeoMean"]
    assert gm["ASAP-No-Opt"] > gm["ASAP+C"] > gm["ASAP+C+LP"] >= gm["ASAP"]
    # Q gains the most from DPO dropping (Sec. 7.2's callout)
    if "Q" in result.rows:
        q_gain = result.rows["Q"]["ASAP+C+LP"] / result.rows["Q"]["ASAP"]
        assert q_gain > 1.3
