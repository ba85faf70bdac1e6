"""Ext. 4: ASAP vs idealized eADR - performance parity without the
battery (the paper's Sec. 8 argument)."""

from benchmarks.conftest import run_figure
from repro.harness.experiments import eadr_cmp


def test_eadr(benchmark, workloads, quick):
    result = run_figure(benchmark, eadr_cmp.plan, quick=quick, workloads=workloads)
    gm = result.rows["GeoMean"]
    # ASAP achieves eADR's (= near-NP) performance...
    assert gm["ASAP/eADR throughput"] > 0.9
    # ...without battery-backing the whole cache hierarchy
    assert "x less" in result.notes
