"""Sec. 7.3's NUMA suitability claim, quantified (extension experiment)."""

from benchmarks.conftest import run_figure
from repro.harness.experiments import numa


def test_numa(benchmark, quick):
    result = run_figure(benchmark, numa.plan, quick=quick)
    gm = result.rows["GeoMean"]
    # ASAP is markedly more robust to remote persist latency than the
    # synchronous-commit schemes at every remote multiplier...
    for m in (1, 4, 16):
        assert gm[f"ASAP@{m}x"] > 1.3 * gm[f"HWUndo@{m}x"], m
        assert gm[f"ASAP@{m}x"] > 1.3 * gm[f"HWRedo@{m}x"], m
    # ...and its advantage widens as the remote node slows down
    assert (gm["ASAP@4x"] / gm["HWUndo@4x"]) > (gm["ASAP@1x"] / gm["HWUndo@1x"])
