"""Section 6.2: hardware area overhead (Table 2 machine).

Paper: ~2.5% total (<3%), split 0.8% core / 1.7% uncore by McPAT.
"""

from benchmarks.conftest import run_figure
from repro.harness.experiments import area


def test_area(benchmark):
    result = run_figure(benchmark, area.plan)
    cells = result.rows["measured"]
    assert cells["total %"] < 3.0
