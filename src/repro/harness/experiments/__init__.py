"""One module per reproduced table/figure; see DESIGN.md's experiment index."""

from repro.harness.experiments import (
    ablations,
    area,
    corun,
    eadr_cmp,
    extension,
    fig1,
    fig7,
    fig8,
    fig9a,
    fig9b,
    fig10,
    fig10_overlap,
    lhwpq,
    numa,
    serve_bench,
)

#: experiment name -> plan(quick=..., workloads=...) returning a Plan whose
#: execute(jobs=..., cache=..., progress=..., sanitize=...) yields an
#: ExperimentResult or a list of them
REGISTRY = {
    "fig1": fig1.plan,
    "fig7": fig7.plan,
    "fig8": fig8.plan,
    "fig9a": fig9a.plan,
    "fig9b": fig9b.plan,
    "fig10": fig10.plan,
    "fig10_overlap": fig10_overlap.plan,
    "lhwpq": lhwpq.plan,
    "area": area.plan,
    "ablations": ablations.plan,
    "extension": extension.plan,
    "numa": numa.plan,
    "corun": corun.plan,
    "eadr": eadr_cmp.plan,
    "serve-bench": serve_bench.plan,
}

__all__ = ["REGISTRY"]
