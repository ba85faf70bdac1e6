"""Section 7.4: sensitivity to LH-WPQ size.

ASAP with a 16-entry LH-WPQ per channel vs the default 128 entries. The
paper finds the small configuration runs at 0.78x of the large one - and
still outperforms HWUndo (1.10x) and HWRedo (1.18x) with their full-size
metadata structures.

The ASAP size sweep itself is owned by the design-space exploration
subsystem: the big/small configurations come from a one-axis
:class:`~repro.explore.space.SweepSpace` over ``lh_wpq_entries`` and its
cells from :func:`~repro.explore.engine.point_specs`, so this module only
re-keys them for its table and adds the two fixed-size sync baselines.
A wider version of the same sweep is one command away::

    asap-repro explore --axis lh_wpq_entries=1,4,16,64,128 --workloads HM Q
"""

from __future__ import annotations

from dataclasses import replace

from repro.explore.engine import point_specs
from repro.explore.space import SweepSpace
from repro.harness.experiment import ExperimentResult
from repro.harness.parallel import Plan, cell_matrix
from repro.harness.runner import default_config, default_params
from repro.workloads import workload_names

PAPER = {
    "ASAP16/ASAP128": 0.78,
    "ASAP16/HWUndo": 1.10,
    "ASAP16/HWRedo": 1.18,
}

#: the shrunken LH-WPQ: 1 entry/channel so the structural stall appears
#: within short quick-mode runs (the full Table 2 machine uses 16 vs 128)
SMALL_LH_WPQ = 1


def plan(quick: bool = True, workloads=None) -> Plan:
    workloads = list(workloads or workload_names())
    config = default_config(quick)
    params = default_params(quick)

    big_entries = config.asap.lh_wpq_entries
    space = SweepSpace.build(
        axes={"lh_wpq_entries": [big_entries, SMALL_LH_WPQ]},
        workloads=workloads,
        scheme="asap",
    )
    labels = {
        space.point(lh_wpq_entries=big_entries): "big",
        space.point(lh_wpq_entries=SMALL_LH_WPQ): "small",
    }
    specs = [
        # point_specs keys cells as (point, workload); re-key to this
        # table's (workload, label) without touching what gets simulated
        replace(spec, key=(spec.key[1], labels[spec.key[0]]))
        for spec in point_specs(space, list(labels), config=config, params=params)
    ]
    specs += cell_matrix(
        [((name,), name, config, params) for name in workloads],
        [("hwundo", "hwundo"), ("hwredo", "hwredo")],
    )

    def assemble(cells) -> ExperimentResult:
        result = ExperimentResult(
            exp_id="Sec. 7.4",
            title="Sensitivity to LH-WPQ size (throughput ratios)",
            columns=["ASAP16/ASAP128", "ASAP16/HWUndo", "ASAP16/HWRedo"],
            paper={"paper": PAPER},
            notes="quick mode shrinks the small LH-WPQ to 1 entry/channel so "
            "the structural stall appears within short runs (the full "
            "Table 2 machine uses 16 vs 128)",
        )
        for name in workloads:
            big = cells[(name, "big")].result
            small = cells[(name, "small")].result
            hwundo = cells[(name, "hwundo")].result
            hwredo = cells[(name, "hwredo")].result
            result.add_row(
                name,
                **{
                    "ASAP16/ASAP128": small.throughput / big.throughput,
                    "ASAP16/HWUndo": small.throughput / hwundo.throughput,
                    "ASAP16/HWRedo": small.throughput / hwredo.throughput,
                },
            )
        result.geomean_row()
        return result

    return Plan(specs, assemble)
