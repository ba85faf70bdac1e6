"""The experiment harness: regenerate every table and figure.

Each experiment module exports one function, ``plan(quick=...,
workloads=...)``, returning a :class:`~repro.harness.parallel.Plan`: its
run matrix as a list of :class:`~repro.harness.parallel.RunSpec` cells
plus an ``assemble`` step. ``plan(...).execute(jobs=..., cache=...,
sanitize=...)`` yields an
:class:`~repro.harness.experiment.ExperimentResult` whose rows mirror the
paper's plot series, plus the paper's reference numbers so the output
reads as a paper-vs-measured comparison. Cells execute serially or across
a process pool (:func:`~repro.harness.parallel.execute`) with an optional
content-addressed on-disk cache
(:class:`~repro.harness.parallel.ResultCache`). The CLI
(``python -m repro.harness.run <experiment>`` or the installed
``asap-repro`` script) prints them as text tables; see docs/HARNESS.md.
"""

from repro.harness.experiment import ExperimentResult, geomean
from repro.harness.parallel import (
    CellResult,
    Plan,
    ResultCache,
    RunSpec,
    execute,
    run_cell,
)
from repro.harness.runner import default_config, default_params, run_once

__all__ = [
    "ExperimentResult",
    "geomean",
    "run_once",
    "default_config",
    "default_params",
    "RunSpec",
    "CellResult",
    "Plan",
    "ResultCache",
    "execute",
    "run_cell",
]
