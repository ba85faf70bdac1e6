"""Golden pin: a handful of benchmark cells must reproduce exactly.

Each cell's ``RunResult`` digest (sha256 of its canonical JSON, the
benchmark's definition) must equal the one recorded in
``bench/golden.json``, which this test only reads. The scheduler's
executed-event count and final clock are pinned as well, so a change to
event dispatch that kept the results but added, dropped or re-timed an
event still fails here.

Cells: every Fig. 7 scheme on HM with 64 B values and ASAP on RB with
64 B values (on both simulation cores), one 2 KB cell, and one open-loop
service cell at its top load (WPQ backpressure), all at the benchmark's
seed 42. RB/64/ASAP pins a second 64 B ASAP cell, whose write mix
differs from HM's. Each cell also runs as the harness runs it, through
:func:`~repro.harness.parallel.run_cell` on its plan spec with the
default ``RunSpec.fast`` (no inspectors), and must give the same digest.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
from pathlib import Path

import pytest

from repro.harness import runner
from repro.harness.parallel import RunSpec, run_cell
from repro.harness.experiments import fig7, serve_bench

GOLDEN = Path(__file__).resolve().parents[2] / "bench" / "golden.json"
SEED = 42
#: requests per service cell, as the benchmark's ``serve`` workload runs it
SERVE_REQUESTS = 256

#: cell -> (events executed by ``Scheduler.run``, final ``now``)
SCHEDULES = {
    "HM/64/SW": (4508, 57872),
    "HM/64/HWRedo": (4182, 47874),
    "HM/64/HWUndo": (3870, 44415),
    "HM/64/ASAP": (3681, 37513),
    "HM/64/NP": (2576, 30048),
    "RB/64/ASAP": (4896, 81128),
    "Q/2048/ASAP": (19721, 698802),
    "SVC/32.0/ASAP-Redo": (4014, 30655),
}


def _label(spec) -> str:
    return "/".join(str(part) for part in spec.key)


def _cells():
    fig7_specs = {_label(s): s for s in fig7.plan(quick=True).specs}
    serve_specs = {
        _label(s): s
        for s in serve_bench.plan(quick=True, loads=serve_bench.LOADS_FULL).specs
    }
    for label in SCHEDULES:
        if label in fig7_specs:
            yield "fig7", label, fig7_specs[label], {}
        else:
            yield "serve", label, serve_specs[label], {"requests": SERVE_REQUESTS}


CELLS = list(_cells())


def _digest(result) -> str:
    text = json.dumps(dataclasses.asdict(result), sort_keys=True)
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


@pytest.fixture(scope="module")
def golden():
    with open(GOLDEN) as fh:
        data = json.load(fh)
    assert data["seed"] == SEED
    return data


def _run(spec, overrides, fast):
    params = dataclasses.replace(spec.params, seed=SEED, **overrides)
    machine = runner.build_machine(
        spec.workload, spec.scheme, spec.config, params, fast=fast
    )
    run = machine.scheduler.run
    executed = []

    def counted_run(*args, **kwargs):
        executed.append(run(*args, **kwargs))
        return executed[-1]

    machine.scheduler.run = counted_run
    result = machine.run()
    return result, sum(executed), machine.scheduler.now


@pytest.mark.parametrize(
    "table, label, spec, overrides",
    CELLS,
    ids=[label for _table, label, _spec, _over in CELLS],
)
def test_cell_matches_golden(golden, table, label, spec, overrides):
    cores = (False, True) if "/64/" in label else (False,)
    for fast in cores:
        result, events, now = _run(spec, overrides, fast)
        assert _digest(result) == golden[table][label], (label, fast)
        assert (events, now) == SCHEDULES[label], (label, fast)


@pytest.mark.parametrize(
    "table, label, spec, overrides",
    CELLS,
    ids=[label for _table, label, _spec, _over in CELLS],
)
def test_harness_cell_matches_golden(golden, table, label, spec, overrides):
    assert spec.fast is RunSpec.fast is True
    params = dataclasses.replace(spec.params, seed=SEED, **overrides)
    cell = run_cell(dataclasses.replace(spec, params=params))
    assert _digest(cell.result) == golden[table][label], label
