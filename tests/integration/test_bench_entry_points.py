"""The simulator calls the benchmark driver makes, pinned in tier-1.

``bench/measure.py`` builds and times machines through these calls and
the suite does not collect ``bench/``, so a renamed argument or field
would otherwise first break there: ``runner.build_machine(..., fast=)``,
``dataclasses.replace(spec, fast=...)`` on a ``fig7.plan()`` spec,
``Machine(config, scheme)``, ``fuzz.build_machine(case)`` and the fuzz
module functions the driver wraps.
"""

import dataclasses

import pytest

from repro.harness import fuzz, runner
from repro.harness.experiments import fig7, serve_bench
from repro.persist import make_scheme
from repro.sim.machine import Machine


@pytest.fixture(scope="module")
def spec():
    return fig7.plan(quick=True).specs[0]


@pytest.mark.parametrize("fast", [True, False])
def test_build_machine_fast_switch(spec, fast):
    machine = runner.build_machine(
        spec.workload, spec.scheme, spec.config, spec.params, fast=fast
    )
    assert isinstance(machine, Machine)
    assert (machine.oracle is None) is fast
    assert machine.run().regions_completed > 0


def test_plan_specs_take_a_fast_replace(spec):
    params = dataclasses.replace(spec.params, seed=7)
    for fast in (True, False):
        assert dataclasses.replace(spec, params=params, fast=fast).fast is fast
    serve = serve_bench.plan(quick=True, loads=serve_bench.LOADS_FULL).specs[0]
    replaced = dataclasses.replace(
        serve, params=dataclasses.replace(serve.params, seed=7, requests=16)
    )
    assert replaced.params.requests == 16


def test_machine_takes_config_and_scheme(spec):
    machine = Machine(spec.config, make_scheme(spec.scheme))
    assert machine.oracle is None and machine.run().cycles == 0


def test_fuzz_build_machine_is_inspected():
    case = fuzz.FuzzCase(
        "asap",
        threads=[],
        wpq_entries=16,
        workload="Q",
        workload_params=dict(num_threads=2, ops_per_thread=4, setup_items=8),
    )
    machine = fuzz.build_machine(case)
    assert machine.oracle is not None and machine.pm_image is not None
    assert fuzz.check_no_crash(case, machine) == []
    for name in (
        "build_machine", "check_no_crash", "check_crash",
        "crash_machine", "recover", "verify_recovery", "run_fuzz",
    ):
        assert callable(getattr(fuzz, name)), name
