"""The inspection contract.

A machine is built without the PM image and the commit oracle;
:meth:`~repro.sim.machine.Machine.inspect` attaches both, once, before
anything has been written, subscribed or run. Crash and verify refuse a
machine that was never inspected, and the attached PM image applies each
drained payload at its drain, before any later subscriber sees it.
"""

import pytest

from repro.common.errors import SimulationError
from repro.common.observe import SimObserver
from repro.common.params import SystemConfig
from repro.harness.runner import build_machine, default_config, default_params
from repro.mem.wpq import LOGHDR
from repro.persist import make_scheme
from repro.recovery import crash_machine, verify_recovery
from repro.sim.machine import Machine
from repro.sim.ops import Begin, End, Write


def _machine() -> Machine:
    return Machine(SystemConfig.small(), make_scheme("asap"))


def _write_one(machine: Machine) -> None:
    cell = machine.heap.alloc(64)

    def worker(env):
        yield Begin()
        yield Write(cell, [7])
        yield End()

    machine.spawn(worker)


def test_a_new_machine_is_uninspected():
    machine = _machine()
    assert machine.pm_image is None and machine.oracle is None
    assert machine.observers == []


def test_inspect_returns_the_machine_and_attaches_both():
    machine = _machine()
    assert machine.inspect() is machine
    assert machine.pm_image is not None
    assert machine.observers[1] is machine.oracle


def _bootstrap(machine):
    machine.bootstrap_write(machine.heap.alloc(64), [1])


def _observe(machine):
    machine.observe(SimObserver())


def _run(machine):
    machine.run()


def _inspect(machine):
    machine.inspect()


@pytest.mark.parametrize(
    "first", [_bootstrap, _observe, _run, _inspect],
    ids=["after-bootstrap_write", "after-observe", "after-run", "twice"],
)
def test_inspect_raises_once_the_machine_is_touched(first):
    machine = _machine()
    first(machine)
    with pytest.raises(SimulationError, match=r"inspect\(\) must come once"):
        machine.inspect()


def test_spawn_and_locks_before_inspect_are_wired():
    machine = _machine()
    _write_one(machine)
    machine.new_lock("early")
    machine.inspect()
    assert all(e.observer is machine.oracle for e in machine.executors)
    machine.run()
    assert len(machine.oracle.committed_rids) == 1
    assert machine.oracle.mismatches(machine.pm_image) == []


def test_crash_and_verify_name_inspect_on_an_uninspected_machine():
    machine = _machine()
    _write_one(machine)
    with pytest.raises(SimulationError, match=r"machine\.inspect\(\)"):
        crash_machine(machine, at_cycle=1)
    inspected = _machine().inspect()
    _write_one(inspected)
    image = crash_machine(inspected, at_cycle=1).pm_image
    with pytest.raises(SimulationError, match=r"machine\.inspect\(\)"):
        verify_recovery(machine, image)


class _HeaderDrains(SimObserver):
    """Reads the PM image at each log-header drain: subscribed after
    :meth:`Machine.inspect`, it runs after the image took the payload."""

    def __init__(self, machine):
        self.machine = machine
        self.checked = 0

    def wpq_drained(self, wpq, op):
        if op.kind != LOGHDR:
            return
        pm = self.machine.pm_image
        for addr, values in op.materialized_payload():
            assert pm.read_words(addr, len(values)) == list(values), hex(addr)
        self.checked += 1


@pytest.mark.parametrize("scheme", ["asap_redo", "sw"])
def test_pm_image_holds_each_log_header_as_at_its_drain(scheme):
    machine = build_machine("HM", scheme, default_config(), default_params())
    drains = machine.observe(_HeaderDrains(machine))
    machine.run()
    assert drains.checked > 0
    assert machine.oracle.mismatches(machine.pm_image) == []
