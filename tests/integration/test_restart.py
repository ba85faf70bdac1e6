"""Restart-after-recovery: continue a workload on a recovered image."""

import pytest

from repro.harness.fuzz import FuzzCase, build_machine, clean_run, crash_cycles
from repro.recovery import crash_machine, recover, verify_recovery

PARAMS = dict(num_threads=3, ops_per_thread=12, value_bytes=128, setup_items=16)


def case(scheme="asap"):
    return FuzzCase(scheme, [], wpq_entries=16, workload="SS", workload_params=PARAMS)


def build(scheme="asap"):
    machine = build_machine(case(scheme))
    return machine, machine.workloads[0]


@pytest.mark.parametrize("scheme", ["asap", "asap_redo"])
def test_restart_continues_from_recovered_state(scheme):
    _failures, total = clean_run(case(scheme))
    machine, workload = build(scheme)
    state = crash_machine(machine, at_cycle=crash_cycles(total, points=1)[0])
    image, _ = recover(state)
    assert verify_recovery(machine, image).ok

    machine2, workload2 = build(scheme)
    machine2.adopt_image(image)
    result = machine2.run()
    assert result.regions_completed == PARAMS["num_threads"] * PARAMS["ops_per_thread"]
    # still a valid permutation of the original strings, and the durable
    # view matches the committed view
    assert workload2.validate_image(machine2.pm_image) == []
    assert machine2.oracle.mismatches(machine2.pm_image) == []


def test_restart_can_crash_and_recover_again():
    """Two back-to-back crash cycles: recovery composes."""
    _failures, total = clean_run(case())
    at = crash_cycles(total, points=2)[0]
    machine, _ = build()
    state = crash_machine(machine, at_cycle=at)
    image, _ = recover(state)

    machine2, workload2 = build()
    machine2.adopt_image(image)
    state2 = crash_machine(machine2, at_cycle=at)
    image2, _ = recover(state2)
    assert verify_recovery(machine2, image2).ok
    assert workload2.validate_image(image2) == []


def test_adopt_image_overwrites_all_views():
    machine, _ = build()
    from repro.mem.image import MemoryImage

    # one word on a line the workload bootstrapped, one on a fresh line:
    # an adopted line replaces the whole line, zeros included
    bootstrapped = min(base for base, _words in machine.volatile.lines())
    fresh = machine.config.address_space.pm_base + (1 << 30)
    img = MemoryImage()
    img.write_word(bootstrapped + 8, 777)
    img.write_word(fresh, 778)
    before = dict(machine.volatile.lines())
    machine.adopt_image(img)
    views = [machine.volatile, machine.pm_image, machine.oracle.committed]
    for view in views:
        assert view.read_word(bootstrapped + 8) == 777
        assert view.read_word(fresh) == 778
    expected = {**before, **dict(img.lines())}
    for view in views:
        assert dict(view.lines()) == expected, view.name
