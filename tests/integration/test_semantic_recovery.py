"""Semantic recovery: recovered images must be *valid data structures*.

Word-level equality with the oracle is one guarantee; these tests walk
the recovered structure from its persistent roots and check the data
structure's own invariants (BST ordering, red-black properties, chain
hashing, queue reachability, TPC-C row constraints...). Every atomic
region moves the structure between valid states, so any dependence-
consistent prefix must validate.

Each validator is also exercised negatively - corrupting one word of a
healthy image must trip it - so a passing run is meaningful.
"""

import pytest

from repro.common.params import SystemConfig
from repro.harness.fuzz import FuzzCase, clean_run, crash_cycles, crash_sweep
from repro.persist import make_scheme
from repro.recovery import crash_machine
from repro.sim.machine import Machine
from repro.workloads import WorkloadParams, get_workload, workload_names

PARAMS = dict(num_threads=3, ops_per_thread=15, setup_items=24)


def fresh(name, **small_kwargs):
    machine = Machine(SystemConfig.small(**small_kwargs), make_scheme("asap")).inspect()
    workload = get_workload(name, WorkloadParams(**PARAMS))
    machine.install(workload)
    return machine, workload


@pytest.mark.parametrize("name", workload_names())
def test_final_pm_image_is_valid_structure(name):
    machine, workload = fresh(name)
    machine.run()
    assert workload.validate_image(machine.pm_image) == []
    assert workload.validate_image(machine.volatile) == []


@pytest.mark.parametrize("name", workload_names())
def test_recovered_image_is_valid_structure(name):
    # the fuzzer's crash check runs the workload's validators on every
    # recovered image that matches the oracle
    case = FuzzCase("asap", [], wpq_entries=16, workload=name, workload_params=PARAMS)
    _failures, total = clean_run(case)
    for check in crash_sweep(case, crash_cycles(total, fracs=(0.35, 0.7))):
        assert not check.problems, (name, check.failures)


def test_unrecovered_crash_image_is_sometimes_invalid():
    """Sanity: recovery is *doing* something. Scanning a short queue run
    densely, at least one crash point must leave the raw (unrecovered) PM
    image word-level inconsistent with the oracle - the queue's hot anchor
    lines put committed values into uncommitted regions' logs via DPO
    dropping, so raw images go stale whenever a region is in flight."""
    from repro.recovery import verify_recovery

    params = WorkloadParams(num_threads=2, ops_per_thread=8, setup_items=8)

    def build():
        machine = Machine(SystemConfig.small(), make_scheme("asap")).inspect()
        workload = get_workload("Q", params)
        machine.install(workload)
        return machine

    total = build().run().cycles
    dirty_points = 0
    for cycle in range(100, total, max(50, total // 60)):
        machine = build()
        state = crash_machine(machine, at_cycle=cycle)
        raw = verify_recovery(machine, state.pm_image)
        if not raw.ok:
            dirty_points += 1
    assert dirty_points > 0, "every raw crash image was already consistent?"


# -- negative controls: each validator detects corruption -------------------


def _corrupt_word(image, addr, value=0xDEAD):
    image.write_word(addr, value)


def test_bn_validator_detects_bad_key():
    machine, workload = fresh("BN")
    machine.run()
    root = machine.pm_image.read_word(workload.root_cell)
    _corrupt_word(machine.pm_image, root)  # clobber the root's key
    assert workload.validate_image(machine.pm_image) != []


def test_hm_validator_detects_wrong_bucket():
    machine, workload = fresh("HM")
    machine.run()
    from repro.workloads.hashmap import _NUM_BUCKETS
    for b in range(_NUM_BUCKETS):
        head = machine.pm_image.read_word(workload.bucket_base + b * 64)
        if head:
            _corrupt_word(machine.pm_image, head, value=1)  # key 1 -> wrong hash
            break
    assert workload.validate_image(machine.pm_image) != []


def test_q_validator_detects_broken_chain():
    machine, workload = fresh("Q")
    machine.run()
    head = machine.pm_image.read_word(workload.head_cell)
    _corrupt_word(machine.pm_image, head, value=0)  # sever head's next ptr
    assert workload.validate_image(machine.pm_image) != []


def test_rb_validator_detects_red_root():
    machine, workload = fresh("RB")
    machine.run()
    root = machine.pm_image.read_word(workload.root_cell)
    _corrupt_word(machine.pm_image, root + 32, value=0)  # color word -> RED
    assert workload.validate_image(machine.pm_image) != []


def test_ss_validator_detects_torn_string():
    machine, workload = fresh("SS")
    machine.run()
    _corrupt_word(machine.pm_image, workload.base)  # slot 0, word 0
    assert workload.validate_image(machine.pm_image) != []


def test_tpcc_validator_detects_bad_stock():
    machine, workload = fresh("TPCC")
    machine.run()
    _corrupt_word(machine.pm_image, workload.stock_base, value=100000)
    assert workload.validate_image(machine.pm_image) != []


def test_eo_validator_detects_future_timestamp():
    machine, workload = fresh("EO")
    machine.run()
    from repro.workloads.echo import _NUM_BUCKETS
    for b in range(_NUM_BUCKETS):
        entry = machine.pm_image.read_word(workload.bucket_base + b * 64)
        if entry:
            version = machine.pm_image.read_word(entry + 8)
            _corrupt_word(machine.pm_image, version, value=1 << 40)  # ts beyond clock
            break
    assert workload.validate_image(machine.pm_image) != []


def test_bt_validator_detects_unsorted_node():
    machine, workload = fresh("BT")
    machine.run()
    root = machine.pm_image.read_word(workload.root_cell)
    count = machine.pm_image.read_word(root)
    if count >= 2:
        _corrupt_word(machine.pm_image, root + 8, value=1 << 61)  # first key huge
    else:
        _corrupt_word(machine.pm_image, root, value=100)  # absurd count
    assert workload.validate_image(machine.pm_image) != []


def test_ct_validator_detects_bad_leaf():
    machine, workload = fresh("CT")
    machine.run()
    root = machine.pm_image.read_word(workload.root_cell)
    left = machine.pm_image.read_word(root + 8)
    if left:
        # flip every bit of whatever key/bit word lives there
        old = machine.pm_image.read_word(left)
        _corrupt_word(machine.pm_image, left, value=old ^ ((1 << 30) - 1))
        assert workload.validate_image(machine.pm_image) != []
