"""Configuration-space integration: full Table 2 machine, many channels,
crash on baseline schemes, CLI output formats, determinism."""

import json
from dataclasses import asdict, replace

import pytest

from repro.common.params import SystemConfig
from repro.harness.cli import main
from repro.persist import make_scheme
from repro.recovery import crash_machine, recover, verify_recovery
from repro.sim.machine import Machine
from repro.workloads import WorkloadParams, get_workload

PARAMS = WorkloadParams(num_threads=4, ops_per_thread=8, setup_items=16)


def test_full_table2_machine_runs():
    """The unscaled 18-core / 4-channel / 128-WPQ configuration."""
    machine = Machine(SystemConfig(), make_scheme("asap")).inspect()
    params = WorkloadParams(num_threads=8, ops_per_thread=6, setup_items=16)
    machine.install(get_workload("HM", params))
    res = machine.run()
    assert res.regions_completed == 48
    assert machine.oracle.mismatches(machine.pm_image) == []


def test_full_table2_crash_recovery():
    def build():
        machine = Machine(SystemConfig(), make_scheme("asap")).inspect()
        machine.install(get_workload("Q", PARAMS))
        return machine

    total = build().run().cycles
    machine = build()
    state = crash_machine(machine, at_cycle=total // 2)
    image, _ = recover(state)
    assert verify_recovery(machine, image).ok


def test_single_channel_machine():
    cfg = SystemConfig.small(num_cores=2)
    from dataclasses import replace

    cfg = replace(
        cfg, memory=replace(cfg.memory, num_controllers=1, channels_per_controller=1)
    )
    machine = Machine(cfg, make_scheme("asap")).inspect()
    machine.install(get_workload("BN", PARAMS))
    res = machine.run()
    assert res.regions_completed == 32
    assert machine.oracle.mismatches(machine.pm_image) == []


def test_eight_channel_machine():
    cfg = SystemConfig.small(num_cores=4)
    from dataclasses import replace

    cfg = replace(
        cfg, memory=replace(cfg.memory, num_controllers=4, channels_per_controller=2)
    )
    machine = Machine(cfg, make_scheme("asap")).inspect()
    machine.install(get_workload("HM", PARAMS))
    res = machine.run()
    assert res.regions_completed == 32
    assert len(machine.scheme.dep_lists) == 8


@pytest.mark.parametrize("scheme", ["np", "sw", "hwundo", "hwredo"])
def test_crash_on_non_asap_schemes_is_benign(scheme):
    """crash_machine works on every scheme; recovery is a no-op where the
    scheme exposes no dependence snapshot (everything durable was already
    in place or in the flushed WPQ)."""
    machine = Machine(SystemConfig.small(), make_scheme(scheme)).inspect()
    machine.install(get_workload("SS", PARAMS))
    state = crash_machine(machine, at_cycle=2000)
    image, report = recover(state)
    assert report.undone_count == 0  # no dependence entries -> nothing to undo


def test_cli_json_output(tmp_path, capsys):
    out = tmp_path / "results.json"
    assert main(["area", "--json", str(out)]) == 0
    data = json.loads(out.read_text())
    assert "area" in data
    assert data["area"][0]["exp_id"] == "Sec. 6.2"
    assert "measured" in data["area"][0]["rows"]


def test_cli_csv_output(tmp_path, capsys):
    assert main(["area", "--csv-dir", str(tmp_path)]) == 0
    csv_text = (tmp_path / "area.csv").read_text()
    assert csv_text.splitlines()[0] == "label,core %,uncore %,total %"


@pytest.mark.parametrize("scheme", ["asap", "hwundo", "sw", "asap_redo"])
def test_scheme_determinism(scheme):
    def run():
        machine = Machine(SystemConfig.small(), make_scheme(scheme)).inspect()
        machine.install(get_workload("EO", PARAMS))
        res = machine.run()
        return (res.cycles, res.pm_writes, sorted(machine.oracle.committed_rids))

    assert run() == run()


@pytest.mark.parametrize("scheme", ["asap", "hwundo", "sw", "asap_redo"])
def test_integral_float_latencies_run_like_ints(scheme):
    # Scheduler.after does not coerce its delays; the config-derived ones
    # are made ints once, where the machine reads them. A config that
    # spells its cache latencies and op cost as floats must run the same
    # cycles, as ints.
    ints = SystemConfig.small()
    floats = replace(
        ints,
        l1=replace(ints.l1, latency=float(ints.l1.latency)),
        l2=replace(ints.l2, latency=float(ints.l2.latency)),
        l3=replace(ints.l3, latency=float(ints.l3.latency)),
        core=replace(ints.core, base_op_cost=float(ints.core.base_op_cost)),
    )
    results = []
    for config in (ints, floats):
        machine = Machine(config, make_scheme(scheme)).inspect()
        machine.install(get_workload("HM", PARAMS))
        results.append(machine.run())
    assert asdict(results[1]) == asdict(results[0])
    assert type(results[1].cycles) is int
    assert type(results[1].region_cycles_total) is int
