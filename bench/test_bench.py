"""Checks of the benchmark itself: ``PYTHONPATH=src python -m pytest bench -q``.

Not part of tier-1 (``testpaths`` is ``tests``); the workload checks
start child interpreters and take about half a minute.
"""

from __future__ import annotations

import json
import os

import pytest

import asap_bench
import measure
from hostclock import KERNEL_REF_S, HostClock
from layers import LAYERS, layers_of_module, module_of_file

BENCHMARK = os.path.join(measure.ROOT, "BENCHMARK.json")

#: small enough to run in seconds, large enough to touch every layer
TINY = {"fig7": 3, "fig7-fast": 3, "serve": 3, "fuzz": 8}


def _declared():
    with open(BENCHMARK) as fh:
        return json.load(fh)


def test_every_module_maps_to_exactly_one_layer():
    modules = []
    for dirpath, _dirs, files in os.walk(os.path.join(measure.SRC, "repro")):
        for name in files:
            if name.endswith(".py"):
                modules.append(
                    module_of_file(os.path.join(dirpath, name), measure.SRC)
                )
    assert len(modules) > 100
    mapped = {m: layers_of_module(m) for m in modules}
    assert {m: layers for m, layers in mapped.items() if len(layers) != 1} == {}


def test_declared_metrics_match_the_code():
    spec = _declared()
    assert [w["name"] for w in spec["workloads"]] == list(measure.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == measure.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == {
        **measure.UNTRACED_LAYER,
        **measure.TRACED_LAYER,
    }


def test_host_clock_rescales_and_skips_kernel_runs():
    clock = HostClock()
    # the host ran the kernel at half the reference speed, then at full
    clock.marks = [(0.0, 2 * KERNEL_REF_S), (10.0, KERNEL_REF_S)]
    clock.pauses = [(4.0, 5.0)]
    # factor at the midpoint, 2.0: 0.5 interpolated toward 1.0
    assert clock.seconds(0.0, 4.0) == pytest.approx(4.0 * 0.6)
    # the kernel run from 4.0 to 5.0 is left out
    assert clock.seconds(3.0, 6.0) == pytest.approx(0.675 + 0.775)
    assert clock.raw_seconds(0.0, 10.0) == pytest.approx(9.0)
    assert clock.seconds(10.0, 12.0) == pytest.approx(2.0)
    assert HostClock(active=False).seconds(1.0, 3.0) == 2.0


@pytest.mark.parametrize("workload,size", [("fig7", 6), ("fuzz", 400)])
def test_traced_self_time_lands_in_named_layers(workload, size):
    out = measure.measure(workload, seed=42, trace=True, size=size)
    layers = out["layers"]
    shares = [layers[f"{layer}.share"] for layer in LAYERS]
    assert sum(shares) == pytest.approx(1.0, abs=0.01)
    assert layers["other.share"] < 0.05
    assert layers["engine.calls"] > 0


@pytest.mark.parametrize("workload", measure.WORKLOADS)
def test_workload_emits_every_declared_metric(workload):
    spec = _declared()
    out = asap_bench.bench_workload(workload, 42, trace=True, size=TINY[workload])
    for metric in spec["end_to_end"]:
        assert out["metrics"][metric["name"]] > 0, metric["name"]
    assert set(out["layers"]) == {m["name"] for m in spec["per_layer"]}
    golden = asap_bench.load_golden()
    assert asap_bench.find_failures(out, golden, {}) == {}


def test_golden_mismatch_is_a_failure():
    golden = asap_bench.load_golden()
    label, sha = next(iter(golden["fig7"].items()))
    out = {
        "workload": "fig7-fast",
        "seed": golden["seed"],
        "digests": {label: "0" * len(sha)},
        "errors": {},
        "unstable": [],
        "cross_core": {},
    }
    failed = asap_bench.find_failures(out, golden, {label: sha})
    assert "golden" in failed[label]
    assert label in asap_bench.replay_command("fig7-fast", 42, label)


def test_fig7_fast_must_equal_fig7():
    out = {
        "workload": "fig7-fast",
        "seed": 7,
        "digests": {"HM/64/ASAP": "a"},
        "errors": {},
        "unstable": [],
        "cross_core": {},
    }
    failed = asap_bench.find_failures(out, {}, {"HM/64/ASAP": "b"})
    assert "fig7" in failed["HM/64/ASAP"]
