"""The differential-identity gate for the payload-free mode.

Both cores are one simulator: the same scheduler, memory image, indexes
and hot paths. ``fast_path=True`` only elides what inspection reads -
payload snapshots, PM-image application, the commit oracle and observer
dispatch - and must be *indistinguishable* from the reference machine in
every :class:`~repro.sim.stats.RunResult` field. This suite pins that
contract:

* every Table 3 workload under every registered scheme (contended small
  machine, so stalls/backpressure/dropping all fire),
* the Fig. 7 schemes on HM and Q at the harness's default quick scale,
* every fuzz-corpus regression schedule,
* the wiring: ``fast`` toggles payload, oracle and observer elision
  and nothing else,
* and the routing rules: ``sanitize`` (and the explain/race tooling,
  which needs observer slots) always gets the reference machine, while
  the ``fast`` flag on :class:`~repro.harness.parallel.RunSpec` reaches
  :func:`~repro.harness.runner.build_machine`.

Any divergence here is a bug in the elision, never an accepted delta -
see docs/PERF.md.
"""

import glob
import os
from dataclasses import asdict, replace as dc_replace

import pytest

from repro.common.params import SystemConfig
from repro.engine import Scheduler
from repro.harness import runner
from repro.harness.fuzz import build_machine as fuzz_build_machine
from repro.harness.fuzz import install_case, load_corpus_entry
from repro.harness.parallel import RunSpec, run_cell
from repro.mem.image import MemoryImage
from repro.persist import make_scheme, scheme_names
from repro.sim.machine import Machine
from repro.workloads import (
    ServiceParams,
    WorkloadParams,
    service_workload_names,
    workload_names,
)

CORPUS_DIR = os.path.join(
    os.path.dirname(__file__), "..", "property", "corpus"
)
CORPUS_FILES = sorted(glob.glob(os.path.join(CORPUS_DIR, "*.json")))

MATRIX = [(w, s) for w in workload_names() for s in scheme_names()]

#: every service workload under the schemes with the most divergent
#: commit timing (async ASAP variants, sync SW, undo locking)
SERVICE_MATRIX = [
    (w, s)
    for w in service_workload_names()
    for s in ("asap", "asap_redo", "sw", "hwundo")
]


def _config() -> SystemConfig:
    # Small but contended: 8-entry WPQs and 4 cores keep backpressure,
    # slot stalls, and LPO/DPO dropping live in short runs.
    return SystemConfig.small(num_cores=4, wpq_entries=8)


def _params(size: int = 256) -> WorkloadParams:
    return WorkloadParams(
        num_threads=4, ops_per_thread=16, value_bytes=size, setup_items=24
    )


def _pair(workload, scheme, config=None, params=None):
    ref = runner.run_once(workload, scheme, config, params, fast=False)
    fast = runner.run_once(workload, scheme, config, params, fast=True)
    return asdict(ref), asdict(fast)


@pytest.mark.parametrize(
    "workload,scheme", MATRIX, ids=[f"{w}-{s}" for w, s in MATRIX]
)
def test_fast_matches_reference(workload, scheme):
    ref, fast = _pair(workload, scheme, _config(), _params())
    assert fast == ref


@pytest.mark.parametrize(
    "workload,scheme", SERVICE_MATRIX, ids=[f"{w}-{s}" for w, s in SERVICE_MATRIX]
)
def test_fast_matches_reference_service(workload, scheme):
    # Open-loop service cells: the new latency fields (histogram,
    # percentiles, offered-vs-achieved) are filled from commit-time
    # callbacks and must also be bit-identical between the cores. The
    # load sits past the knee so queueing (and late drain-time commits
    # under the async schemes) are actually exercised.
    params = ServiceParams(
        num_threads=4, requests=48, value_bytes=256, setup_items=24,
        offered_load=8.0,
    )
    ref, fast = _pair(workload, scheme, _config(), params)
    assert ref["requests_completed"] == 48
    assert ref["latency_histogram"]
    assert ref["p99_cycles"] > 0
    assert ref["offered_vs_achieved"][0] == 8.0
    assert fast == ref


#: the Fig. 7 schemes on HM and Q with 64 B regions
QUICK_MATRIX = [
    (w, s) for w in ("HM", "Q") for s in ("sw", "hwredo", "hwundo", "asap", "np")
]


@pytest.mark.parametrize(
    "workload,scheme", QUICK_MATRIX, ids=[f"{w}-{s}" for w, s in QUICK_MATRIX]
)
def test_fast_matches_reference_quick_scale(workload, scheme):
    # The harness's actual quick machine (8 cores, 16-entry WPQs).
    ref, fast = _pair(workload, scheme)
    assert fast == ref


def _memory_variant(config, **overrides):
    return dc_replace(config, memory=dc_replace(config.memory, **overrides))


@pytest.mark.parametrize("workload,scheme", [("HM", "asap"), ("SS", "asap_redo")])
def test_fast_matches_reference_single_mshr(workload, scheme):
    # One MSHR per file: every concurrent distinct-line miss exhausts the
    # file, so the parked-retry and merge paths both run constantly.
    config = _memory_variant(_config(), mshrs_per_cache=1)
    ref, fast = _pair(workload, scheme, config, _params())
    assert ref["stall_breakdown"]["mshr"] > 0
    assert fast == ref


@pytest.mark.parametrize("workload,scheme", [("Q", "asap"), ("HM", "asap_redo")])
def test_fast_matches_reference_serialized_drains(workload, scheme):
    # The legacy lockstep-drain comparator (one write-bus token across all
    # channels) must also be bit-identical between the two cores.
    config = _memory_variant(_config(), overlapped_drains=False)
    ref, fast = _pair(workload, scheme, config, _params())
    assert fast == ref


@pytest.mark.parametrize("scheme,expect_stalls", [("asap", True), ("asap_redo", False)])
def test_fast_matches_reference_locked_set_contention(scheme, expect_stalls):
    # Tiny associativity plus slow PM keeps LPO LockBits set long enough
    # that fills hit fully locked sets - the retry path whose double
    # counting this PR fixed. Only the undo scheme locks lines (redo logs
    # never set the LockBit), so only its cell must actually stall.
    config = SystemConfig.small(
        num_cores=4, wpq_entries=4, pm_latency_multiplier=16.0
    )
    config = dc_replace(
        config,
        l1=dc_replace(config.l1, size_bytes=1024, assoc=1),
        l2=dc_replace(config.l2, size_bytes=2048, assoc=1),
        l3=dc_replace(config.l3, size_bytes=4096, assoc=2),
    )
    ref, fast = _pair("HM", scheme, config, _params())
    if expect_stalls:
        assert ref["stall_breakdown"]["locked_set"] > 0
    assert fast == ref


@pytest.mark.parametrize(
    "path", CORPUS_FILES, ids=[os.path.basename(p) for p in CORPUS_FILES]
)
def test_corpus_case_matches_reference(path):
    # Corpus schedules are adversarial by construction (each once broke
    # the model); they must not tell the two cores apart either.
    case, _ = load_corpus_entry(path)
    results = []
    for fast in (False, True):
        config = SystemConfig.small(wpq_entries=case.wpq_entries)
        if case.mshrs_per_cache is not None:
            config = dc_replace(
                config,
                memory=dc_replace(
                    config.memory, mshrs_per_cache=case.mshrs_per_cache
                ),
            )
        machine = Machine(config, make_scheme(case.scheme), fast_path=fast)
        install_case(machine, case)
        results.append(asdict(machine.run()))
    assert results[1] == results[0]


def test_fast_machine_wiring():
    # One core: both machines build the same structures ...
    fast = runner.build_machine("Q", "asap", _config(), _params(), fast=True)
    ref = runner.build_machine("Q", "asap", _config(), _params(), fast=False)
    assert fast.fast_path and not ref.fast_path
    for machine in (fast, ref):
        assert type(machine.scheduler) is Scheduler
        assert type(machine.volatile) is MemoryImage
        assert type(machine.pm_image) is MemoryImage
    # ... and the flag toggles only payload and oracle elision.
    for machine, elide in ((fast, True), (ref, False)):
        assert machine.scheme.fast is elide
        assert machine.scheme.fast is elide
        assert machine.hierarchy.fast is elide
        assert all(
            ch.wpq._apply_payloads is not elide for ch in machine.memory.channels
        )
        assert (machine.oracle in machine.observers) is not elide
    fast_result, ref_result = fast.run(), ref.run()
    assert asdict(fast_result) == asdict(ref_result)
    # The elided state stays empty: no PM image, no committed image.
    assert len(fast.pm_image) == 0 and not fast.oracle.committed_rids
    assert len(ref.pm_image) > 0 and ref.oracle.committed_rids


def test_sanitize_forces_reference_machine(monkeypatch):
    built = {}
    orig = runner.build_machine

    def spy(*args, **kwargs):
        machine = orig(*args, **kwargs)
        built["machine"] = machine
        return machine

    monkeypatch.setattr(runner, "build_machine", spy)
    runner.run_once("Q", "asap", _config(), _params(), sanitize=True, fast=True)
    machine = built["machine"]
    assert machine.fast_path is False
    # The sanitizer did attach: observers run on the reference machine only.
    assert machine.hierarchy.observer is not None
    assert machine.scheme.observer is not None


def test_runspec_fast_flag_routing(monkeypatch):
    built = {}
    orig = runner.build_machine

    def spy(*args, **kwargs):
        machine = orig(*args, **kwargs)
        built["machine"] = machine
        return machine

    monkeypatch.setattr(runner, "build_machine", spy)
    base = dict(
        key=("Q",), workload="Q", scheme="asap",
        config=_config(), params=_params(),
    )
    run_cell(RunSpec(fast=True, **base))
    assert built["machine"].fast_path is True
    run_cell(RunSpec(fast=True, sanitize=True, **base))
    assert built["machine"].fast_path is False
    run_cell(RunSpec(**base))
    assert built["machine"].fast_path is False


def test_runspec_fast_flag_changes_cache_token():
    base = dict(
        key=("Q",), workload="Q", scheme="asap",
        config=_config(), params=_params(),
    )
    assert (
        RunSpec(fast=True, **base).cache_token()
        != RunSpec(**base).cache_token()
    )


def test_explain_tooling_stays_on_reference_machine():
    # The recovery replayer and race tracer build through the fuzz
    # harness's machine factory, which never opts into the fast core.
    case, _ = load_corpus_entry(CORPUS_FILES[0])
    case.fifo_backpressure = True
    case.ordered_line_log_persists = True
    machine = fuzz_build_machine(case)
    assert machine.fast_path is False
    assert all(ch.wpq._apply_payloads for ch in machine.memory.channels)
