"""The differential-identity gate for inspection.

There is one kind of machine. :meth:`~repro.sim.machine.Machine.inspect`
attaches what crash and verify read - the PM image and the commit
oracle - as subscribers, and an inspected run must be
*indistinguishable* from an uninspected one in every
:class:`~repro.sim.stats.RunResult` field and to every other subscriber.
The harness switch is ``fast`` (attach no inspectors). This suite pins
that contract:

* every Table 3 workload under every registered scheme (contended small
  machine, so stalls/backpressure/dropping all fire),
* the Fig. 7 schemes on HM and Q at the harness's default quick scale,
* every fuzz-corpus regression schedule,
* the sanitizer's and the race tracer's reports, payloads included,
* the wiring: the inspectors take only the WPQ drain, region store and
  commit slots, and crash and verify refuse a machine without them,
* and the routing rules: the explain/race tooling builds inspected
  machines, while the ``fast`` flag on
  :class:`~repro.harness.parallel.RunSpec` (default True) reaches
  :func:`~repro.harness.runner.build_machine`, sanitized or not.

Any divergence here is a bug, never an accepted delta - see
docs/PERF.md.
"""

import glob
import itertools
import os
from dataclasses import asdict, replace as dc_replace

import pytest

from repro.analysis.races import RaceTracer, analyze_trace
from repro.analysis.sanitizer import Sanitizer
from repro.common.errors import SimulationError
from repro.common.params import SystemConfig
from repro.engine import Scheduler
from repro.harness import runner
from repro.harness.fuzz import build_machine as fuzz_build_machine
from repro.harness.fuzz import install_case, load_corpus_entry
from repro.harness.parallel import RunSpec, run_cell
from repro.mem import wpq
from repro.mem.wpq import DrainToImage
from repro.mem.image import MemoryImage
from repro.persist import make_scheme, scheme_names
from repro.recovery import crash_machine, recover, verify_recovery
from repro.sim.machine import Machine
from repro.workloads import (
    ServiceParams,
    WorkloadParams,
    service_workload_names,
    workload_names,
)
from tests.conftest import locked_set_config

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
    # Fills hit fully locked sets - the retry path that once counted an
    # access again per retry. Only the undo scheme locks lines (redo logs
    # never set the LockBit), so only its cell must actually stall.
    ref, fast = _pair("HM", scheme, locked_set_config(), _params())
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
        machine = Machine(config, make_scheme(case.scheme))
        if not fast:
            machine.inspect()
        install_case(machine, case)
        results.append(asdict(machine.run()))
    assert results[1] == results[0]


#: the sanitizer and race tracer on both machines: Q and HM under the
#: async ASAP variants, undo locking and synchronous SW
PARITY_MATRIX = [
    (w, s) for w in ("Q", "HM") for s in ("asap", "asap_redo", "hwundo", "sw")
]


@pytest.mark.parametrize(
    "workload,scheme", PARITY_MATRIX, ids=[f"{w}-{s}" for w, s in PARITY_MATRIX]
)
def test_subscribers_report_the_same_on_both_machines(
    workload, scheme, monkeypatch
):
    # Payloads are built either way, so every subscriber sees the
    # same events carrying the same payloads: the race tracer's recorded
    # nodes (payloads and op ids, numbered from 0 per run) and findings
    # and the sanitizer's violations must be equal.
    seen = []
    for fast in (False, True):
        monkeypatch.setattr(wpq, "_op_ids", itertools.count())
        machine = runner.build_machine(
            workload, scheme, _config(), _params(), fast=fast
        )
        sanitizer = Sanitizer(raise_on_violation=False).attach(machine)
        tracer = RaceTracer().attach(machine)
        cycles = machine.run().cycles
        races = analyze_trace(
            tracer, machine.scheme.ORDERING_EDGES, cycles, scheme=scheme,
            source=workload,
        )
        seen.append(
            (
                sanitizer.summary(),
                [asdict(node) for node in tracer.nodes],
                races.to_target_dict(),
            )
        )
    assert all(node["payload"] for node in seen[0][1])
    assert seen[1] == seen[0]


def test_fast_machine_wiring():
    # One kind of machine: both builds have the same structures ...
    fast = runner.build_machine("Q", "asap", _config(), _params(), fast=True)
    ref = runner.build_machine("Q", "asap", _config(), _params(), fast=False)
    for machine in (fast, ref):
        assert type(machine.scheduler) is Scheduler
        assert type(machine.volatile) is MemoryImage
    # ... and inspection adds only the PM image and the oracle, as
    # subscribers: the image's writer first, then the oracle.
    assert fast.pm_image is None and fast.oracle is None
    assert fast.observers == []
    assert all(ch.wpq.observer is None for ch in fast.memory.channels)
    assert type(ref.pm_image) is MemoryImage
    writer, oracle = ref.observers
    assert type(writer) is DrainToImage and oracle is ref.oracle
    assert all(ch.wpq.observer is writer for ch in ref.memory.channels)
    assert all(e.observer is oracle for e in ref.executors)
    assert ref.scheme.commits.observer is oracle
    fast_result, ref_result = fast.run(), ref.run()
    assert asdict(fast_result) == asdict(ref_result)
    assert len(ref.pm_image) > 0 and ref.oracle.committed_rids


def test_crash_and_verify_refuse_the_payload_free_machine():
    fast = runner.build_machine("Q", "asap", _config(), _params(), fast=True)
    with pytest.raises(SimulationError, match=r"machine\.inspect\(\)"):
        crash_machine(fast, at_cycle=400)
    ref = runner.build_machine("Q", "asap", _config(), _params())
    image, _report = recover(crash_machine(ref, at_cycle=400))
    with pytest.raises(SimulationError, match=r"no PM image or commit oracle"):
        verify_recovery(fast, image)
    assert verify_recovery(ref, image).ok


def test_sanitize_runs_on_the_requested_machine(monkeypatch):
    built = {}
    orig = runner.build_machine

    def spy(*args, **kwargs):
        machine = orig(*args, **kwargs)
        built["machine"] = machine
        return machine

    monkeypatch.setattr(runner, "build_machine", spy)
    runner.run_once("Q", "asap", _config(), _params(), sanitize=True, fast=True)
    machine = built["machine"]
    assert machine.oracle is None
    # The sanitizer did attach, to the uninspected machine.
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
    run_cell(RunSpec(**base))  # harness cells run uninspected by default
    assert built["machine"].oracle is None
    run_cell(RunSpec(sanitize=True, **base))
    assert built["machine"].oracle is None
    run_cell(RunSpec(fast=False, **base))
    assert built["machine"].oracle is not None


def test_runspec_fast_flag_leaves_cache_token_alone():
    # Inspection changes no result, so both builds share a cache entry.
    base = dict(
        key=("Q",), workload="Q", scheme="asap",
        config=_config(), params=_params(),
    )
    assert RunSpec.fast is True
    assert (
        RunSpec(fast=False, **base).cache_token()
        == RunSpec(**base).cache_token()
    )


def test_explain_tooling_stays_on_reference_machine():
    # The recovery replayer and race tracer build through the fuzz
    # harness's machine factory, which always inspects.
    case, _ = load_corpus_entry(CORPUS_FILES[0])
    case.fifo_backpressure = True
    case.ordered_line_log_persists = True
    machine = fuzz_build_machine(case)
    assert machine.pm_image is not None and machine.oracle is not None
