"""Crash snapshots are non-destructive: one resumed machine equals many.

``crash_machine`` snapshots a machine without modifying it, so a crash
sweep advances one machine through ascending crash points. This gate
holds such a sweep to the rebuild-per-point reference: at every point,
the crash state taken from the resumed machine must equal, field by
field, the one taken from a fresh machine crashed at the same cycle, and
the recovery verdicts must agree. It also checks that snapshots and
split runs leave the run itself unchanged.
"""

import glob
import os

import pytest

from repro.common.errors import SimulationError
from repro.harness import runner
from repro.harness.fuzz import (
    FuzzCase,
    build_machine,
    crash_cycles,
    generate_case,
    load_corpus_entry,
)
from repro.persist import scheme_names
from repro.recovery import crash_machine, recover, verify_recovery
from repro.sim.executor import ThreadExecutor

CORPUS = os.path.join(os.path.dirname(__file__), "..", "property", "corpus")
CORPUS_FILES = sorted(glob.glob(os.path.join(CORPUS, "*.json")))
#: crash points per sweep, evenly spaced over the clean run
K = 4
#: generated fuzz cases per log flavour
GENERATED = 25
PARAMS = dict(num_threads=3, ops_per_thread=12, setup_items=16)


def case_builder(case):
    return lambda: build_machine(case)


def workload_builder(scheme, workload="Q"):
    return case_builder(
        FuzzCase(scheme, [], wpq_entries=16, workload=workload, workload_params=PARAMS)
    )


def crash_points(total, fracs=()):
    return sorted(set(crash_cycles(total, K, fracs)))


def state_fields(state):
    return {
        "pm_words": dict(state.pm_image.items()),
        "dependence_entries": state.dependence_entries,
        "log_directory": state.log_directory,
        "marker_directory": state.marker_directory,
        "entries_per_record": state.entries_per_record,
        "log_kind": state.log_kind,
        "crash_cycle": state.crash_cycle,
        "flushed_wpq_entries": state.flushed_wpq_entries,
    }


def verdict(machine, state):
    image, report = recover(state)
    return (
        verify_recovery(machine, image).ok,
        dict(image.items()),
        report.records_scanned,
        report.restored_lines,
    )


def assert_sweep_matches_rebuild(build, fracs=()):
    """Returns the resumed machine's crash states."""
    total = build().run().cycles
    sweep = build()
    states = []
    for cycle in crash_points(total, fracs):
        resumed = crash_machine(sweep, at_cycle=cycle)
        fresh_machine = build()
        fresh = crash_machine(fresh_machine, at_cycle=cycle)
        assert state_fields(resumed) == state_fields(fresh), f"@{cycle}"
        assert verdict(sweep, resumed) == verdict(fresh_machine, fresh), f"@{cycle}"
        states.append(resumed)
    return states


@pytest.mark.parametrize(
    "path", CORPUS_FILES, ids=[os.path.basename(p) for p in CORPUS_FILES]
)
def test_sweep_matches_rebuild_on_corpus(path):
    case, _meta = load_corpus_entry(path)
    assert_sweep_matches_rebuild(case_builder(case), case.crash_fracs)


@pytest.mark.parametrize("scheme", ["asap", "asap_redo"])
def test_sweep_matches_rebuild_on_generated_cases(scheme):
    states = []
    for index in range(GENERATED):
        build = case_builder(generate_case(14, index, scheme))
        states += assert_sweep_matches_rebuild(build)
    # the points catch work in flight, not just quiet machines
    assert sum(s.flushed_wpq_entries > 0 for s in states) > len(states) // 3
    assert sum(bool(s.dependence_entries) for s in states) > len(states) // 2


@pytest.mark.parametrize("scheme", scheme_names())
def test_sweep_matches_rebuild_on_every_scheme(scheme):
    assert_sweep_matches_rebuild(workload_builder(scheme))


@pytest.mark.parametrize("scheme", ["asap", "asap_redo", "eadr"])
def test_snapshots_do_not_change_the_run(scheme):
    build = workload_builder(scheme)
    expected = build().run()
    machine = build()
    for cycle in crash_points(expected.cycles):
        crash_machine(machine, at_cycle=cycle)
    assert machine.run() == expected


def test_split_run_equals_one_run(monkeypatch):
    build = workload_builder("asap")
    expected = build().run()
    starts = []
    original = ThreadExecutor.start

    def counted_start(executor):
        starts.append(executor.thread_id)
        original(executor)

    monkeypatch.setattr(ThreadExecutor, "start", counted_start)
    machine = build()
    machine.run(until=expected.cycles // 3)
    assert machine.run() == expected
    assert sorted(starts) == [e.thread_id for e in machine.executors]
    assert machine.run() == expected  # a finished machine stays finished
    assert len(starts) == len(machine.executors)


def test_split_run_result_keeps_its_scheme_stats():
    """A result taken mid-run (as at every crash point) keeps the scheme
    counters of its own cycle when the machine resumes."""
    machine = runner.build_machine("HM", "asap")
    early = machine.run(until=2000)
    assert early.regions_completed == early.scheme_stats.commits == 6
    final = machine.run()
    assert early.scheme_stats.commits == 6
    assert final.scheme_stats.commits == final.regions_completed > 6
    assert final.scheme_stats == runner.build_machine("HM", "asap").run().scheme_stats


def test_crash_before_the_current_cycle_is_refused():
    machine = workload_builder("asap")()
    crash_machine(machine, at_cycle=400)
    with pytest.raises(SimulationError):
        crash_machine(machine, at_cycle=399)
