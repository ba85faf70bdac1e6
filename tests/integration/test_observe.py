"""The observer bus: ``Machine.observe`` wires every hook point.

Any number of subscribers share one run, each hook class declares the
events it fires, and a subscriber that handles only commits leaves the
hot structures' slots empty.
"""

import inspect
import os
import re

import pytest

from repro.analysis.races import RaceTracer, analyze_trace
from repro.analysis.sanitizer import Sanitizer
from repro.common.observe import EVENTS
from repro.harness import fuzz
from repro.harness.runner import build_machine, default_config, default_params
from repro.persist import scheme_names
from repro.sim.ops import Begin, End, Lock, Unlock, Write
from repro.sim.trace import Tracer

CORPUS_DIR = os.path.join(os.path.dirname(__file__), "..", "property", "corpus")
REDO_CASE = "redo-premature-dep-clear-wpq4.json"


def _machine(target):
    if target == "HM/asap":
        return build_machine("HM", "asap", default_config(), default_params())
    case, _meta = fuzz.load_corpus_entry(os.path.join(CORPUS_DIR, target))
    return fuzz.build_machine(case)


def _outputs(machine, tools):
    """Run ``machine`` under ``tools`` and return each tool's output."""
    subscribed = {}
    for tool in tools:
        if tool == "sanitizer":
            subscribed[tool] = Sanitizer(raise_on_violation=False).attach(machine)
        elif tool == "races":
            subscribed[tool] = RaceTracer().attach(machine)
        else:
            subscribed[tool] = Tracer(machine)
    cycles = machine.run().cycles
    out = {}
    for tool, sub in subscribed.items():
        if tool == "sanitizer":
            out[tool] = sub.summary()
        elif tool == "races":
            out[tool] = analyze_trace(
                sub,
                machine.scheme.ORDERING_EDGES,
                cycles,
                scheme=machine.scheme.name,
                source="bus",
            ).to_target_dict()
        else:
            out[tool] = sub.events
    return out


@pytest.mark.parametrize("target", ["HM/asap", REDO_CASE])
def test_three_tools_share_one_run(target):
    tools = ("sanitizer", "races", "tracer")
    together = _outputs(_machine(target), tools)
    for tool in tools:
        assert together[tool] == _outputs(_machine(target), [tool])[tool], tool
    assert together["sanitizer"]["events_checked"] > 0
    assert together["races"]["nodes"] > 0
    assert together["tracer"]


def _hook_classes():
    """Every class that holds an observer slot, over every scheme."""
    classes = set()
    for scheme in scheme_names():
        machine = build_machine("Q", scheme, default_config(), default_params())
        machine.new_lock()
        machine.spawn(lambda env: iter(()))
        points = [ch.wpq for ch in machine.memory.channels]
        points += [machine.hierarchy, *machine.scheme.hook_points()]
        points += [*machine.locks, *machine.executors]
        classes.update(type(p) for p in points)
    return classes


def _fired(cls):
    """The ``observer.<event>(`` calls in ``cls`` and its bases' source."""
    fired = set()
    for klass in cls.__mro__:
        if klass.__module__.startswith("repro."):
            source = inspect.getsource(klass)
            fired.update(re.findall(r"observer\.(\w+)\(", source))
    return fired


def test_observed_declarations_match_the_code():
    classes = _hook_classes()
    declared = set()
    for cls in classes:
        assert set(cls.OBSERVED) == _fired(cls), cls.__name__
        assert set(cls.OBSERVED) <= EVENTS, cls.__name__
        declared.update(cls.OBSERVED)
    assert declared == EVENTS


@pytest.mark.parametrize("scheme", ["asap", "asap_redo", "hwundo"])
@pytest.mark.parametrize("fast", [False, True])
def test_commit_only_subscribers_leave_hot_slots_empty(scheme, fast):
    # The service workload subscribes its commits-only recorder whether
    # or not the machine is inspected; the inspectors take the WPQ drain
    # slot (the PM image) and the executors' store slot (the oracle).
    machine = build_machine(
        "SVC", scheme, default_config(), default_params(), fast=fast
    )
    scheme = machine.scheme
    wpqs = [ch.wpq for ch in machine.memory.channels]
    hot = [machine.hierarchy, scheme, *getattr(scheme, "dep_lists", ())]
    hot += machine.locks
    if fast:
        hot += wpqs + machine.executors
    assert machine.locks and machine.executors
    for point in hot:
        assert point.observer is None, type(point).__name__
    recorder = machine.service_recorder
    if fast:
        assert machine.observers == [recorder]
        assert scheme.commits.observer is recorder
        return
    writer, oracle, last = machine.observers
    assert oracle is machine.oracle and last is recorder
    assert all(wpq.observer is writer for wpq in wpqs)
    assert all(e.observer is oracle for e in machine.executors)
    assert scheme.commits.observer not in (None, oracle, recorder)


def test_locks_made_after_attach_are_wired():
    released = []

    class LockTracer(RaceTracer):
        def lock_released(self, lock, thread_id):
            released.append((lock.name, thread_id))

    machine = build_machine("Q", "asap", default_config(), default_params())
    tracer = LockTracer().attach(machine)
    lock = machine.new_lock("late")
    addr = machine.heap.alloc(64)

    def worker(env):
        yield Lock(lock)
        yield Begin()
        yield Write(addr, [1])
        yield End()
        yield Unlock(lock)

    thread = machine.spawn(worker).thread_id
    machine.run()
    assert lock.observer is tracer
    assert [t for t, _cycle in tracer.lock_order["late"]] == [thread]
    assert ("late", thread) in released
