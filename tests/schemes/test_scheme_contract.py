"""The contract every registered scheme keeps with the scheme template,
crash snapshots and the crash fuzzer."""

import pytest

from repro.common.errors import SimulationError
from repro.common.observe import SimObserver
from repro.common.params import SystemConfig
from repro.harness import fuzz
from repro.persist import make_scheme, recoverable_schemes, scheme_names
from repro.recovery import crash_machine
from repro.sim.machine import Machine
from repro.sim.ops import Begin, End, Fence, Write


def test_recoverable_schemes_are_the_ones_declaring_recovery():
    assert recoverable_schemes() == ["asap", "asap_redo"]
    assert fuzz.SCHEMES == ("asap", "asap_redo")


@pytest.mark.parametrize("scheme", scheme_names())
def test_unbalanced_end_raises(scheme):
    m = Machine(SystemConfig.small(), make_scheme(scheme)).inspect()
    thread = m.scheme.register_thread(0, 0)
    with pytest.raises(SimulationError):
        m.scheme.end(thread, lambda: None)


@pytest.mark.parametrize("scheme", scheme_names())
def test_crash_log_kind_follows_declared_recovery(scheme):
    m = Machine(SystemConfig.small(), make_scheme(scheme)).inspect()
    a = m.heap.alloc(64 * 4)

    def worker(env):
        for i in range(4):
            yield Begin()
            yield Write(a + 64 * i, [i + 1])
            yield End()

    m.spawn(worker)
    state = crash_machine(m, at_cycle=200)
    assert m.scheme.RECOVERY in ("undo", "redo", None)
    assert state.log_kind == (m.scheme.RECOVERY or "undo")


@pytest.mark.parametrize("scheme", scheme_names())
def test_fuzz_accepts_only_recoverable_schemes(scheme, capsys):
    argv = ["--scheme", scheme, "--budget", "0"]
    if make_scheme(scheme).RECOVERY is None:
        with pytest.raises(SystemExit) as exc:
            fuzz.main(argv)
        assert exc.value.code == 2
        assert "invalid choice" in capsys.readouterr().err
    else:
        assert fuzz.main(argv) == 0


class _RegionLog(SimObserver):
    def __init__(self, events):
        self.events = events

    def region_begun(self, scheme, thread, rid):
        self.events.append(("begun", rid))

    def region_committed(self, source, rid):
        self.events.append(("committed", rid))


@pytest.mark.parametrize("scheme", ["asap", "asap_redo"])
def test_async_commit_dependence_list_plumbing(scheme):
    m = Machine(SystemConfig.small(), make_scheme(scheme)).inspect()
    assert m.scheme.hook_points() == [m.scheme, m.scheme.commits, *m.scheme.dep_lists]
    assert len(m.scheme.dep_lists) == m.config.memory.num_channels
    events = []
    m.observe(_RegionLog(events))
    a = m.heap.alloc(64 * 2)

    def worker(env):
        for i in range(2):
            yield Begin()
            yield Write(a + 64 * i, [i + 1])
            yield End()
        events.append(("ended",))
        yield Fence()
        events.append(("fenced",))

    m.spawn(worker)
    # step until the second region has begun: the first has not committed
    while sum(e[0] == "begun" for e in events) < 2:
        m.run(until=m.scheduler.now + 1)
    first, second = (e[1] for e in events if e[0] == "begun")
    assert ("committed", first) not in events
    snapshot = {e["rid"]: e["deps"] for e in crash_machine(m).dependence_entries}
    assert snapshot[second] == [first]  # control dependence (Sec. 4.5)

    m.run()
    # asap_fence retires only once the thread's last region has committed
    assert events.index(("ended",)) < events.index(("committed", second))
    assert events.index(("committed", second)) < events.index(("fenced",))
