"""The contract every registered scheme keeps with the scheme template,
crash snapshots and the crash fuzzer."""

import pytest

from repro.common.errors import SimulationError
from repro.common.params import SystemConfig
from repro.harness import fuzz
from repro.persist import make_scheme, recoverable_schemes, scheme_names
from repro.recovery import crash_machine
from repro.sim.machine import Machine
from repro.sim.ops import Begin, End, Write


def test_recoverable_schemes_are_the_ones_declaring_recovery():
    assert recoverable_schemes() == ["asap", "asap_redo"]
    assert fuzz.SCHEMES == ("asap", "asap_redo")


@pytest.mark.parametrize("scheme", scheme_names())
def test_unbalanced_end_raises(scheme):
    m = Machine(SystemConfig.small(), make_scheme(scheme))
    thread = m.scheme.register_thread(0, 0)
    with pytest.raises(SimulationError):
        m.scheme.end(thread, lambda: None)


@pytest.mark.parametrize("scheme", scheme_names())
def test_crash_log_kind_follows_declared_recovery(scheme):
    m = Machine(SystemConfig.small(), make_scheme(scheme))
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
