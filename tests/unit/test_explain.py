"""Unit tests for the explainable-recovery layer (recovery/explain.py)."""

import glob
import hashlib
import json
import os

import pytest

from repro.harness.fuzz import build_machine, crash_cycles, load_corpus_entry
from repro.recovery import crash_machine, explain_recovery, validate_trace, verify_recovery
from repro.recovery.explain import SCHEMA_VERSION, render_narrative
from tests.faults import reopen_edge

CORPUS_DIR = os.path.join(os.path.dirname(__file__), "..", "property", "corpus")
CORPUS = os.path.join(CORPUS_DIR, "undo-incomplete-line-chain-wpq1.json")
REDO_CORPUS = os.path.join(CORPUS_DIR, "redo-premature-dep-clear-wpq4.json")


def crash_corpus_case():
    case, _meta = load_corpus_entry(CORPUS)
    total = build_machine(case).run().cycles
    m = build_machine(case)
    state = crash_machine(m, at_cycle=int(total * case.crash_fracs[0]))
    return m, state


def test_trace_is_schema_valid():
    _m, state = crash_corpus_case()
    _image, _report, trace = explain_recovery(state)
    assert validate_trace(trace) == []
    assert trace["schema_version"] == SCHEMA_VERSION


def test_trace_is_deterministic_and_json_safe():
    _m, state = crash_corpus_case()
    _i1, _r1, trace1 = explain_recovery(state)
    _i2, _r2, trace2 = explain_recovery(state)
    assert json.dumps(trace1, sort_keys=True) == json.dumps(trace2, sort_keys=True)


def test_explain_matches_plain_recovery():
    """Explaining recovery must not change what recovery produces."""
    from repro.recovery import recover

    m, state = crash_corpus_case()
    plain_image, plain_report = recover(state)
    explained_image, report, trace = explain_recovery(state)
    assert sorted(plain_image.items()) == sorted(explained_image.items())
    assert plain_report.restored_lines == report.restored_lines
    assert trace["summary"]["restored_lines"] == report.restored_lines
    assert verify_recovery(m, explained_image).ok


def test_narrative_renders_every_decision():
    _m, state = crash_corpus_case()
    _image, _report, trace = explain_recovery(state)
    text = render_narrative(trace)
    assert "undo order" in text
    assert trace["decisions"], "the pinned crash point restores nothing?"
    for d in trace["decisions"]:
        assert f"step {d['step']}" in text
    assert f"{trace['summary']['restored_lines']} line(s) restored" in text


def test_validate_trace_flags_malformed_traces():
    assert validate_trace([]) != []
    assert any("missing" in p for p in validate_trace({}))
    _m, state = crash_corpus_case()
    _i, _r, trace = explain_recovery(state)
    trace["decisions"].append({"step": "x"})
    problems = validate_trace(trace)
    assert any("decisions" in p for p in problems)


def test_recover_cli_smoke(tmp_path, capsys):
    from repro.recovery.explain import main

    out = tmp_path / "trace.json"
    rc = main(["--case", CORPUS, "--explain", "--json", str(out)])
    assert rc == 0
    trace = json.loads(out.read_text())
    assert validate_trace(trace) == []
    assert trace["summary"]["consistent"] is True
    printed = capsys.readouterr().out
    assert "crash at cycle" in printed


def test_recover_cli_reports_legacy_corruption(capsys):
    from repro.recovery.explain import main

    # in-process: the fault hook patches classes a subprocess cannot see
    with reopen_edge("line-chain"):
        rc = main(["--case", CORPUS])
    assert rc == 1
    assert "INCONSISTENT" in capsys.readouterr().out


def test_recover_cli_runs_the_workload_validators(tmp_path, capsys, monkeypatch):
    """``recover --case`` reaches the fuzzer's verdict: an image that
    matches the oracle but fails its workload's validator is a failure."""
    from repro.recovery.explain import main
    from repro.workloads.hashmap import HashMap

    monkeypatch.setattr(HashMap, "validate_image", lambda self, image: ["forced"])
    out = tmp_path / "trace.json"
    service = os.path.join(CORPUS_DIR, "service-svc-midburst-wpq4.json")
    rc = main(["--case", service, "--json", str(out)])
    assert rc == 1
    assert "structure invalid: ['forced']" in capsys.readouterr().out
    assert json.loads(out.read_text())["summary"]["consistent"] is False


def crash_at(path, frac=None):
    """Crash a corpus case where ``asap-repro recover`` does: at ``frac``,
    else the case's first pinned crash fraction, else 0.5."""
    case, _meta = load_corpus_entry(path)
    if frac is None:
        frac = case.crash_fracs[0] if case.crash_fracs else 0.5
    total = build_machine(case).run().cycles
    (at_cycle,) = crash_cycles(total, fracs=[frac])
    return crash_machine(build_machine(case), at_cycle=at_cycle)


@pytest.mark.parametrize("frac", [0.3, 0.5, 0.7, 0.9])
def test_redo_trace_names_the_dependence_list(frac):
    """Under redo the replayed regions are the *committed* ones; the
    trace's ``uncommitted`` field and the narrative's dependence-list
    line must still name the persisted Dependence List."""
    state = crash_at(REDO_CORPUS, frac)
    _image, _report, trace = explain_recovery(state)
    assert trace["log_kind"] == "redo"
    rids = sorted(e["rid"] for e in state.dependence_entries)
    assert trace["uncommitted"] == rids
    text = render_narrative(trace)
    listed = [ln for ln in text.splitlines() if ln.startswith("  region ")]
    assert f"dependence list: {len(listed)} uncommitted region(s)" in text
    assert len(listed) == len(rids)


#: sha256 of ``json.dumps(trace, sort_keys=True)`` for every corpus case
#: at its pinned crash point; a change here is a change in what
#: ``asap-repro recover --json`` reports
TRACE_DIGESTS = {
    "redo-premature-dep-clear-wpq4.json": (
        "7c770bcd907e34e3cf804622dedb683cc6083093b711ec4735a12a1ce0f52fcf"
    ),
    "service-svc-midburst-wpq4.json": (
        "81225ddbdf3175cd2d6bb9ffdddf59713a876c862516c017caf05764a14ded06"
    ),
    "undo-cross-thread-rmw-wpq4.json": (
        "f02d513aedba9e2095a391cac9131290c50616904787ff86f02953da9aeb8c9f"
    ),
    "undo-incomplete-line-chain-wpq1.json": (
        "70ffb4b724073746b4e496632cf95a42528527fdf671a0f1f33e0b37ea321f36"
    ),
    "undo-miss-in-flight-mshr1.json": (
        "aa7e292c38738fa39cdf250303d0d684a67eb795e2a8dfb5b3b73e1262d37a34"
    ),
}


@pytest.mark.parametrize(
    "name",
    sorted(os.path.basename(p) for p in glob.glob(os.path.join(CORPUS_DIR, "*.json"))),
)
def test_trace_is_pinned(name):
    state = crash_at(os.path.join(CORPUS_DIR, name))
    _image, _report, trace = explain_recovery(state)
    digest = hashlib.sha256(json.dumps(trace, sort_keys=True).encode()).hexdigest()
    assert digest == TRACE_DIGESTS.get(name)
