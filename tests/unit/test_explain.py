"""Unit tests for the explainable-recovery layer (recovery/explain.py)."""

import json
import os

from repro.harness.fuzz import build_machine, load_corpus_entry
from repro.recovery import crash_machine, explain_recovery, validate_trace, verify_recovery
from repro.recovery.explain import SCHEMA_VERSION, render_narrative
from tests.faults import reopen_edge

CORPUS = os.path.join(
    os.path.dirname(__file__), "..", "property", "corpus",
    "undo-incomplete-line-chain-wpq1.json",
)


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
    """The observer must not perturb recovery's result."""
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
