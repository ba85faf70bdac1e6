"""Schema-versioned analysis reports (repro.analysis.report)."""

import pytest

from repro.analysis.linter import lint_workload
from repro.analysis.races import detect_in_workload
from repro.analysis.report import (
    ANALYSIS_SCHEMA_VERSION,
    build_report,
    validate_report,
)
from repro.workloads import WorkloadParams


@pytest.fixture(scope="module")
def reports():
    params = WorkloadParams(num_threads=2, ops_per_thread=12, setup_items=8)
    lint = build_report("lint", [lint_workload("Q", params).to_dict()])
    sanitize = build_report(
        "sanitize",
        [
            {
                "source": "Q",
                "workload": "Q",
                "scheme": "asap",
                "cycles": 100,
                "events_checked": 5,
                "violations": [],
            }
        ],
    )
    races = build_report("races", [detect_in_workload("Q").to_target_dict()])
    return {"lint": lint, "sanitize": sanitize, "races": races}


@pytest.mark.parametrize("name", ["lint", "sanitize", "races"])
def test_reports_carry_schema_version(reports, name):
    report = reports[name]
    assert report["schema_version"] == ANALYSIS_SCHEMA_VERSION
    assert report["pass"] == name
    assert report["tool"] == "repro.analysis"


@pytest.mark.parametrize("name", ["lint", "sanitize", "races"])
def test_reports_validate(reports, name):
    assert validate_report(reports[name]) == []


def test_validator_rejects_missing_version(reports):
    bad = dict(reports["lint"])
    del bad["schema_version"]
    assert any("schema_version" in p for p in validate_report(bad))


def test_validator_rejects_newer_version(reports):
    bad = {**reports["lint"], "schema_version": ANALYSIS_SCHEMA_VERSION + 1}
    assert any("newer than supported" in p for p in validate_report(bad))


def test_validator_rejects_unknown_pass(reports):
    bad = {**reports["lint"], "pass": "vibes"}
    assert any("vibes" in p for p in validate_report(bad))


def test_validator_rejects_malformed_targets(reports):
    bad = {**reports["lint"], "targets": [{"no_violations_here": True}]}
    assert any("violations" in p for p in validate_report(bad))


def test_validator_rejects_non_dict():
    assert validate_report([]) != []


def test_races_report_counts_confirmed(reports):
    summary = reports["races"]["summary"]
    assert summary["ok"] is True
    assert summary["confirmed"] == 0
    assert summary["nodes"] > 0
