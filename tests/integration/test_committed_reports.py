"""Committed reports still regenerate from the code.

A committed report (``FIG10_OVERLAP.json``) is a paper number the docs
quote; a change to cycle counts must not leave it stale. This pins the
cheap part: the quick-mode ``fig10_overlap`` rows of HM and Q, run with
no result cache, must equal the committed rows exactly. The committed
analysis reports (``lint-report.json``, ``races-report.json``) must
rebuild from their own targets, with no run, to the same document.
"""

import json
import os

import pytest

from repro.analysis import build_report
from repro.harness.experiments import fig10_overlap

REPO = os.path.join(os.path.dirname(__file__), "..", "..")
REPORT = os.path.join(REPO, "FIG10_OVERLAP.json")
WORKLOADS = ["HM", "Q"]


def test_fig10_overlap_rows_match_committed_report():
    with open(REPORT) as f:
        committed = json.load(f)["rows"]
    result = fig10_overlap.plan(quick=True, workloads=WORKLOADS).execute(jobs=1)
    assert {name: result.rows[name] for name in WORKLOADS} == {
        name: committed[name] for name in WORKLOADS
    }


@pytest.mark.parametrize("filename", ["lint-report.json", "races-report.json"])
def test_analysis_report_rebuilds_from_its_targets(filename):
    with open(os.path.join(REPO, filename)) as f:
        committed = json.load(f)
    rebuilt = build_report(committed["pass"], committed["targets"])
    assert rebuilt["summary"] == committed["summary"]
    assert list(rebuilt["summary"]) == list(committed["summary"])
    assert rebuilt["rules"] == committed["rules"]
    assert rebuilt == committed
