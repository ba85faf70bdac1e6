"""Committed reports still regenerate from the code.

A committed report (``FIG10_OVERLAP.json``) is a paper number the docs
quote; a change to cycle counts must not leave it stale. This pins the
cheap part: the quick-mode ``fig10_overlap`` rows of HM and Q, run with
no result cache, must equal the committed rows exactly.
"""

import json
import os

from repro.harness.experiments import fig10_overlap

REPORT = os.path.join(os.path.dirname(__file__), "..", "..", "FIG10_OVERLAP.json")
WORKLOADS = ["HM", "Q"]


def test_fig10_overlap_rows_match_committed_report():
    with open(REPORT) as f:
        committed = json.load(f)["rows"]
    result = fig10_overlap.plan(quick=True, workloads=WORKLOADS).execute(jobs=1)
    assert {name: result.rows[name] for name in WORKLOADS} == {
        name: committed[name] for name in WORKLOADS
    }
