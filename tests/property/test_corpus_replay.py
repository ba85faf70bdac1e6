"""Replay the fuzzer's regression corpus (tests/property/corpus/).

Every JSON file in the corpus is a once-failing schedule, shrunk and
committed when its bug was fixed. Each entry is replayed on the current
code twice over: as a timed run (the no-crash differential check plus a
small crash-point sweep must be clean) and as a static target for the
workload linter (the op streams themselves must be well-formed - a
corpus entry that trips ``ASAP-L...`` rules would be exercising a
programming error, not a scheme bug). Adding a file here is how a
fuzzer find becomes a permanent regression test (docs/FUZZING.md
describes the workflow).
"""

import glob
import os

import pytest

from repro.analysis.linter import LintMachine, lint_machine
from repro.common.params import SystemConfig
from repro.harness.fuzz import case_failures, install_case, load_corpus_entry

CORPUS_DIR = os.path.join(os.path.dirname(__file__), "corpus")
CORPUS_FILES = sorted(glob.glob(os.path.join(CORPUS_DIR, "*.json")))


def test_corpus_is_not_empty():
    assert CORPUS_FILES, f"no corpus entries under {CORPUS_DIR}"


@pytest.mark.parametrize(
    "path", CORPUS_FILES, ids=[os.path.basename(p) for p in CORPUS_FILES]
)
def test_corpus_entry_replays_clean(path):
    case, meta = load_corpus_entry(path)
    # pinned crash_fracs are swept on top of the generic crash points
    # (see case_failures)
    failures = case_failures(case, crash_points=3)
    assert failures == [], (
        f"{os.path.basename(path)} regressed: {failures}\n"
        f"description: {meta.get('description', '?')}"
    )


@pytest.mark.parametrize(
    "path", CORPUS_FILES, ids=[os.path.basename(p) for p in CORPUS_FILES]
)
def test_corpus_entry_lints_clean(path):
    case, meta = load_corpus_entry(path)
    machine = LintMachine(SystemConfig.small(wpq_entries=case.wpq_entries))
    install_case(machine, case)
    result = lint_machine(machine, source=os.path.basename(path))
    assert result.ok and not result.violations, (
        f"{os.path.basename(path)} no longer lints clean: "
        f"{[v.to_dict() for v in result.violations]}\n"
        f"description: {meta.get('description', '?')}"
    )
