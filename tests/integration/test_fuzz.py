"""The interleaving-aware crash fuzzer, tested against itself.

Three contracts: campaigns are deterministic per seed; the current code
survives a small campaign across both schemes; and - with the pre-fix WPQ
admission re-opened by the ``reopen_edge`` fault hook - the fuzzer
*finds* the historical bug from the corpus seeds and shrinks it to a
minimal still-failing schedule.
"""

import hashlib
import json
import os
import subprocess
import sys
from dataclasses import replace

import pytest

from repro.common.errors import ConfigError
from repro.common.params import SystemConfig
from repro.harness import fuzz
from repro.harness.fuzz import (
    FuzzCase,
    case_failures,
    check_no_crash,
    generate_case,
    load_corpus_entry,
    mutate_case,
    run_fuzz,
    save_corpus_entry,
    shrink_case,
)
from tests.faults import reopen_edge

CORPUS_DIR = os.path.join(
    os.path.dirname(__file__), os.pardir, "property", "corpus"
)

ROADMAP_UNDO_THREADS = [
    [[(0, False, 0)], [(1, False, 0), (3, False, 0)],
     [(0, False, 0), (1, False, 0), (4, False, 0)]],
    [[(0, False, 0), (2, False, 0)], [(6, False, 0)], [(4, True, 1)]],
]


def roadmap_case(**kw):
    kw.setdefault("scheme", "asap")
    kw.setdefault("threads", ROADMAP_UNDO_THREADS)
    kw.setdefault("wpq_entries", 4)
    return FuzzCase(**kw)


def test_generation_is_deterministic():
    a = generate_case(7, 3, "asap")
    b = generate_case(7, 3, "asap")
    assert a == b
    assert generate_case(7, 4, "asap") != a


def test_case_json_round_trip():
    case = generate_case(0, 0, "asap_redo")
    again = FuzzCase.from_json(json.loads(json.dumps(case.to_json())))
    assert again == case


def test_small_campaign_clean_on_fixed_code():
    report = run_fuzz(seed=0, budget=24, crash_points=1)
    assert report.ok, report.failures
    assert report.runs >= 24
    assert {"asap", "asap_redo"} <= set(report.schemes)


def test_campaign_is_deterministic():
    r1 = run_fuzz(seed=3, budget=12, crash_points=1)
    r2 = run_fuzz(seed=3, budget=12, crash_points=1)
    assert r1.runs == r2.runs
    assert r1.wpq_sizes == r2.wpq_sizes
    assert r1.failures == r2.failures


def test_fuzzer_finds_the_prefix_bug_from_corpus_seeds():
    # Corpus-seeded mutation must rediscover the historical hazard when
    # the pre-fix backpressure admission is re-opened.
    with reopen_edge("wpq-fifo"):
        report = run_fuzz(
            seed=0,
            budget=80,
            crash_points=0,
            schemes=("asap",),
            shrink=False,
            corpus=[roadmap_case()],
        )
    assert not report.ok, "fuzzer failed to rediscover the pre-fix bug"
    assert any("committed values missing" in f for f in report.failures)


def test_shrinker_on_the_original_prefix_schedule():
    # Acceptance criterion: given the original failing schedule pre-fix,
    # the shrinker produces a minimal example that still fails. (The
    # original is already hypothesis-minimal, so "minimal" here means no
    # larger - and every single-element removal must flip it to passing,
    # which is what the fixed-point guarantees.)
    case = roadmap_case()

    def still_fails(c):
        return bool(case_failures(c, crash_points=0))

    with reopen_edge("wpq-fifo"):
        assert still_fails(case)
        minimal = shrink_case(case, still_fails)
        assert still_fails(minimal)
    assert minimal.size <= case.size
    assert not still_fails(minimal)  # the fixed model survives it


def test_shrinker_removes_padding():
    # Pad the known-minimal schedule with an irrelevant third thread and
    # jitter; the shrinker must strip at least the padding back off.
    padded = roadmap_case(
        threads=ROADMAP_UNDO_THREADS + [[[(9, False, 3)], [(10, False, 4)]]],
        jitter=[[], [], [0, 60]],
    )

    def still_fails(c):
        return bool(case_failures(c, crash_points=0))

    with reopen_edge("wpq-fifo"):
        assert still_fails(padded)
        minimal = shrink_case(padded, still_fails)
        assert still_fails(minimal)
    assert len(minimal.threads) == 2
    assert minimal.size <= roadmap_case().size


#: a padded schedule for the synthetic shrink predicate below: three
#: threads, RMWs, nonzero values and jitter, so every candidate kind of
#: the shrinker gets asked about
SHRINK_PIN_CASE = FuzzCase(
    scheme="asap",
    threads=[
        [[(0, False, 3), (1, True, 0)], [(4, True, 7), (2, False, 0)]],
        [[(5, False, 1)], [(6, True, 2), (4, False, 9)]],
        [[(7, False, 0)]],
    ],
    jitter=[[0, 60, 5, 17], [240, 0, 60], [5]],
)


def _shrink_trace(max_attempts):
    """Shrink :data:`SHRINK_PIN_CASE` under a synthetic predicate (fails
    while an RMW with a nonzero value hits line 4 and some jitter entry is
    60); returns how many candidates it was asked about, a digest of
    their sequence, and the result."""
    asked = []

    def still_fails(c):
        asked.append(json.dumps(c.to_json(), sort_keys=True))
        rmw4 = any(
            line == 4 and rmw and value
            for t in c.threads for r in t for line, rmw, value in r
        )
        return rmw4 and any(60 in j for j in c.jitter)

    result = shrink_case(SHRINK_PIN_CASE, still_fails, max_attempts=max_attempts)
    digest = hashlib.sha256("\n".join(asked).encode()).hexdigest()
    return len(asked), digest, result.threads, result.jitter


@pytest.mark.parametrize(
    "max_attempts,asked,digest,jitter",
    [
        (400, 21, "f48fb6437820e79f9a46b7b61f1f740d8a02ba59e812139ca746c12107d1669e",
         [[0, 60, 0, 0]]),
        (9, 9, "713931ea36bd92faebebae1b4ad0e8b0313e39e00c8d5cbba5fc3bba43c35624",
         [[0, 60, 5, 17]]),
    ],
)
def test_shrinker_candidate_order_is_pinned(max_attempts, asked, digest, jitter):
    # The candidate stream (drop thread, region, op; demote RMW or zero a
    # value; clear jitter wholesale, then entry by entry), the restart
    # after each improvement and the attempt budget, pinned by the exact
    # sequence of candidates the predicate is asked about.
    assert _shrink_trace(max_attempts) == (asked, digest, [[[(4, True, 7)]]], jitter)


def test_mutation_preserves_wellformedness():
    import random

    rng = random.Random(0)
    case = generate_case(0, 1, "asap")
    for _ in range(50):
        case = mutate_case(case, rng)
        assert case.threads and all(case.threads)
        for thread in case.threads:
            for region in thread:
                assert region
                for line, rmw, value in region:
                    assert 0 <= line < 12
                    assert isinstance(rmw, bool)


def test_corpus_save_load_round_trip(tmp_path):
    case = generate_case(0, 2, "asap_redo")
    path = str(tmp_path / "entry.json")
    save_corpus_entry(case, path, "round-trip test")
    loaded, meta = load_corpus_entry(path)
    assert loaded == case
    assert meta["description"] == "round-trip test"
    assert meta["example"].startswith("@example(")


def test_cli_exit_codes(capsys):
    # clean campaign -> 0; campaign seeded by the corpus with the pre-fix
    # backpressure re-opened -> 1 (in-process: the hook patches classes,
    # which a subprocess would not see)
    env_cmd = [sys.executable, "-m", "repro.harness.cli"]
    clean = subprocess.run(
        env_cmd + ["fuzz", "--seed", "0", "--budget", "6", "--points", "1"],
        capture_output=True, text=True,
    )
    assert clean.returncode == 0, clean.stderr
    assert "CLEAN" in clean.stdout
    # budget sized to re-find the pinned backpressure bug from the
    # current corpus seed pool (grows as entries are added)
    with reopen_edge("wpq-fifo"):
        rc = fuzz.main(["--seed", "0", "--budget", "80", "--points", "0",
                        "--scheme", "asap", "--no-shrink",
                        "--corpus", CORPUS_DIR])
    out = capsys.readouterr().out
    assert rc == 1, out
    assert "FAILURES" in out


@pytest.mark.parametrize(
    "edge,rule",
    [(None, None), ("wpq-fifo", "ASAP-R001"), ("line-chain", "ASAP-R002")],
)
def test_directed_cli_confirms_each_reopened_edge(capsys, edge, rule):
    # The positive control behind the CI directed-fuzz step: each hook
    # makes `fuzz --from-races` exit 1 with a CONFIRMED finding of its
    # rule; the fixed model exits 0.
    argv = ["--from-races", "--corpus", CORPUS_DIR]
    if edge is None:
        rc = fuzz.main(argv)
    else:
        with reopen_edge(edge):
            rc = fuzz.main(argv)
    captured = capsys.readouterr()
    if edge is None:
        assert rc == 0, captured.out
        assert "no races" in captured.out
    else:
        assert rc == 1, captured.out
        assert "CONFIRMED" in captured.out
        assert f"{rule} -> CONFIRMED" in captured.err


def test_example_line_is_pasteable():
    case = FuzzCase(scheme="asap", threads=ROADMAP_UNDO_THREADS)
    line = case.example_line()
    assert line.startswith("@example(threads=")
    assert "test_prop_recovery" in line
    # the embedded literal must evaluate back to the schedule
    literal = line.split("@example(threads=", 1)[1].split(")  #", 1)[0]
    assert eval(literal) == ROADMAP_UNDO_THREADS


def test_check_no_crash_flags_the_legacy_bug():
    with reopen_edge("wpq-fifo"):
        assert check_no_crash(roadmap_case())
    assert check_no_crash(roadmap_case()) == []


def test_crash_check_runs_the_workload_validators(monkeypatch):
    case, _meta = load_corpus_entry(
        os.path.join(CORPUS_DIR, "service-svc-midburst-wpq4.json")
    )
    monkeypatch.setattr(
        type(fuzz.case_workload(case)), "validate_image", lambda self, image: ["x"]
    )
    failures = case_failures(case, crash_points=1)
    assert failures and all("structure invalid: ['x']" in f for f in failures)


def test_crash_cycles_spacing_then_pinned_fractions():
    assert fuzz.crash_cycles(100, 3, [0.5, 0.001]) == [25, 50, 75, 50, 1]
    assert fuzz.crash_cycles(1, points=2) == [1, 1]


def test_crash_sweep_builds_only_when_there_is_a_point(monkeypatch):
    # a budget cut that leaves a case no crash point builds no machine
    built = []
    monkeypatch.setattr(fuzz, "build_machine", built.append)
    assert list(fuzz.crash_sweep(fuzz.generate_case(0, 0, "asap"), [])) == []
    assert built == []


def test_builds_share_one_config_per_wpq_and_mshr_pin():
    case = fuzz.generate_case(0, 0, "asap")
    config = fuzz.build_machine(case).config
    assert fuzz.build_machine(replace(case, threads=[])).config is config
    assert config == SystemConfig.small(wpq_entries=case.wpq_entries)
    pinned = fuzz.build_machine(replace(case, mshrs_per_cache=2)).config
    assert pinned is not config and pinned.memory.mshrs_per_cache == 2
    assert replace(pinned, memory=config.memory) == config


def test_index_past_the_array_does_not_alias_the_log_area():
    # the undo property strategy draws 16 lines, the fuzzer's array is 12:
    # a store to line 12 once landed in the thread's log area, and
    # recovery "restored" it from the log's own bytes
    case = roadmap_case(threads=[[[(12, False, 1)]]])
    assert case_failures(case, crash_points=8) == []


@pytest.mark.parametrize("flag", ["fifo_backpressure", "ordered_line_log_persists"])
def test_removed_model_flags_accept_only_true(flag):
    # the two compat fields exist only so callers pinning True keep
    # working; False would select a model that no longer exists
    assert getattr(roadmap_case(**{flag: True}), flag) is True
    with pytest.raises(ConfigError, match="reopen_edge"):
        roadmap_case(**{flag: False})


def test_to_json_omits_removed_model_flags():
    data = roadmap_case().to_json()
    assert "fifo_backpressure" not in data
    assert "ordered_line_log_persists" not in data


@pytest.mark.parametrize(
    "pin,match",
    [
        ({"fifo_backpressure": False}, "reopen_edge"),
        ({"ordered_line_log_persists": False}, "reopen_edge"),
        ({"mshrs_per_cache": 0}, ">= 1"),
    ],
)
def test_corpus_file_pinning_a_removed_model_is_rejected(tmp_path, pin, match):
    data = roadmap_case().to_json()
    data.update(pin)
    path = tmp_path / "stale-entry.json"
    path.write_text(json.dumps(data))
    with pytest.raises(ConfigError, match=match) as err:
        load_corpus_entry(str(path))
    assert str(path) in str(err.value)
