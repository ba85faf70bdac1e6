"""Harness integration: experiments run and produce paper-shaped results.

These run on tiny workload sizes; they assert *directions* (who wins),
never absolute values.
"""

import pytest

from repro.harness.experiment import ExperimentResult, geomean
from repro.harness.experiments import REGISTRY, area, fig1, fig7, fig8, fig9a, fig9b
from repro.harness.cli import main
from repro.harness.parallel import Plan, _harvest, build_cell_machine

FAST = ["HM", "SS"]  # quickest two workloads


def test_geomean():
    assert geomean([1, 4]) == pytest.approx(2.0)
    assert geomean([]) == 0.0
    assert geomean([2, 0, 8]) == 4.0  # zeros skipped


def test_geomean_row_surfaces_dropped_cells():
    # a zero cell cannot enter the geomean; it is excluded but must be
    # called out in notes, not silently inflate the aggregate
    r = ExperimentResult("X", "t", columns=["a", "b"])
    r.add_row("w1", a=2.0, b=1.0)
    r.add_row("w2", a=0.0, b=4.0)
    gm = r.geomean_row()
    assert gm["a"] == pytest.approx(2.0)
    assert gm["b"] == pytest.approx(2.0)
    assert "w2:a" in r.notes and "non-positive" in r.notes
    assert "w1" not in r.notes


def test_geomean_row_appends_to_existing_notes():
    r = ExperimentResult("X", "t", columns=["a"], notes="prior note")
    r.add_row("w1", a=0.0)
    r.geomean_row()
    assert r.notes.startswith("prior note; ")
    assert "w1:a" in r.notes


def test_geomean_row_no_note_when_all_positive():
    r = ExperimentResult("X", "t", columns=["a"])
    r.add_row("w1", a=1.5)
    r.geomean_row()
    assert r.notes == ""


def test_experiment_result_table_renders():
    r = ExperimentResult("X", "t", columns=["a", "b"])
    r.add_row("w1", a=1.0, b=2.0)
    r.geomean_row()
    text = r.to_table()
    assert "w1" in text and "GeoMean" in text


def test_fig1_shape():
    result = fig1.plan(quick=True, workloads=FAST).execute()
    gm = result.rows["GeoMean"]
    # persist operations cost throughput; logging costs more than flushing
    assert gm["DPO Only"] < 1.0
    assert gm["LPO & DPO"] < gm["DPO Only"]


def test_fig7_shape():
    result = fig7.plan(quick=True, workloads=["HM"], sizes=[64]).execute()
    gm = result.rows["GeoMean"]
    assert gm["ASAP"] > gm["HWUndo"] > 1.0
    assert gm["ASAP"] > gm["HWRedo"] > 1.0
    assert gm["NP"] >= gm["ASAP"] * 0.95


def test_fig8_shape():
    result = fig8.plan(quick=True, workloads=["HM"], sizes=[64]).execute()
    gm = result.rows["GeoMean"]
    assert gm["SW"] > gm["HWUndo"] > gm["ASAP"]
    assert gm["ASAP"] < 1.7


def test_fig9a_monotone():
    result = fig9a.plan(quick=True, workloads=FAST).execute()
    gm = result.rows["GeoMean"]
    assert gm["ASAP-No-Opt"] >= gm["ASAP+C"] >= gm["ASAP+C+LP"] >= gm["ASAP"] == pytest.approx(1.0)
    assert gm["ASAP-No-Opt"] > 1.2


def test_fig9b_shape():
    result = fig9b.plan(quick=True, workloads=FAST).execute()
    gm = result.rows["GeoMean"]
    assert gm["SW"] > gm["HWUndo"] > 1.0
    assert gm["SW"] > gm["HWRedo"] > 1.0


def test_area_experiment():
    result = area.plan().execute()
    assert result.rows["measured"]["total %"] < 3.0


def test_registry_complete():
    assert set(REGISTRY) == {
        "fig1", "fig7", "fig8", "fig9a", "fig9b", "fig10", "fig10_overlap",
        "lhwpq", "area", "ablations", "extension", "numa", "corun", "eadr",
        "serve-bench",
    }


@pytest.mark.parametrize("name", sorted(REGISTRY))
def test_registry_entry_is_a_plan(name):
    # simulation-free: building a plan runs nothing, and the sanitize flag
    # is left to execute()
    plan = REGISTRY[name](quick=True, workloads=["Q"])
    assert isinstance(plan, Plan)
    keys = [spec.key for spec in plan.specs]
    assert len(set(keys)) == len(keys)
    assert not any(spec.sanitize for spec in plan.specs)
    # every extras path resolves on the cell's machine, built but not run
    for spec in plan.specs:
        if spec.extras:
            machine = build_cell_machine(spec)
            for _, path in spec.extras:
                _harvest(machine, path)


def test_cli_config_and_workloads(capsys):
    assert main(["config"]) == 0
    out = capsys.readouterr().out
    assert "Table 2" in out and "128 WPQ entries" in out
    assert main(["workloads"]) == 0
    out = capsys.readouterr().out
    assert "TPCC" in out


def test_cli_runs_area(capsys):
    assert main(["area"]) == 0
    out = capsys.readouterr().out
    assert "Sec. 6.2" in out


def test_cli_rejects_unknown(capsys):
    with pytest.raises(SystemExit):
        main(["not-an-experiment"])


def test_crashtest_command(capsys):
    assert main(["crashtest", "--workloads", "SS"]) == 0
    out = capsys.readouterr().out
    assert "SS/asap: CONSISTENT" in out
    assert "SS/asap_redo: CONSISTENT" in out


def test_crashtest_api_report_fields():
    from repro.harness.crashtest import run_crashtest

    report = run_crashtest(workload="Q", scheme="asap", points=6)
    assert report.ok
    assert report.points_checked == 6
    assert report.crash_cycles == [1788, 3576, 5364, 7152, 8940, 10728]
    assert (report.points_with_rollback, report.regions_rolled_back) == (6, 10)
    assert report.summary() == (
        "Q/asap: CONSISTENT over 6 crash points at cycles [1788, 3576, 5364, "
        "7152, 8940, 10728] of a 12516-cycle run, 1 deterministic schedule "
        "(6 caught in-flight regions, 10 regions rolled back in total)"
    )
    # a redo log rolls nothing back: replayed regions are not rollbacks
    report = run_crashtest(workload="SS", scheme="asap_redo")
    assert report.ok
    assert report.crash_cycles == [
        356, 712, 1069, 1425, 1781, 2138, 2494, 2851, 3207, 3563, 3920, 4276
    ]
    assert (report.points_with_rollback, report.regions_rolled_back) == (0, 0)
    assert report.summary() == (
        "SS/asap_redo: CONSISTENT over 12 crash points at cycles [356, 712, "
        "1069, ... 4276] (12 points) of a 4633-cycle run, 1 deterministic "
        "schedule (0 caught in-flight regions, 0 regions rolled back in total)"
    )


def test_summary_command(capsys):
    assert main(["summary", "--workloads", "HM"]) == 0
    out = capsys.readouterr().out
    assert "headline claims" in out
    assert "area overhead" in out


def test_summary_ratio_handles_zero_denominator():
    # a quick run can yield a zero NP geomean; summary must print n/a
    # instead of crashing with ZeroDivisionError
    from repro.harness.cli import _ratio

    assert _ratio(2.0, 0.0) == "n/a"
    assert _ratio(2.0, 0) == "n/a"
    assert _ratio(3.0, 2.0) == "1.50x"
    assert _ratio(1, 0.52, "x NP") == "1.92x NP"


def test_serve_bench_shape(capsys):
    assert main(["serve-bench", "--workloads", "SVC", "--no-progress",
                 "--no-cache"]) == 0
    out = capsys.readouterr().out
    assert "SVC" in out and "p99" in out and "offered" in out


def test_cli_serve_bench_jobs_and_cache_byte_identity(tmp_path, capsys):
    # The open-loop rows (arrival schedule, histogram, percentiles) must
    # be byte-identical across worker counts and cache states: cold
    # serial, warm parallel, and cold parallel all emit the same JSON.
    cold1 = tmp_path / "cold1.json"
    warm2 = tmp_path / "warm2.json"
    cold2 = tmp_path / "cold2.json"
    args = ["serve-bench", "--workloads", "SVC", "--no-progress"]
    cache = str(tmp_path / "cache")
    assert main(args + ["--cache-dir", cache, "--jobs", "1",
                        "--json", str(cold1)]) == 0
    capsys.readouterr()
    assert main(args + ["--cache-dir", cache, "--jobs", "2",
                        "--json", str(warm2)]) == 0
    assert "cells from cache" in capsys.readouterr().out
    assert main(args + ["--cache-dir", str(tmp_path / "cache2"), "--jobs", "2",
                        "--json", str(cold2)]) == 0
    assert cold1.read_text() == warm2.read_text() == cold2.read_text()


def test_cli_jobs_and_cache_flags(tmp_path, capsys):
    json1 = tmp_path / "j1.json"
    json4 = tmp_path / "j4.json"
    cache_dir = tmp_path / "cache"
    args = ["fig7", "--workloads", "HM", "--no-progress", "--cache-dir", str(cache_dir)]
    assert main(args + ["--jobs", "1", "--json", str(json1)]) == 0
    capsys.readouterr()
    assert main(args + ["--jobs", "2", "--json", str(json4)]) == 0
    out = capsys.readouterr().out
    # second invocation was fully cache-fed, and rows are byte-identical
    assert "cells from cache" in out
    assert json1.read_text() == json4.read_text()
