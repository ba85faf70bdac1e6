"""``asap-repro explore`` - flag parsing, artifacts, determinism, exits."""

import json

import pytest

from repro.common.errors import ConfigError
from repro.explore.cli import (
    _parse_axis_flags,
    _parse_baseline_flags,
    _parse_value,
    main,
)
from repro.harness.cli import main as harness_main


# -- flag parsing ------------------------------------------------------------


def test_parse_value_types():
    assert _parse_value("4") == 4 and isinstance(_parse_value("4"), int)
    assert _parse_value("2.5") == 2.5
    assert _parse_value("true") is True and _parse_value("False") is False
    with pytest.raises(ConfigError):
        _parse_value("sixteen")


def test_parse_axis_and_baseline_flags():
    axes = _parse_axis_flags(["lh_wpq_entries=4,16", "dep_list_entries=8"])
    assert axes == {"lh_wpq_entries": [4, 16], "dep_list_entries": [8]}
    assert _parse_baseline_flags(["wpq_entries=32"]) == {"wpq_entries": 32}
    with pytest.raises(ConfigError, match="--axis"):
        _parse_axis_flags(["lh_wpq_entries"])
    with pytest.raises(ConfigError, match="--baseline"):
        _parse_baseline_flags(["wpq_entries"])


# -- informational / error paths (no simulation) ----------------------------


def test_list_axes(capsys):
    assert main(["--list-axes"]) == 0
    out = capsys.readouterr().out
    assert "asap.lh_wpq_entries" in out
    assert "dep_list_entries" in out  # the alias table


def test_missing_axes_or_workloads_is_a_usage_error(capsys):
    with pytest.raises(SystemExit):
        main(["--workloads", "HM"])
    with pytest.raises(SystemExit):
        main(["--axis", "lh_wpq_entries=4,16"])


def test_bad_axis_name_exits_2(capsys):
    rc = main(
        ["--axis", "lh_wqp_entries=4,16", "--workloads", "HM", "--no-cache"]
    )
    assert rc == 2
    assert "lh_wpq_entries" in capsys.readouterr().err  # the suggestion


def test_mshrs_zero_axis_exits_2_before_any_run(capsys, monkeypatch):
    import repro.explore.cli as cli

    def no_runs(*_a, **_k):
        raise AssertionError("a sweep point ran before validation failed")

    monkeypatch.setattr(cli, "explore", no_runs)
    rc = main(["--axis", "mshrs=0,16", "--workloads", "HM", "--no-cache"])
    assert rc == 2
    assert "mshrs_per_cache must be >= 1" in capsys.readouterr().err


# -- end-to-end: grid sweep, artifacts, cache contract -----------------------


def run_cli(tmp_path, *extra):
    argv = [
        "--axis", "lh_wpq_entries=16,1",
        "--workloads", "HM",
        "--jobs", "1",
        "--cache-dir", str(tmp_path / "cache"),
        "--no-progress",
        *extra,
    ]
    return main(argv)


def test_grid_run_writes_identical_json_cold_and_warm(tmp_path, capsys):
    cold, warm = tmp_path / "cold.json", tmp_path / "warm.json"
    csv_path = tmp_path / "out.csv"
    assert run_cli(tmp_path, "--json", str(cold), "--csv", str(csv_path)) == 0
    md = capsys.readouterr().out
    assert "Pareto" in md and "lh_wpq_entries" in md
    # warm re-run: every cell cached, report byte-identical
    assert (
        run_cli(tmp_path, "--json", str(warm), "--require-cache-rate", "1.0")
        == 0
    )
    assert cold.read_bytes() == warm.read_bytes()

    report = json.loads(cold.read_text())
    assert report["driver"] == "grid"
    assert report["objective"] == {"name": "throughput", "maximize": True}
    assert len(report["points"]) == 2
    assert {"point", "objective", "area_bytes", "pareto"} <= set(
        report["points"][0]
    )
    header = csv_path.read_text().splitlines()[0]
    assert "lh_wpq_entries" in header and "throughput" in header


def test_require_cache_rate_fails_a_cold_run(tmp_path, capsys):
    rc = run_cli(tmp_path / "fresh", "--require-cache-rate", "1.0")
    assert rc == 1
    assert "cache rate" in capsys.readouterr().err


def test_space_file_merges_with_flag_overrides(tmp_path, capsys):
    spec = {
        "axes": {"lh_wpq_entries": [16, 1]},
        "workloads": ["HM", "Q"],
        "scheme": "asap",
    }
    path = tmp_path / "sweep.json"
    path.write_text(json.dumps(spec))
    rc = main(
        [
            "--space", str(path),
            "--workloads", "HM",  # flag narrows the file's workload list
            "--cache-dir", str(tmp_path / "cache"),
            "--no-progress",
            "--json", str(tmp_path / "out.json"),
        ]
    )
    assert rc == 0
    report = json.loads((tmp_path / "out.json").read_text())
    assert report["space"]["workloads"] == ["HM"]


def test_harness_cli_routes_the_explore_subcommand(capsys):
    assert harness_main(["explore", "--list-axes"]) == 0
    assert "sweepable axes" in capsys.readouterr().out
