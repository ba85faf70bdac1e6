"""The parallel run layer: RunSpec cells, the process pool, the cache.

Determinism is the load-bearing property: for any job count and any cache
state, an experiment's assembled rows must be identical to the historical
serial runner's. CI additionally asserts byte-identical ``--json`` output
for ``--jobs 1`` vs ``--jobs 4``.
"""

import dataclasses

import pytest

from repro.common.errors import CellError, ConfigError
from repro.harness.parallel import (
    CellResult,
    ResultCache,
    RunSpec,
    execute,
    run_cell,
    simulator_fingerprint,
)
from repro.harness.runner import default_config, default_params, run_once
from repro.harness.experiments import ablations, fig7


def _spec(key=("HM", "np"), scheme="np", **overrides):
    base = dict(
        key=key,
        workload="HM",
        scheme=scheme,
        config=default_config(True),
        params=default_params(True),
    )
    base.update(overrides)
    return RunSpec(**base)


# -- run_cell ---------------------------------------------------------------


def test_run_cell_matches_run_once():
    cell = run_cell(_spec())
    direct = run_once("HM", "np", default_config(True), default_params(True))
    assert cell.result.pm_writes == direct.pm_writes
    assert cell.result.cycles == direct.cycles
    assert cell.wall_seconds > 0 and not cell.cached


def test_run_cell_harvests_extras_from_builder_machine():
    spec = RunSpec(
        key=("fence", 4),
        builder="repro.harness.experiments.ablations:_fence_machine",
        builder_kwargs=(("batch", 4),),
        extras=(("commits", "scheme.stats.commits"),),
    )
    cell = run_cell(spec)
    assert cell.extras["commits"] > 0


# -- execute ----------------------------------------------------------------


def test_execute_parallel_identical_to_serial():
    specs = fig7.plan(quick=True, workloads=["HM"], sizes=[64]).specs
    serial = execute(specs, jobs=1)
    parallel = execute(specs, jobs=2)
    assert list(serial) == list(parallel)  # key order follows spec order
    for key in serial:
        assert serial[key].result.pm_writes == parallel[key].result.pm_writes
        assert serial[key].result.cycles == parallel[key].result.cycles


def test_execute_rejects_duplicate_keys():
    with pytest.raises(ConfigError):
        execute([_spec(), _spec()])


def _raising_builder(**_kwargs):
    raise RuntimeError("builder exploded")


@pytest.mark.parametrize("jobs", [1, 2])
def test_failing_cell_names_itself(jobs):
    bad = RunSpec(
        key=("bad", jobs),
        workload="HM",
        scheme="asap",
        builder=f"{__name__}:_raising_builder",
    )
    with pytest.raises(CellError) as err:
        execute([_spec(), bad], jobs=jobs)
    message = str(err.value)
    for part in (repr(bad.key), "'asap'", "'HM'", bad.cache_token()):
        assert part in message
    assert err.value.key == bad.key
    assert err.value.cache_token == bad.cache_token()
    assert isinstance(err.value.__cause__, RuntimeError)
    assert "builder exploded" in str(err.value.__cause__)


def test_execute_reports_progress_in_order():
    specs = [_spec(key=("a",)), _spec(key=("b",), scheme="sw")]
    seen = []
    execute(specs, progress=lambda done, total, spec, cell: seen.append((done, total)))
    assert seen == [(1, 2), (2, 2)]


def test_sanitize_travels_inside_specs(tmp_path):
    # execute() stamps the flag onto each spec before the cache lookup, so
    # worker processes see it without any process-global default
    specs = [_spec(key=("a",)), _spec(key=("b",), scheme="sw")]
    for jobs in (1, 2):
        cache = ResultCache(str(tmp_path / f"jobs{jobs}"))
        execute(specs, jobs=jobs, cache=cache, sanitize=True)
        for spec in specs:
            assert cache.get(dataclasses.replace(spec, sanitize=True)) is not None
            assert cache.get(spec) is None


# -- the cache --------------------------------------------------------------


def test_cache_miss_then_hit(tmp_path):
    cache = ResultCache(str(tmp_path))
    spec = _spec()
    assert cache.get(spec) is None
    cell = run_cell(spec)
    cache.put(spec, cell)
    hit = cache.get(spec)
    assert hit is not None and hit.cached
    assert hit.result.pm_writes == cell.result.pm_writes
    assert cache.hits == 1 and cache.misses == 1


def test_cache_invalidated_by_config_params_scheme_and_workload(tmp_path):
    cache = ResultCache(str(tmp_path))
    spec = _spec()
    cache.put(spec, run_cell(spec))
    assert cache.get(spec) is not None
    changed = [
        dataclasses.replace(spec, config=default_config(True, pm_latency_multiplier=2)),
        dataclasses.replace(spec, params=default_params(True, value_bytes=128)),
        dataclasses.replace(spec, scheme="sw"),
        dataclasses.replace(spec, workload="SS"),
        dataclasses.replace(spec, sanitize=True),
    ]
    for other in changed:
        assert cache.get(other) is None, other


def test_cache_shares_identical_cells_across_keys(tmp_path):
    # content-addressed: the same cell under a different experiment's key
    # hits, and the returned CellResult is re-labelled for the requester
    cache = ResultCache(str(tmp_path))
    spec = _spec(key=("fig7", "HM", "np"))
    cache.put(spec, run_cell(spec))
    other = dataclasses.replace(spec, key=("fig8", "HM", 64, "NP"))
    hit = cache.get(other)
    assert hit is not None and hit.key == ("fig8", "HM", 64, "NP")


def test_cache_tolerates_corrupt_entries(tmp_path):
    cache = ResultCache(str(tmp_path))
    spec = _spec()
    cache.put(spec, run_cell(spec))
    path = cache._path(spec.cache_token())
    with open(path, "wb") as fh:
        fh.write(b"not a pickle")
    assert cache.get(spec) is None  # counts as a miss, no crash


def test_execute_uses_cache_and_rows_survive(tmp_path):
    cache = ResultCache(str(tmp_path))
    plan = fig7.plan(quick=True, workloads=["HM"], sizes=[64])
    cold = plan.assemble(execute(plan.specs, cache=cache))
    warm_cells = execute(plan.specs, cache=cache)
    assert all(cell.cached for cell in warm_cells.values())
    warm = plan.assemble(warm_cells)
    assert cold.rows == warm.rows


def test_builder_cells_cache_by_kwargs(tmp_path):
    cache = ResultCache(str(tmp_path))
    plan = ablations.plan_fence_batching(quick=True)
    execute(plan.specs, cache=cache)
    assert cache.hits == 0
    execute(plan.specs, cache=cache)
    assert cache.hits == len(plan.specs)


def test_fingerprint_is_stable_within_a_process():
    assert simulator_fingerprint() == simulator_fingerprint()
    assert len(simulator_fingerprint()) == 64


def test_cell_result_defaults():
    cell = CellResult(key=("x",), result=None)
    assert cell.extras == {} and not cell.cached
