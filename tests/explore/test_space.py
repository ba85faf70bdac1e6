"""Axis resolution and sweep-space construction.

The contract under test: a typo - axis name or value - fails at space
construction, never after simulations have started.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.common.errors import ConfigError
from repro.common.params import (
    AXIS_ALIASES,
    SystemConfig,
    apply_axis_values,
    resolve_axis,
    sweepable_axes,
)
from repro.explore.space import Axis, SweepSpace, point_label
from repro.workloads import WorkloadParams


# -- resolve_axis ------------------------------------------------------------


def test_canonical_bare_and_alias_names_resolve_to_the_same_target():
    canonical = resolve_axis("asap.lh_wpq_entries")
    assert canonical.group == "asap" and canonical.field == "lh_wpq_entries"
    assert resolve_axis("lh_wpq_entries") == canonical
    # the evaluation shorthand from the paper discussion
    assert resolve_axis("dep_list_entries").field == "dependence_list_entries"


def test_every_alias_points_at_a_real_axis():
    registry = sweepable_axes()
    for alias, canonical in AXIS_ALIASES.items():
        assert canonical in registry, alias


def test_unknown_axis_fails_fast_with_suggestion():
    with pytest.raises(ConfigError, match="lh_wpq_entries"):
        resolve_axis("lh_wqp_entries")  # transposed typo


def test_ambiguous_bare_name_is_rejected():
    # "seed" exists only on WorkloadParams, but a name appearing in two
    # groups must raise; craft one via the registry to stay honest
    registry = sweepable_axes()
    fields = {}
    ambiguous = None
    for target in registry.values():
        if target.field in fields and fields[target.field] != target.group:
            ambiguous = target.field
            break
        fields[target.field] = target.group
    if ambiguous is None:
        pytest.skip("no ambiguous bare field name in the current dataclasses")
    with pytest.raises(ConfigError, match="ambiguous"):
        resolve_axis(ambiguous)


def test_non_scalar_fields_are_not_sweepable():
    assert "memory.numa_remote_channels" not in sweepable_axes()
    with pytest.raises(ConfigError):
        resolve_axis("numa_remote_channels")


@pytest.mark.parametrize("name", ["dram_write_service", "lock_spin_recheck"])
def test_unread_fields_are_not_sweepable(name):
    # no simulator code read either field: sweeping them changed nothing
    with pytest.raises(ConfigError):
        resolve_axis(name)


# -- apply_axis_values -------------------------------------------------------


def test_apply_axis_values_touches_exactly_the_named_fields():
    config, params = apply_axis_values(
        SystemConfig(),
        WorkloadParams(),
        {"lh_wpq_entries": 16, "wpq_entries": 64, "num_threads": 2},
    )
    assert config.asap.lh_wpq_entries == 16
    assert config.memory.wpq_entries == 64
    assert params.num_threads == 2
    # untouched fields keep their defaults
    assert config.asap.dependence_list_entries == 128
    assert config.num_cores == 18


def test_apply_axis_values_runs_dataclass_validation():
    with pytest.raises(ConfigError):
        apply_axis_values(SystemConfig(), WorkloadParams(), {"lh_wpq_entries": 0})


def test_apply_axis_values_rejects_wrong_types():
    with pytest.raises(ConfigError, match="expects int"):
        apply_axis_values(SystemConfig(), None, {"lh_wpq_entries": 2.5})
    with pytest.raises(ConfigError, match="expects"):
        apply_axis_values(SystemConfig(), None, {"lpo_dropping": 3})
    with pytest.raises(ConfigError, match="expects"):
        apply_axis_values(SystemConfig(), None, {"lh_wpq_entries": True})


def test_workload_axis_without_params_is_an_error():
    with pytest.raises(ConfigError, match="WorkloadParams"):
        apply_axis_values(SystemConfig(), None, {"num_threads": 2})


# -- Axis / SweepSpace -------------------------------------------------------


def test_axis_expands_linear_and_log2_ranges():
    lin = Axis.of("lh_wpq_entries", {"start": 2, "stop": 8, "num": 4})
    assert lin.values == (2, 4, 6, 8)
    log = Axis.of("lh_wpq_entries", {"start": 4, "stop": 32, "num": 4, "scale": "log2"})
    assert log.values == (4, 8, 16, 32)


def test_axis_rejects_empty_duplicate_and_bad_ranges():
    with pytest.raises(ConfigError):
        Axis.of("lh_wpq_entries", [])
    with pytest.raises(ConfigError):
        Axis.of("lh_wpq_entries", [4, 4])
    with pytest.raises(ConfigError):
        Axis.of("lh_wpq_entries", {"start": 1})
    with pytest.raises(ConfigError):
        Axis.of("lh_wpq_entries", {"start": 1, "stop": 8, "scale": "log3"})


def test_axis_midpoint_bisects_ints_and_stops_at_adjacent():
    axis = Axis.of("lh_wpq_entries", [2, 32])
    assert axis.midpoint(2, 32) == 17
    assert axis.midpoint(2, 3) is None


def test_space_build_validates_every_axis_value_up_front():
    with pytest.raises(ConfigError):
        SweepSpace.build(
            axes={"lh_wpq_entries": [8, 0]}, workloads=["HM"]
        )
    with pytest.raises(ConfigError, match="unknown workload"):
        SweepSpace.build(axes={"lh_wpq_entries": [8]}, workloads=["NOPE"])
    with pytest.raises(ConfigError, match="at least one axis"):
        SweepSpace.build(axes={}, workloads=["HM"])


def test_space_rejects_baseline_overlapping_an_axis():
    with pytest.raises(ConfigError, match="baseline"):
        SweepSpace.build(
            axes={"lh_wpq_entries": [4, 8]},
            workloads=["HM"],
            baseline={"asap.lh_wpq_entries": 16},
        )


def test_space_round_trips_through_dict():
    space = SweepSpace.build(
        axes={"lh_wpq_entries": [4, 16], "dep_list_entries": [8, 32]},
        workloads=["HM", "Q"],
        scheme="asap",
        baseline={"wpq_entries": 16},
    )
    again = SweepSpace.from_dict(space.to_dict())
    assert again == space
    with pytest.raises(ConfigError, match="unknown sweep-space keys"):
        SweepSpace.from_dict({"axes": {}, "workloads": [], "driver": "grid"})


def test_grid_center_and_point():
    space = SweepSpace.build(
        axes={"lh_wpq_entries": [2, 8, 32], "dep_list_entries": [4, 16]},
        workloads=["HM"],
    )
    grid = space.grid()
    assert len(grid) == 6
    assert grid[0] == (
        ("asap.lh_wpq_entries", 2),
        ("asap.dependence_list_entries", 4),
    )
    assert space.center_point() == (
        ("asap.lh_wpq_entries", 8),
        ("asap.dependence_list_entries", 4),
    )
    p = space.point(dep_list_entries=16)
    assert dict(p)["asap.dependence_list_entries"] == 16
    with pytest.raises(ConfigError, match="not axes"):
        space.point(wpq_entries=4)
    assert point_label(p) == "lh_wpq_entries=2,dependence_list_entries=16"


def test_materialize_applies_baseline_then_point():
    space = SweepSpace.build(
        axes={"lh_wpq_entries": [4, 8]},
        workloads=["HM"],
        baseline={"wpq_entries": 16},
    )
    config, params = space.materialize(
        space.point(lh_wpq_entries=8), SystemConfig(), WorkloadParams()
    )
    assert config.asap.lh_wpq_entries == 8
    assert config.memory.wpq_entries == 16


# -- property: every mutation yields a valid config --------------------------

_INT_AXES = sorted(
    name
    for name, target in sweepable_axes().items()
    if target.kind is int and target.group in ("asap", "memory", "system")
)


@settings(max_examples=60, deadline=None)
@given(
    name=st.sampled_from(_INT_AXES),
    value=st.integers(1, 4096),
    data=st.data(),
)
def test_any_int_axis_mutation_yields_a_validated_config(name, value, data):
    """Axis application must produce a SystemConfig whose own
    ``__post_init__`` validation accepted the value - or raise ConfigError
    up front. It may never hand back a half-mutated config."""
    try:
        config, _ = apply_axis_values(SystemConfig(), None, {name: value})
    except ConfigError:
        return  # rejected fast - acceptable (e.g. watermark constraints)
    target = resolve_axis(name)
    group = config if target.group == "system" else getattr(config, target.group)
    assert getattr(group, target.field) == value
    # the returned object survives re-validation wholesale
    SystemConfig(**{
        f.name: getattr(config, f.name)
        for f in config.__dataclass_fields__.values()
    })
    # and a second mutation on a fresh axis composes with the first
    other = data.draw(st.sampled_from(_INT_AXES))
    if other != name:
        try:
            config2, _ = apply_axis_values(config, None, {other: 8})
        except ConfigError:
            return
        assert getattr(
            config2 if target.group == "system" else getattr(config2, target.group),
            target.field,
        ) == value
