"""Unit tests for the configuration dataclasses (Table 2)."""

import pytest

from repro.common.errors import ConfigError
from repro.common.params import (
    AsapParams,
    CacheParams,
    CoreParams,
    MemoryParams,
    SystemConfig,
)


def test_default_config_matches_table2():
    cfg = SystemConfig()
    assert cfg.num_cores == 18
    assert cfg.l1.size_bytes == 32 * 1024 and cfg.l1.assoc == 8
    assert cfg.l2.size_bytes == 1024 * 1024 and cfg.l2.assoc == 16
    assert cfg.l3.size_bytes == 8 * 1024 * 1024
    assert cfg.memory.num_controllers == 2
    assert cfg.memory.channels_per_controller == 2
    assert cfg.memory.wpq_entries == 128
    assert cfg.asap.cl_list_entries == 4
    assert cfg.asap.clptr_slots == 8
    assert cfg.asap.dependence_list_entries == 128
    assert cfg.asap.dep_slots == 4
    assert cfg.asap.lh_wpq_entries == 128
    assert cfg.asap.dpo_distance == 4


def test_cache_params_validation():
    with pytest.raises(ConfigError):
        CacheParams(0, 8, 4)
    with pytest.raises(ConfigError):
        CacheParams(1000, 8, 4)  # not divisible into 64B ways


def test_cache_num_sets():
    c = CacheParams(32 * 1024, 8, 4)
    assert c.num_sets == 64


def test_memory_params_validation():
    with pytest.raises(ConfigError):
        MemoryParams(num_controllers=0)
    with pytest.raises(ConfigError):
        MemoryParams(wpq_entries=0)
    with pytest.raises(ConfigError):
        MemoryParams(pm_latency_multiplier=0)


def test_mshrs_per_cache_must_be_at_least_one():
    # 1 is the blocking-cache comparator; there is no pre-MSHR mode below it
    for bad in (0, -1):
        with pytest.raises(ConfigError, match=r">= 1.*1 is the blocking"):
            MemoryParams(mshrs_per_cache=bad)
    assert MemoryParams(mshrs_per_cache=1).mshrs_per_cache == 1


def test_effective_pm_latencies_scale():
    m = MemoryParams(pm_latency_multiplier=4)
    assert m.effective_pm_read_latency == 4 * MemoryParams().pm_read_latency
    assert m.effective_pm_write_service == 4 * MemoryParams().pm_write_service


def test_asap_ablation_flags():
    base = AsapParams()
    no_opt = base.ablation("no_opt")
    assert not (no_opt.lpo_dropping or no_opt.dpo_coalescing or no_opt.dpo_dropping)
    c = base.ablation("+C")
    assert c.dpo_coalescing and not c.lpo_dropping and not c.dpo_dropping
    clp = base.ablation("+C+LP")
    assert clp.dpo_coalescing and clp.lpo_dropping and not clp.dpo_dropping
    full = base.ablation("full")
    assert full.dpo_coalescing and full.lpo_dropping and full.dpo_dropping


def test_asap_ablation_unknown_name():
    with pytest.raises(ConfigError):
        AsapParams().ablation("bogus")


def test_with_pm_multiplier_returns_new_config():
    cfg = SystemConfig()
    fast = cfg.with_pm_multiplier(16)
    assert fast.memory.pm_latency_multiplier == 16
    assert cfg.memory.pm_latency_multiplier == 1.0


def test_small_config_overrides():
    cfg = SystemConfig.small(num_cores=2, wpq_entries=4, lh_wpq_entries=3)
    assert cfg.num_cores == 2
    assert cfg.memory.wpq_entries == 4
    assert cfg.asap.lh_wpq_entries == 3


def test_core_params_validation():
    with pytest.raises(ConfigError):
        CoreParams(base_op_cost=-1)


def test_invalid_asap_geometry():
    with pytest.raises(ConfigError):
        AsapParams(cl_list_entries=0)
    with pytest.raises(ConfigError):
        AsapParams(dpo_distance=0)
    with pytest.raises(ConfigError):
        AsapParams(log_data_entries_per_record=0)
