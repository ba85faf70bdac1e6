"""Runtime invariant sanitizer: clean real runs, seeded protocol breaks."""

import pytest

from repro.analysis import Sanitizer, build_report
from repro.common.errors import SanitizerError, SimulationError
from repro.persist.asap import AsapScheme
from repro.harness.runner import default_config, default_params, run_once
from repro.mem.wpq import DPO, LPO

PM_LINE = 0x1000_0000_0000
LOG_LINE = 0x2000_0000_0000


# -- fakes for driving individual handlers ---------------------------------


class FakeSized:
    """Anything with an occupancy and a capacity (CL List, LH-WPQ, ...)."""

    def __init__(self, size, capacity, name="fake"):
        self._size = size
        self.max_entries = capacity  # CL/Dependence List spelling
        self.capacity = capacity  # WPQ/LH-WPQ spelling
        self.name = name
        self.channel_index = 0

    def __len__(self):
        return self._size


class FakeThread:
    core_id = 0


class FakeEngine:
    def __init__(self, cl=None, dep_entry=None):
        self.cl_lists = [cl or FakeSized(1, 8)]
        self.lh_wpqs = []
        self._dep_entry = dep_entry

    def dep_list_for(self, rid):
        return self

    def entry(self, rid):
        return self._dep_entry


class FakeOp:
    def __init__(self, kind, rid=None, target_line=None, data_line=None):
        self.kind = kind
        self.rid = rid
        self.target_line = target_line
        self.data_line = data_line


class FakeClEntry:
    def __init__(self, rid, slots, max_slots):
        self.rid = rid
        self.slots = dict.fromkeys(range(slots))
        self.max_slots = max_slots


class FakeDepEntry:
    def __init__(self, deps, max_deps):
        self.deps = set(range(deps))
        self.max_deps = max_deps


def collecting():
    return Sanitizer(raise_on_violation=False)


def begin(san, engine, rid):
    san.region_begun(engine, FakeThread(), rid)


# -- seeded violations, one rule at a time ---------------------------------


def test_dpo_before_log_durable_fires_S001():
    san = collecting()
    engine = FakeEngine()
    begin(san, engine, 0xA)
    san.wpq_accepted(FakeSized(1, 8), FakeOp(DPO, rid=0xA, target_line=PM_LINE))
    (v,) = san.violations
    assert v.rule_id == "ASAP-S001"
    assert v.details["line"] == PM_LINE


def test_dpo_after_log_durable_is_clean():
    san = collecting()
    engine = FakeEngine()
    begin(san, engine, 0xA)
    san.lpo_logged(engine, 0xA, PM_LINE)
    san.wpq_accepted(FakeSized(1, 8), FakeOp(DPO, rid=0xA, target_line=PM_LINE))
    assert san.violations == []


def test_locked_line_eviction_fires_S001():
    class Meta:
        line = PM_LINE
        lock_bit = True
        owner_rid = 0xA

    san = collecting()
    san.line_evicted(Meta(), wb_op=None)
    (v,) = san.violations
    assert v.rule_id == "ASAP-S001"
    assert v.source == "llc"


def test_commit_before_predecessor_fires_S002():
    san = collecting()
    engine = FakeEngine()
    begin(san, engine, 0xA)
    begin(san, engine, 0xB)
    san.dep_captured(engine, 0xB, 0xA)
    san.region_committed(engine, 0xB)  # 0xA still uncommitted
    (v,) = san.violations
    assert v.rule_id == "ASAP-S002"
    assert v.details["outstanding"] == [0xA]


def test_commit_after_predecessor_is_clean():
    san = collecting()
    engine = FakeEngine()
    begin(san, engine, 0xA)
    begin(san, engine, 0xB)
    san.dep_captured(engine, 0xB, 0xA)
    san.region_committed(engine, 0xA)
    san.region_committed(engine, 0xB)
    assert san.violations == []


@pytest.mark.parametrize(
    "fire",
    [
        lambda san: begin(san, FakeEngine(cl=FakeSized(9, 8)), 0xA),
        lambda san: san.dep_captured(
            FakeEngine(dep_entry=FakeDepEntry(deps=5, max_deps=4)), 0xA, 0xB
        ),
        lambda san: san.slot_opened(
            FakeEngine(), FakeClEntry(0xA, slots=5, max_slots=4), PM_LINE
        ),
        lambda san: san.dep_entry_opened(FakeSized(17, 16), object()),
        lambda san: san.wpq_accepted(FakeSized(17, 16), FakeOp(DPO)),
    ],
    ids=["cl-list", "dep-slots", "clptr-slots", "dep-list", "wpq"],
)
def test_capacity_overflow_fires_S003(fire):
    san = collecting()
    fire(san)
    assert [v.rule_id for v in san.violations] == ["ASAP-S003"]
    assert san.violations[0].details["occupancy"] > san.violations[0].details["capacity"]


def test_lh_wpq_overflow_fires_S003():
    san = collecting()
    engine = FakeEngine()
    engine.lh_wpqs = [FakeSized(5, 4, name="lh-wpq[0]")]
    san.lpo_initiated(engine, 0xA, PM_LINE, LOG_LINE)
    (v,) = san.violations
    assert v.rule_id == "ASAP-S003"
    assert v.source == "lh-wpq[0]"


def test_lpo_for_committed_region_fires_S004():
    san = collecting()
    engine = FakeEngine()
    begin(san, engine, 0xA)
    san.region_committed(engine, 0xA)
    san.lpo_initiated(engine, 0xA, PM_LINE, LOG_LINE)
    (v,) = san.violations
    assert v.rule_id == "ASAP-S004"


def test_lpo_accepted_after_log_free_fires_S004():
    san = collecting()
    engine = FakeEngine()
    begin(san, engine, 0xA)
    san.region_committed(engine, 0xA)
    san.wpq_accepted(
        FakeSized(1, 8), FakeOp(LPO, rid=0xA, target_line=LOG_LINE, data_line=PM_LINE)
    )
    (v,) = san.violations
    assert v.rule_id == "ASAP-S004"


class FakeHierarchy:
    def __init__(self, mshrs=None):
        self.llc_mshrs = mshrs


def test_duplicate_fetch_fires_S005():
    san = collecting()
    h = FakeHierarchy(FakeSized(1, 16, name="MSHR-LLC"))
    san.mshr_allocated(h, PM_LINE, 0)
    assert san.ok
    san.mshr_allocated(h, PM_LINE, 1)  # second fetch must merge instead
    (v,) = san.violations
    assert v.rule_id == "ASAP-S005"


def test_merge_without_inflight_fetch_fires_S005():
    san = collecting()
    san.mshr_merged(FakeHierarchy(), PM_LINE, 0)
    (v,) = san.violations
    assert v.rule_id == "ASAP-S005"


def test_fill_lifecycle_is_clean_and_zero_waiter_fill_fires_S005():
    san = collecting()
    h = FakeHierarchy(FakeSized(1, 16, name="MSHR-LLC"))
    san.mshr_allocated(h, PM_LINE, 0)
    san.mshr_merged(h, PM_LINE, 1)
    san.mshr_stalled(h, PM_LINE + 64, 2)
    san.mshr_filled(h, PM_LINE, waiters=2)
    assert san.ok
    # a line can be fetched again after its fill completed
    san.mshr_allocated(h, PM_LINE, 0)
    san.mshr_filled(h, PM_LINE, waiters=0)  # but never with no requester
    (v,) = san.violations
    assert v.rule_id == "ASAP-S005"


def test_mshr_capacity_bypass_fires_S003():
    san = collecting()
    h = FakeHierarchy(FakeSized(3, 2, name="MSHR-LLC"))  # 3 entries, cap 2
    san.mshr_allocated(h, PM_LINE, 0)
    assert any(v.rule_id == "ASAP-S003" for v in san.violations)


def test_raise_mode_carries_violation():
    san = Sanitizer()  # raise_on_violation defaults to True
    engine = FakeEngine()
    begin(san, engine, 0xA)
    with pytest.raises(SanitizerError) as exc:
        san.wpq_accepted(FakeSized(1, 8), FakeOp(DPO, rid=0xA, target_line=PM_LINE))
    assert exc.value.violation.rule_id == "ASAP-S001"
    assert isinstance(exc.value, SimulationError)
    assert "ASAP-S001" in str(exc.value)


# -- full-machine integration ----------------------------------------------


def small_run(sanitize):
    from repro.workloads import WorkloadParams

    params = WorkloadParams(num_threads=2, ops_per_thread=10, setup_items=16)
    return run_once("Q", "asap", default_config(), params, sanitize=sanitize)


def test_asap_run_is_sanitizer_clean():
    san = collecting()
    result = small_run(san)
    assert result.cycles > 0
    assert san.ok
    assert san.violations == []
    assert san.events_checked > 0


def test_sanitize_true_attaches_fresh_raising_sanitizer():
    # A healthy run must complete without the raising sanitizer firing.
    result = small_run(True)
    assert result.cycles > 0


@pytest.mark.parametrize("mshrs", [1, 16])
def test_mshr_modes_run_sanitizer_clean(mshrs):
    # The non-blocking hierarchy's live events (allocate/merge/fill/stall)
    # must satisfy ASAP-S005 under both exhaustion-heavy (1 MSHR) and
    # default capacities.
    from dataclasses import replace as dc_replace

    from repro.workloads import WorkloadParams

    san = collecting()
    config = default_config()
    config = dc_replace(config, memory=dc_replace(config.memory, mshrs_per_cache=mshrs))
    params = WorkloadParams(num_threads=2, ops_per_thread=10, setup_items=16)
    result = run_once("HM", "asap", config, params, sanitize=san)
    assert result.cycles > 0
    assert san.ok
    assert san.events_checked > 0


def test_baseline_scheme_gets_scheme_agnostic_hooks_only():
    san = collecting()
    params_result = run_once(
        "Q",
        "np",
        sanitize=san,
    )
    assert params_result.cycles > 0
    assert san.violations == []


def test_skipped_lpo_is_caught_end_to_end(monkeypatch):
    # Break the WAL contract for real: never issue the LPO, so the first
    # DPO of every region reaches a WPQ with no durable log entry.
    monkeypatch.setattr(
        AsapScheme,
        "_initiate_lpo",
        lambda self, thread, rid, meta, old_snapshot, then: then(),
    )
    with pytest.raises(SanitizerError) as exc:
        small_run(True)
    assert exc.value.violation.rule_id == "ASAP-S001"


def test_sanitize_report_shape():
    san = collecting()
    result = small_run(san)
    report = build_report(
        "sanitize",
        [
            {
                "workload": "Q",
                "scheme": "asap",
                "cycles": result.cycles,
                "violations": [v.to_dict() for v in san.violations],
                "events_checked": san.events_checked,
            }
        ],
    )
    assert report["pass"] == "sanitize"
    assert report["summary"]["ok"] is True
    assert report["summary"]["events_checked"] == san.events_checked
    assert {r["id"] for r in report["rules"]} == {
        "ASAP-S001",
        "ASAP-S002",
        "ASAP-S003",
        "ASAP-S004",
        "ASAP-S005",
    }
