"""Timeline tests using the tracer: *when* things happen, per scheme."""

import pytest

from repro.common.params import SystemConfig
from repro.persist import make_scheme, scheme_names
from repro.sim.machine import Machine
from repro.sim.ops import Begin, End, Write
from repro.sim.trace import BEGIN, COMMIT, END, PERSIST_ACCEPT, PERSIST_DRAIN, Tracer


def run_traced(scheme, regions=6, **kwargs):
    m = Machine(SystemConfig.small(**kwargs), make_scheme(scheme))
    tracer = Tracer(m)
    a = m.heap.alloc(64 * regions)

    def worker(env):
        for i in range(regions):
            yield Begin()
            yield Write(a + 64 * i, [i])
            yield End()

    m.spawn(worker)
    m.run()
    return m, tracer


@pytest.mark.parametrize("scheme", scheme_names())
def test_trace_records_all_region_events(scheme):
    m, tracer = run_traced(scheme)
    assert len(tracer.of_kind(BEGIN)) == 6
    assert len(tracer.of_kind(END)) == 6
    assert len(tracer.of_kind(COMMIT)) == 6


def test_asap_commits_lag_end_retirement():
    """The paper's asynchrony, visible in the timeline: commits happen
    strictly after End retires."""
    m, tracer = run_traced("asap")
    lags = tracer.commit_lags()
    assert len(lags) == 6
    assert all(lag > 0 for lag in lags)


def test_hwundo_commits_at_end_retirement():
    """Synchronous commit: durable exactly when End retires (lag 0)."""
    m, tracer = run_traced("hwundo")
    assert all(lag == 0 for lag in tracer.commit_lags())


def test_asap_commit_order_in_trace_is_monotone():
    m, tracer = run_traced("asap")
    commit_rids = [e.rid for e in tracer.of_kind(COMMIT)]
    assert commit_rids == sorted(commit_rids)


def test_persist_events_captured():
    m, tracer = run_traced("asap")
    accepts = tracer.of_kind(PERSIST_ACCEPT)
    assert any("lpo" in e.detail for e in accepts)
    assert any("dpo" in e.detail for e in accepts)
    # drains may be fewer than accepts (drops), never more
    assert len(tracer.of_kind(PERSIST_DRAIN)) <= len(accepts)


def test_region_timeline_query():
    m, tracer = run_traced("asap")
    from repro.core.rid import pack_rid

    timeline = tracer.region_timeline(pack_rid(0, 1))
    assert timeline["end"] is not None
    assert timeline["commit"] is not None
    assert timeline["commit"] > timeline["end"]


def test_csv_export_and_dump():
    m, tracer = run_traced("asap", regions=2)
    csv_text = tracer.to_csv()
    assert csv_text.startswith("cycle,kind,thread,rid,detail")
    assert "commit" in csv_text
    dump = tracer.dump(limit=10)
    assert dump.count("\n") <= 9


def test_tracer_attaches_to_threads_spawned_later():
    m = Machine(SystemConfig.small(), make_scheme("asap"))
    tracer = Tracer(m)
    a = m.heap.alloc(64)

    def worker(env):
        yield Begin()
        yield Write(a, [1])
        yield End()

    m.spawn(worker)  # spawned after the tracer attached
    m.run()
    assert len(tracer.of_kind(END)) == 1
