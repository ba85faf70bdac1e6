"""Property tests for the open-loop service subsystem (docs/SERVICE.md).

The serve-bench determinism contract rests on three pure components:
Zipfian key sampling, Poisson arrival generation, and the fixed-bucket
latency histogram. Each is checked here in isolation - the end-to-end
byte-identity across job counts and cache states is pinned in
tests/integration/test_harness.py, and reference-vs-fast identity in
tests/integration/test_vectorized_diff.py.
"""

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.common.errors import ConfigError
from repro.workloads.service import (
    LatencyHistogram,
    ServiceParams,
    ZipfSampler,
    bucket_index,
    bucket_upper,
    poisson_arrivals,
)

# -- bucket scheme -----------------------------------------------------------


@settings(max_examples=200, deadline=None)
@given(v=st.integers(0, 1 << 40))
def test_bucket_roundtrip_and_error_bound(v):
    b = bucket_index(v)
    upper = bucket_upper(b)
    # the reported value never understates the latency...
    assert upper >= v
    # ...and overstates it by at most 12.5% (exact below 16 cycles)
    if v < 16:
        assert upper == v
    else:
        assert upper <= v + v // 8


@settings(max_examples=100, deadline=None)
@given(a=st.integers(0, 1 << 30), b=st.integers(0, 1 << 30))
def test_bucket_index_monotone(a, b):
    lo, hi = sorted((a, b))
    assert bucket_index(lo) <= bucket_index(hi)


def test_bucket_uppers_are_bucket_fixed_points():
    # every bucket's upper bound maps back to that bucket, so percentile
    # values are stable under re-recording
    for b in range(400):
        assert bucket_index(bucket_upper(b)) == b


# -- histogram ---------------------------------------------------------------


@settings(max_examples=60, deadline=None)
@given(latencies=st.lists(st.integers(0, 1 << 24), min_size=1, max_size=200))
def test_histogram_order_independent(latencies):
    fwd, rev = LatencyHistogram(), LatencyHistogram()
    for v in latencies:
        fwd.record(v)
    for v in reversed(latencies):
        rev.record(v)
    assert fwd.as_dict() == rev.as_dict()
    for pm in (500, 900, 990, 999):
        assert fwd.percentile(pm) == rev.percentile(pm)


@settings(max_examples=60, deadline=None)
@given(latencies=st.lists(st.integers(0, 1 << 24), min_size=1, max_size=200))
def test_histogram_percentiles_monotone_and_bounded(latencies):
    hist = LatencyHistogram()
    for v in latencies:
        hist.record(v)
    p50, p90, p99, p999 = (hist.percentile(pm) for pm in (500, 900, 990, 999))
    assert p50 <= p90 <= p99 <= p999
    assert p999 == bucket_upper(bucket_index(max(latencies)))
    assert p50 >= min(latencies)


def test_empty_histogram_reports_zero():
    assert LatencyHistogram().percentile(999) == 0


# -- Zipfian sampling --------------------------------------------------------


@settings(max_examples=40, deadline=None)
@given(
    n=st.integers(1, 200),
    theta=st.floats(0.0, 3.0, allow_nan=False),
    seed=st.integers(0, 2**20),
)
def test_zipf_in_range_and_seed_deterministic(n, theta, seed):
    zipf = ZipfSampler(n, theta)
    a = [zipf.sample(random.Random(seed)) for _ in range(1)]
    runs = [
        [zipf.sample(rng) for _ in range(50)]
        for rng in (random.Random(seed), random.Random(seed))
    ]
    assert runs[0] == runs[1]
    assert all(0 <= r < n for r in runs[0])
    assert a[0] == runs[0][0]


def test_zipf_cdf_shape():
    zipf = ZipfSampler(64, 0.99)
    assert zipf.cdf == sorted(zipf.cdf)
    assert zipf.cdf[-1] == 1.0
    # rank-0 weight is the largest single step under positive skew
    steps = [zipf.cdf[0]] + [
        b - a for a, b in zip(zipf.cdf, zipf.cdf[1:])
    ]
    assert steps[0] == max(steps)


def test_zipf_skew_concentrates_on_hot_ranks():
    rng = random.Random(7)
    skewed = ZipfSampler(100, 0.99)
    counts = [0] * 100
    for _ in range(4000):
        counts[skewed.sample(rng)] += 1
    # YCSB-style skew: the hottest decile absorbs well over half the mass
    assert sum(counts[:10]) > 2000 > counts[50]
    # theta=0 is uniform: no rank should get a Zipf-like share
    rng = random.Random(7)
    uniform = ZipfSampler(100, 0.0)
    counts = [0] * 100
    for _ in range(4000):
        counts[uniform.sample(rng)] += 1
    assert max(counts) < 100


def test_zipf_rejects_empty_population():
    with pytest.raises(ConfigError):
        ZipfSampler(0, 0.99)


# -- Poisson arrivals --------------------------------------------------------


@settings(max_examples=40, deadline=None)
@given(
    count=st.integers(0, 200),
    load=st.floats(0.1, 64.0, allow_nan=False),
    seed=st.integers(0, 2**20),
)
def test_arrivals_deterministic_and_ordered(count, load, seed):
    a = poisson_arrivals(count, load, random.Random(seed))
    b = poisson_arrivals(count, load, random.Random(seed))
    assert a == b
    assert len(a) == count
    assert a == sorted(a)
    assert all(t >= 0 for t in a)


def test_arrival_rate_matches_offered_load():
    # 4 req/kcycle over 4000 arrivals: the final timestamp estimates the
    # mean interarrival of 250 cycles to within a few percent
    arrivals = poisson_arrivals(4000, 4.0, random.Random(3))
    mean_gap = arrivals[-1] / 4000
    assert 230 < mean_gap < 270


# -- parameter validation ----------------------------------------------------


@pytest.mark.parametrize(
    "overrides",
    [
        dict(offered_load=0.0),
        dict(offered_load=-1.0),
        dict(skew=-0.1),
        dict(read_fraction=1.5),
        dict(read_fraction=-0.5),
        dict(requests=-1),
    ],
)
def test_service_params_validation(overrides):
    with pytest.raises(ConfigError):
        ServiceParams(**overrides)


def test_service_params_from_base_keeps_shared_fields():
    from repro.workloads import WorkloadParams

    base = WorkloadParams(num_threads=2, value_bytes=512, seed=9)
    upgraded = ServiceParams.from_base(base, offered_load=2.0)
    assert upgraded.num_threads == 2
    assert upgraded.value_bytes == 512
    assert upgraded.seed == 9
    assert upgraded.offered_load == 2.0


# -- the full precomputed schedule -------------------------------------------


def test_install_schedule_is_a_pure_function_of_params():
    """Two installs with equal params produce identical request schedules
    (arrival cycle, read/write mix, key rank) - the property that makes
    serve-bench rows independent of job count and cache state."""
    from repro.analysis.linter import LintMachine
    from repro.common.params import SystemConfig
    from repro.workloads import get_workload

    params = ServiceParams(num_threads=2, requests=64, setup_items=16)

    def schedule_of():
        machine = LintMachine(SystemConfig.small())
        wl = get_workload("SVC", params)
        machine.install(wl)
        zipf = ZipfSampler(len(wl.population), params.skew)
        sched_rng = random.Random(params.seed + 71)
        arrivals = poisson_arrivals(
            params.requests, params.offered_load, random.Random(params.seed + 72)
        )
        return [
            (arrivals[i], sched_rng.random() < params.read_fraction,
             zipf.sample(sched_rng))
            for i in range(params.requests)
        ]

    assert schedule_of() == schedule_of()
