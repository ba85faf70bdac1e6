"""Workload-level crash fuzzing: real data structures, random crash points.

Heavier than the synthetic-program fuzzers but closer to the paper's
actual usage: hypothesis picks a Table 3 workload, parameters, a scheme
(undo or redo ASAP), and a crash fraction; recovery must reproduce the
oracle image and the structure validators must accept the result.
"""

from hypothesis import HealthCheck, given, settings, strategies as st

from repro.harness.fuzz import FuzzCase, build_machine, check_crash, crash_cycles
from repro.workloads import workload_names


@settings(
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)
@given(
    workload=st.sampled_from(workload_names()),
    scheme=st.sampled_from(["asap", "asap_redo"]),
    seed=st.integers(0, 50),
    threads=st.integers(1, 3),
    crash_frac=st.floats(0.1, 0.95),
)
def test_workload_crash_recovery_fuzz(workload, scheme, seed, threads, crash_frac):
    case = FuzzCase(
        scheme,
        threads=[],
        wpq_entries=16,
        workload=workload,
        workload_params=dict(
            num_threads=threads, ops_per_thread=8, setup_items=12, seed=seed
        ),
    )
    total = build_machine(case).run().cycles
    (cycle,) = crash_cycles(total, fracs=[crash_frac])
    check = check_crash(case, cycle)
    assert not check.problems, (workload, scheme, check.failures)
