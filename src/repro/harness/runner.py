"""Single-run plumbing shared by every experiment."""

from __future__ import annotations

from typing import Optional, Sequence, Union

from repro.common.params import SystemConfig
from repro.persist import make_scheme
from repro.sim.machine import Machine
from repro.sim.stats import RunResult
from repro.workloads import WorkloadParams, get_workload


def default_config(
    quick: bool = True,
    pm_latency_multiplier: float = 1.0,
    **asap_overrides,
) -> SystemConfig:
    """The benchmarking configuration.

    ``quick`` selects the scaled-down machine (smaller caches/WPQs so the
    paper's queueing effects appear within short runs); ``quick=False``
    uses the full Table 2 machine.
    """
    if quick:
        return SystemConfig.small(
            num_cores=8,
            wpq_entries=16,
            pm_latency_multiplier=pm_latency_multiplier,
            **asap_overrides,
        )
    cfg = SystemConfig()
    cfg = cfg.with_pm_multiplier(pm_latency_multiplier)
    if asap_overrides:
        from dataclasses import replace

        cfg = cfg.with_asap(replace(cfg.asap, **asap_overrides))
    return cfg


def default_params(quick: bool = True, value_bytes: int = 64) -> WorkloadParams:
    if quick:
        return WorkloadParams(
            num_threads=4, ops_per_thread=40, value_bytes=value_bytes, setup_items=48
        )
    return WorkloadParams(
        num_threads=8, ops_per_thread=120, value_bytes=value_bytes, setup_items=128
    )


def default_service_params(quick: bool = True, **overrides):
    """Service-family defaults (open-loop request workloads).

    Quick mode keeps the request count small enough for CI smokes while
    still queueing visibly once ``offered_load`` passes the knee.
    """
    from repro.workloads.service import ServiceParams

    base = (
        dict(num_threads=4, requests=96, setup_items=48)
        if quick
        else dict(num_threads=8, requests=1024, setup_items=128)
    )
    base.update(overrides)
    return ServiceParams(**base)


def build_machine(
    workload: Union[str, Sequence[str]],
    scheme: str,
    config: Optional[SystemConfig] = None,
    params: Optional[WorkloadParams] = None,
    fast: bool = False,
) -> Machine:
    """Build a machine with one scheme and one (or several co-run)
    workloads installed. Accepts a single Table 3 name or a sequence of
    names (co-run experiments install several on disjoint heaps).
    Inspected (:meth:`Machine.inspect`) unless ``fast``."""
    config = config or default_config()
    params = params or default_params()
    machine = Machine(config, make_scheme(scheme))
    if not fast:
        machine.inspect()
    names = (workload,) if isinstance(workload, str) else tuple(workload)
    for name in names:
        machine.install(get_workload(name, params))
    return machine


def run_once(
    workload: str,
    scheme: str,
    config: Optional[SystemConfig] = None,
    params: Optional[WorkloadParams] = None,
    sanitize: Union[bool, object] = False,
    fast: bool = False,
) -> RunResult:
    """Build a machine, install one workload under one scheme, run it.

    Args:
        sanitize: True attaches a fresh raising
            :class:`~repro.analysis.Sanitizer`; a ``Sanitizer`` instance is
            attached as-is (so callers can collect violations instead of
            raising).
        fast: attach no inspectors (no PM image, no commit oracle); the
            sanitizer sees the same events either way (docs/PERF.md).
    """
    machine = build_machine(workload, scheme, config, params, fast=fast)
    if sanitize:
        from repro.analysis.sanitizer import Sanitizer

        sanitizer = sanitize if isinstance(sanitize, Sanitizer) else Sanitizer()
        sanitizer.attach(machine)
    return machine.run()
