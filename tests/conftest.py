"""Shared fixtures: small machines, scheme factories, mini-workloads."""

from dataclasses import replace

import pytest

from repro.common.params import SystemConfig
from repro.persist import make_scheme, scheme_names
from repro.sim.machine import Machine
from repro.sim.ops import Begin, End, Lock, Read, Unlock, Write


@pytest.fixture
def small_config():
    return SystemConfig.small()


@pytest.fixture
def make_machine():
    """Factory: make_machine('asap', wpq_entries=8, ...) -> Machine."""

    def factory(scheme="asap", **config_kwargs):
        return Machine(SystemConfig.small(**config_kwargs), make_scheme(scheme))

    return factory


def counter_worker(machine, addr, iterations, lock=None, lines=1):
    """A canonical worker: regions incrementing words on ``lines`` lines."""

    def gen(env):
        for i in range(iterations):
            if lock is not None:
                yield Lock(lock)
            yield Begin()
            for j in range(lines):
                (v,) = yield Read(addr + 64 * j, 1)
                yield Write(addr + 64 * j, [v + 1])
            yield End()
            if lock is not None:
                yield Unlock(lock)

    return gen


def locked_set_config() -> SystemConfig:
    """A machine whose fills keep hitting fully LPO-locked sets.

    Tiny associativity plus slow PM keeps LPO LockBits set long enough
    that fills find every way of a set locked: HM under ``asap`` with the
    differential gate's small workload stalls on locked sets about ten
    thousand times. Only the undo scheme locks lines."""
    config = SystemConfig.small(
        num_cores=4, wpq_entries=4, pm_latency_multiplier=16.0
    )
    return replace(
        config,
        l1=replace(config.l1, size_bytes=1024, assoc=1),
        l2=replace(config.l2, size_bytes=2048, assoc=1),
        l3=replace(config.l3, size_bytes=4096, assoc=2),
    )


ALL_SCHEMES = scheme_names()
