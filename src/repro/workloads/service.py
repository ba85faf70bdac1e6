"""Open-loop service workloads: request traffic with tail-latency recording.

The Table 3 benchmarks are *closed-loop*: every thread issues its next
operation the moment the previous one retires, so queueing delay is
invisible and only mean region latency is measurable. Production PM
stores are driven by *open-loop* request arrivals - requests arrive on a
wall-clock schedule whether or not the server has caught up - and what
matters there is the tail (p99/p999) of arrival-to-durable latency as a
function of offered load.

This module adds that regime on top of the existing PM-backed stores:

* **Arrival process**: Poisson interarrivals at ``offered_load`` requests
  per kilocycle, precomputed as simulated-cycle timestamps from a seeded
  generator. Workers ``Compute``-wait until a request's arrival cycle,
  so when the store falls behind, queueing delay shows up in the measured
  latency instead of being hidden (the coordinated-omission trap).
* **Key skew**: a seeded Zipfian sampler over the store's bootstrap key
  population (or TPC-C's districts); ``skew`` is the Zipf theta, 0 =
  uniform. Hot keys concentrate traffic on a few locks, exposing the
  contended-lock x persist-ordering interaction.
* **Latency recording**: GET latency is recorded when the last read
  retires; PUT latency when the request's atomic region becomes
  *durable* (the ``region_committed`` observer event), not when ``End``
  retires - for asynchronous-persistence schemes these differ by design.
* **Fixed-bucket histogram**: latencies land in log-spaced buckets (8
  sub-buckets per octave, <= 12.5% relative error) so percentiles are
  pure-integer functions of the counts: byte-identical across ``--jobs``
  values, cache state, and inspected and uninspected machines.

Determinism: every random choice (arrivals, key ranks, read/write mix,
TPC-C item baskets) comes from ``random.Random`` instances seeded from
``ServiceParams.seed``, and request i's generator seed depends only on
(seed, i) - never on thread interleaving or wall-clock time.
"""

from __future__ import annotations

import bisect
import random
from dataclasses import dataclass, fields
from typing import Dict, List, Optional

from repro.common.errors import ConfigError
from repro.common.observe import SimObserver
from repro.sim.machine import Machine
from repro.sim.ops import Compute
from repro.workloads.base import Workload, WorkloadParams, register
from repro.workloads.btree import BTree
from repro.workloads.hashmap import HashMap
from repro.workloads.tpcc import TPCC


@dataclass(frozen=True)
class ServiceParams(WorkloadParams):
    """Knobs for the open-loop service family (extends the batch knobs).

    ``ops_per_thread`` is ignored here - the run length is ``requests``,
    divided round-robin over ``num_threads`` worker threads.
    """

    #: offered load in requests per 1000 cycles, summed over all threads
    offered_load: float = 4.0
    #: Zipf theta for key popularity (0 = uniform, 0.99 = YCSB-style skew)
    skew: float = 0.99
    #: fraction of requests that are read-only GETs
    read_fraction: float = 0.5
    #: total requests across all threads
    requests: int = 256

    def __post_init__(self):
        super().__post_init__()
        if self.offered_load <= 0.0:
            raise ConfigError("offered_load must be positive")
        if self.skew < 0.0:
            raise ConfigError("skew must be non-negative")
        if not 0.0 <= self.read_fraction <= 1.0:
            raise ConfigError("read_fraction must be within [0, 1]")
        if self.requests < 0:
            raise ConfigError("requests must be non-negative")

    @classmethod
    def from_base(cls, base: WorkloadParams, **overrides) -> "ServiceParams":
        """Upgrade batch params to service params, keeping shared fields."""
        kwargs = {f.name: getattr(base, f.name) for f in fields(base)}
        kwargs.update(overrides)
        return cls(**kwargs)


# -- deterministic generators ----------------------------------------------


class ZipfSampler:
    """Zipfian ranks: P(rank r) proportional to 1 / (r + 1) ** theta.

    The CDF over ``n`` ranks is precomputed once; sampling is one uniform
    draw plus a bisect, so the cost is independent of skew and the
    sequence is a pure function of the caller's ``random.Random``.
    """

    def __init__(self, n: int, theta: float):
        if n <= 0:
            raise ConfigError("ZipfSampler needs a non-empty population")
        weights = [1.0 / float(r + 1) ** theta for r in range(n)]
        total = sum(weights)
        acc = 0.0
        self.cdf: List[float] = []
        for w in weights:
            acc += w
            self.cdf.append(acc / total)
        self.cdf[-1] = 1.0

    def sample(self, rng: random.Random) -> int:
        return bisect.bisect_left(self.cdf, rng.random())


def poisson_arrivals(
    count: int, per_kilocycle: float, rng: random.Random
) -> List[int]:
    """``count`` integer arrival cycles with exponential interarrivals."""
    rate = per_kilocycle / 1000.0
    t = 0.0
    out: List[int] = []
    for _ in range(count):
        t += rng.expovariate(rate)
        out.append(int(t))
    return out


# -- latency histogram -----------------------------------------------------


def bucket_index(latency: int) -> int:
    """Log-spaced bucket for a latency: 8 sub-buckets per octave."""
    if latency < 8:
        return max(0, latency)
    octave = latency.bit_length() - 1
    return (octave - 3) * 8 + (latency >> (octave - 3))


def bucket_upper(index: int) -> int:
    """Largest latency mapping to ``index`` (the reported percentile)."""
    if index < 16:
        return index
    octave = index // 8 + 2
    sub = index - (octave - 3) * 8
    return ((sub + 1) << (octave - 3)) - 1


class LatencyHistogram:
    """Fixed-bucket latency histogram with integer-exact percentiles.

    Buckets 0-15 are exact cycle counts; above that each octave splits
    into 8 sub-buckets, bounding relative error at 12.5%. Percentiles use
    the nearest-rank rule over bucket upper bounds, so any two runs that
    recorded the same latencies report byte-identical percentiles -
    regardless of recording order, process count, or cache state.
    """

    __slots__ = ("counts", "total")

    def __init__(self):
        self.counts: Dict[int, int] = {}
        self.total = 0

    def record(self, latency: int) -> None:
        b = bucket_index(max(0, latency))
        self.counts[b] = self.counts.get(b, 0) + 1
        self.total += 1

    def percentile(self, per_mille: int) -> int:
        """Nearest-rank percentile; ``per_mille`` of 500 = p50, 999 = p999."""
        if self.total == 0:
            return 0
        rank = max(1, (per_mille * self.total + 999) // 1000)
        seen = 0
        for b in sorted(self.counts):
            seen += self.counts[b]
            if seen >= rank:
                return bucket_upper(b)
        return bucket_upper(max(self.counts))

    def as_dict(self) -> Dict[int, int]:
        """Counts keyed by bucket index, in ascending bucket order."""
        return {b: self.counts[b] for b in sorted(self.counts)}


# -- recorder --------------------------------------------------------------


class ServiceRecorder(SimObserver):
    """Per-request latency bookkeeping subscribed to a running machine.

    PUT requests register their upcoming region id before yielding it;
    the durable-commit event resolves the id back to the arrival cycle.
    GET latencies are recorded inline by the worker. The commit event
    fires identically whether or not the machine is inspected, so the
    filled-in ``RunResult`` fields pass the differential-identity gate.
    """

    def __init__(self, machine: Machine, params: ServiceParams):
        self.machine = machine
        self.params = params
        self.histogram = LatencyHistogram()
        self.pending: Dict[int, int] = {}

    def register(self, rid: int, arrival: int) -> None:
        self.pending[rid] = arrival

    def region_committed(self, source, rid: int) -> None:
        arrival = self.pending.pop(rid, None)
        if arrival is not None:
            self.record(self.machine.scheduler.now - arrival)

    def record(self, latency: int) -> None:
        self.histogram.record(latency)

    def fill(self, result) -> None:
        """Populate the service fields of a collected ``RunResult``."""
        hist = self.histogram
        result.latency_histogram = hist.as_dict()
        result.requests_completed = hist.total
        result.p50_cycles = hist.percentile(500)
        result.p90_cycles = hist.percentile(900)
        result.p99_cycles = hist.percentile(990)
        result.p999_cycles = hist.percentile(999)
        achieved = (
            hist.total / (result.cycles / 1000.0) if result.cycles > 0 else 0.0
        )
        result.offered_vs_achieved = (self.params.offered_load, achieved)


# -- the workload family ---------------------------------------------------


class ServiceWorkload(Workload):
    """Open-loop request traffic over a PM-backed store.

    The store is one of the existing shadow-model structures, bootstrapped
    via its ``setup`` method; requests are dispatched round-robin to
    ``num_threads`` workers, each of which sleeps until a request's
    arrival cycle before executing it (arrivals are global, so a slow
    store makes later requests queue - visibly, in their latency).
    """

    family = "service"
    store_cls: type = None

    def __init__(self, params: WorkloadParams = None):
        if params is None:
            params = ServiceParams()
        elif not isinstance(params, ServiceParams):
            params = ServiceParams.from_base(params)
        super().__init__(params)

    # -- store plumbing (overridden by the TPC-C variant) -------------------

    def key_population(self) -> List[int]:
        return self.store.setup_keys

    def do_get(self, machine: Machine, rank: int, index: int):
        yield from self.store.op_get(machine, self.population[rank])

    def do_put(self, machine: Machine, rank: int, index: int):
        yield from self.store.op_put(machine, self.population[rank], index)

    # -- install ------------------------------------------------------------

    def install(self, machine: Machine) -> None:
        params = self.params
        self.store = self.store_cls(params)
        self.store.setup(machine)
        self.population = self.key_population()
        if not self.population:
            raise ConfigError(
                f"{self.name}: store bootstrap produced no keys; "
                "set setup_items > 0"
            )

        zipf = ZipfSampler(len(self.population), params.skew)
        sched_rng = random.Random(params.seed + 71)
        arrivals = poisson_arrivals(
            params.requests, params.offered_load, random.Random(params.seed + 72)
        )
        schedule = [
            (arrivals[i], sched_rng.random() < params.read_fraction,
             zipf.sample(sched_rng))
            for i in range(params.requests)
        ]

        # The linter's machine stand-in has no scheme and a frozen clock;
        # run the same op streams there, minus waits and latency recording.
        recorder: Optional[ServiceRecorder] = None
        if getattr(machine, "scheme", None) is not None:
            if getattr(machine, "service_recorder", None) is not None:
                raise ConfigError("only one service tenant per machine")
            recorder = ServiceRecorder(machine, params)
            machine.service_recorder = recorder
            machine.observe(recorder)
        self.recorder = recorder

        num_threads = params.num_threads

        def worker(env, tid: int):
            for i in range(tid, len(schedule), num_threads):
                arrival, is_read, rank = schedule[i]
                if recorder is not None:
                    wait = arrival - machine.scheduler.now
                    if wait > 0:
                        yield Compute(wait)
                if is_read:
                    yield from self.do_get(machine, rank, i)
                    if recorder is not None:
                        recorder.record(machine.scheduler.now - arrival)
                else:
                    if recorder is not None:
                        recorder.register(env.next_rid, arrival)
                    yield from self.do_put(machine, rank, i)

        for t in range(num_threads):
            machine.spawn(lambda env, t=t: worker(env, t))

    # -- semantic validation ------------------------------------------------

    def validate_image(self, image):
        return self.store.validate_image(image)


@register
class ServiceHashMap(ServiceWorkload):
    """GET/PUT key-value service over the HM chained hash table."""

    name = "SVC"
    description = "Open-loop KV request service over the HM store"
    store_cls = HashMap


@register
class ServiceBTree(ServiceWorkload):
    """GET/PUT key-value service over the BT B-tree."""

    name = "SVC_BT"
    description = "Open-loop KV request service over the BT store"
    store_cls = BTree


@register
class ServiceTPCC(ServiceWorkload):
    """New-Order/Stock-Level request service over the TPC-C subset.

    The Zipf population is the district set: skew concentrates orders on
    a hot district, serialising its lock while persists drain behind it.
    """

    name = "SVC_TPCC"
    description = "Open-loop New-Order service over the TPCC store"
    store_cls = TPCC

    def key_population(self) -> List[int]:
        return list(range(self.store.num_districts))

    def _request_rng(self, index: int) -> random.Random:
        return random.Random(self.params.seed * 1009 + index)

    def do_get(self, machine: Machine, rank: int, index: int):
        yield from self.store.op_stock_level(
            machine, self._request_rng(index), self.population[rank]
        )

    def do_put(self, machine: Machine, rank: int, index: int):
        yield from self.store.op_new_order(
            machine, self._request_rng(index), index, self.population[rank]
        )
