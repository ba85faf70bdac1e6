"""Interleaving-aware differential crash fuzzing (``asap-repro fuzz``).

A crash sweep of *one* deterministic schedule (``asap-repro crashtest``)
varies only the crash point. That is blind to the bug class this module
exists for: commit-ordering violations that need a particular thread
interleaving x flush-timing corner to manifest (the cross-thread RMW
hazard the property suite falsified on small WPQs hid exactly there).
The fuzzer varies all three axes at once:

* **schedules** - seeded random multi-thread region programs over a small
  shared array, with per-op ``Compute`` jitter that perturbs the
  interleaving without changing the program's semantics;
* **crash points** - a sweep of crash cycles per schedule, each recovered
  and differentially checked against the commit oracle's durable image;
* **stress configs** - tiny WPQs (1..16 entries) and both log flavours
  (``asap`` undo and ``asap_redo``), where backpressure and drop/coalesce
  decisions are forced to interact.

Every run is checked two ways (the "differential" part): the no-crash run
must leave PM exactly equal to the oracle's folded committed image, and
every crash point must recover, deterministically, to the oracle's
durable image; a workload-backed case's recovered image must also pass
that workload's structure validators. These checks are the package's
only crash -> recover -> verify code (see the checks section).

Failures are automatically **shrunk** - greedy delta debugging over
threads, regions, ops, values, and jitter - to a minimal case printed as
an ``@example(threads=...)`` line pasteable straight onto the property
tests, and serialisable as JSON into the regression corpus under
``tests/property/corpus/`` which the property suite replays forever after
(see docs/FUZZING.md).

Determinism: the same ``--seed`` and ``--budget`` always generate and
execute the same runs, so a failure report is a repro recipe.
"""

from __future__ import annotations

import glob
import json
import os
import random
from dataclasses import dataclass, field, replace as dc_replace
from functools import lru_cache
from typing import Callable, Iterator, List, Optional, Sequence, Tuple

from repro.common.errors import ConfigError
from repro.common.params import MemoryParams, SystemConfig
from repro.persist import make_scheme, recoverable_schemes
from repro.recovery import (
    CrashState,
    RecoveryReport,
    crash_machine,
    recover,
    verify_recovery,
)
from repro.recovery.verify import VerificationResult
from repro.sim.machine import Machine
from repro.sim.ops import Begin, Compute, End, Lock, Read, Unlock, Write

#: shared-array size (lines) the fuzzer draws from. A case naming a higher
#: line index (the undo property strategy draws 16 lines, the redo one
#: 12) gets an array that reaches it, so a shrunk case pastes onto either
NUM_LINES = 12

#: ops are (line index, read-first flag, value) - a read-first op is a
#: cross-thread-visible RMW (read the owner's value, XOR, write back)
FuzzOp = Tuple[int, bool, int]

#: the fuzzed schemes: every registered scheme that declares a
#: ``RECOVERY`` procedure
SCHEMES = tuple(recoverable_schemes())

#: the property test a shrunk case pastes onto, by recovery procedure
_PROPERTY_TESTS = {
    "undo": "tests/property/test_prop_recovery.py",
    "redo": "tests/property/test_prop_redo.py",
}


@dataclass
class FuzzCase:
    """One generated schedule plus the machine configuration it runs on."""

    scheme: str
    threads: List[List[List[FuzzOp]]]
    wpq_entries: int = 4
    #: per-thread cycle delays consumed one per executed op (Compute
    #: jitter); exhausted lists mean no further delays
    jitter: List[List[int]] = field(default_factory=list)
    #: accepted only as True, for callers that still pin them: the pre-fix
    #: WPQ backpressure and same-line log-persist models they once
    #: selected are gone (tests re-open those ordering edges with the
    #: ``reopen_edge`` fault hook in tests/faults.py). Not serialised.
    fifo_backpressure: bool = True
    ordered_line_log_persists: bool = True
    #: crash fractions (of total cycles) this case is known to be
    #: sensitive to; corpus replay sweeps these in addition to the
    #: generic evenly-spaced crash points
    crash_fracs: List[float] = field(default_factory=list)
    #: pin the hierarchy's MSHR count (None = the config default). 1
    #: replays the blocking one-outstanding-fetch hierarchy; corpus
    #: entries exercising crashes with misses in flight pin small values
    #: so exhaustion stalls and merges stay live under replay
    mshrs_per_cache: Optional[int] = None
    #: run a registered workload instead of the synthetic RMW schedule:
    #: the workload name (e.g. ``"SVC"``) plus its params as a plain dict.
    #: Workload cases replay verbatim (they are never mutated or shrunk -
    #: the program is the workload's own, not a schedule the fuzzer owns)
    workload: Optional[str] = None
    workload_params: Optional[dict] = None

    def __post_init__(self):
        for name, edge in (
            ("fifo_backpressure", "wpq-fifo"),
            ("ordered_line_log_persists", "line-chain"),
        ):
            if getattr(self, name) is not True:
                raise ConfigError(
                    f"{name}={getattr(self, name)!r} selected a removed "
                    f"pre-fix model; re-open the {edge!r} ordering edge "
                    f"with the test-only reopen_edge({edge!r}) fault hook "
                    "(tests/faults.py) instead"
                )
        if self.mshrs_per_cache is not None:
            # the config's own domain check (>= 1), at load time
            MemoryParams(mshrs_per_cache=self.mshrs_per_cache)

    # -- serialisation (the corpus format) ---------------------------------

    def to_json(self) -> dict:
        out = {
            "scheme": self.scheme,
            "threads": self.threads,
            "wpq_entries": self.wpq_entries,
            "jitter": self.jitter,
            "crash_fracs": self.crash_fracs,
            "mshrs_per_cache": self.mshrs_per_cache,
        }
        if self.workload:
            out["workload"] = self.workload
            out["workload_params"] = dict(self.workload_params or {})
        return out

    @staticmethod
    def from_json(data: dict) -> "FuzzCase":
        return FuzzCase(
            scheme=data["scheme"],
            threads=[
                [[tuple(op) for op in region] for region in thread]
                for thread in data["threads"]
            ],
            wpq_entries=data.get("wpq_entries", 4),
            jitter=[list(j) for j in data.get("jitter", [])],
            fifo_backpressure=data.get("fifo_backpressure", True),
            ordered_line_log_persists=data.get("ordered_line_log_persists", True),
            crash_fracs=[float(f) for f in data.get("crash_fracs", [])],
            mshrs_per_cache=data.get("mshrs_per_cache"),
            workload=data.get("workload"),
            workload_params=data.get("workload_params"),
        )

    # -- shrinking helpers -------------------------------------------------

    @property
    def size(self) -> int:
        """Shrink metric (lexicographic): ops dominate, then thread count,
        then op complexity (RMWs, nonzero values), then jitter mass - so
        every shrinker transformation strictly decreases it."""
        ops = rmws = values = 0
        for t in self.threads:
            for r in t:
                for _line, rmw, value in r:
                    ops += 1
                    rmws += bool(rmw)
                    values += bool(value)
        jit = sum(1 for j in self.jitter for d in j if d)
        return ops * 1000 + len(self.threads) * 50 + rmws * 10 + values * 2 + jit

    def example_line(self) -> str:
        """A pasteable ``@example(...)`` for the scheme's property test."""
        if self.workload:
            return (
                f"# workload-backed case: {self.workload} "
                f"{self.workload_params!r} (replay via the corpus)"
            )
        test = _PROPERTY_TESTS[make_scheme(self.scheme).RECOVERY]
        note = ""
        if any(d for j in self.jitter for d in j):
            note = (
                "  # NOTE: original failure also needed Compute jitter "
                f"{self.jitter}; replay via the corpus if the pin passes"
            )
        return f"@example(threads={self.threads!r})  # pin on {test}{note}"


def case_workload(case: FuzzCase):
    """Instantiate the workload a workload-backed case pins (else None)."""
    if not case.workload:
        return None
    from repro.workloads import WorkloadParams, get_workload
    from repro.workloads.service import ServiceParams

    kwargs = dict(case.workload_params or {})
    service_only = {"offered_load", "skew", "read_fraction", "requests"}
    cls = ServiceParams if service_only & set(kwargs) else WorkloadParams
    return get_workload(case.workload, cls(**kwargs))


def install_case(machine, case: FuzzCase) -> None:
    """Install the case's thread programs on any machine-like target.

    ``machine`` needs only ``heap.alloc``, ``new_lock``, ``spawn`` and
    ``install`` - satisfied by the simulated
    :class:`~repro.sim.machine.Machine` *and* by the linter's
    :class:`~repro.analysis.linter.LintMachine`, so a corpus case replays
    both as a timed crash-consistency check and as a static lint target
    (the tier-1 corpus-replay suite does both).

    A workload-backed case installs its pinned workload instead of the
    synthetic RMW schedule (a simulated machine records it, for its
    validators); the rest downstream (oracle differential, race tracing,
    lint) is program-agnostic.
    """
    workload = case_workload(case)
    if workload is not None:
        machine.install(workload)
        return
    # the next allocation is a thread's log area: reach every line named
    lines = max([NUM_LINES] + [op[0] + 1 for t in case.threads for r in t for op in r])
    base = machine.heap.alloc(64 * lines)
    lock = machine.new_lock()

    def worker(env, regions, delays):
        remaining = list(delays)

        def pause():
            if remaining:
                d = remaining.pop(0)
                if d:
                    return Compute(d)
            return None

        for region in regions:
            yield Lock(lock)
            yield Begin()
            for line_idx, read_first, value in region:
                p = pause()
                if p is not None:
                    yield p
                addr = base + 64 * line_idx
                if read_first:
                    (v,) = yield Read(addr, 1)
                    yield Write(addr, [v ^ value])
                else:
                    yield Write(addr, [value])
            yield End()
            yield Unlock(lock)

    for tidx, regions in enumerate(case.threads):
        delays = case.jitter[tidx] if tidx < len(case.jitter) else []
        machine.spawn(lambda env, r=regions, d=delays: worker(env, r, d))


@lru_cache(maxsize=None)
def _case_config(wpq_entries: int, mshrs_per_cache: Optional[int]) -> SystemConfig:
    """The machine config of every case with these two fields. Configs are
    frozen, so one instance serves every build; the fuzzer draws from a
    handful of WPQ sizes, which bounds the cache."""
    config = SystemConfig.small(wpq_entries=wpq_entries)
    if mshrs_per_cache is None:
        return config
    return dc_replace(
        config, memory=dc_replace(config.memory, mshrs_per_cache=mshrs_per_cache)
    )


def build_machine(case: FuzzCase) -> Machine:
    """Instantiate the case's program on an inspected machine."""
    config = _case_config(case.wpq_entries, case.mshrs_per_cache)
    m = Machine(config, make_scheme(case.scheme)).inspect()
    install_case(m, case)
    return m


# -- checks (the differential oracle) --------------------------------------
# The package's only crash -> recover -> verify code. Module globals are
# looked up per call, so a wrapper set on this module sees every call.


def crash_cycles(total: int, points: int = 0, fracs: Sequence[float] = ()) -> List[int]:
    """Crash cycles in a ``total``-cycle run: ``points`` evenly spaced
    ones, then one per pinned fraction, in that order (not deduplicated)."""
    evenly = [max(1, ((i + 1) * total) // (points + 1)) for i in range(points)]
    return evenly + [max(1, int(total * frac)) for frac in fracs]


def check_no_crash(
    case: FuzzCase, machine: Optional[Machine] = None, runs: Optional[list] = None
) -> List[str]:
    """Run ``machine`` (default: a fresh build) to completion; PM must
    equal the oracle's committed image. ``runs`` receives the RunResult."""
    m = machine or build_machine(case)
    result = m.run()
    if runs is not None:
        runs.append(result)
    failures: List[str] = []
    uncommitted = m.oracle.uncommitted_rids()
    if uncommitted:
        failures.append(f"regions never committed: {uncommitted}")
    mismatches = m.oracle.mismatches(m.pm_image)
    if mismatches:
        failures.append(f"committed values missing from PM: {mismatches[:4]}")
    return failures


def clean_run(case: FuzzCase) -> Tuple[List[str], int]:
    """The no-crash check on a fresh build, and the length its crash
    points divide: the cycle the last thread finished, not the (later)
    cycle the queues drained."""
    runs: list = []
    return check_no_crash(case, build_machine(case), runs), runs[0].cycles


@dataclass
class CrashCheck:
    """One crash point: what recovery did and what it got wrong."""

    cycle: int
    #: what the crash left for recovery to read
    state: CrashState
    verdict: VerificationResult
    report: RecoveryReport
    #: what failed, unprefixed (empty = the point recovered correctly)
    problems: List[str]

    @property
    def failures(self) -> List[str]:
        return [f"@{self.cycle}: {problem}" for problem in self.problems]


def check_crash(
    case: FuzzCase, at_cycle: int, machine: Optional[Machine] = None
) -> CrashCheck:
    """Crash at ``at_cycle``; recovery must match the oracle's image, be
    deterministic and, when its image matches, pass the structure
    validators of every workload installed on the machine. ``machine``
    (default: a fresh build) may be snapshotted at earlier cycles
    already: a crash snapshot leaves it resumable. A workload-backed
    case on a machine that recorded no workload raises
    :class:`ConfigError`: put workloads on with ``machine.install``."""
    m = machine or build_machine(case)
    if case.workload and not m.workloads:
        raise ConfigError(
            f"case pins workload {case.workload!r} but the machine recorded "
            "none; install it with machine.install(workload)"
        )
    state = crash_machine(m, at_cycle=at_cycle)
    image, report = recover(state)
    image2, _ = recover(state)  # determinism probe
    problems: List[str] = []
    verdict = verify_recovery(m, image)
    if not verdict.ok:
        problems.append(verdict.explain())
    else:
        errors = [e for w in m.workloads for e in w.validate_image(image)]
        if errors:
            problems.append(f"structure invalid: {errors[:3]}")
    if image.lines() != image2.lines():  # set-like: order-free, O(lines)
        problems.append("recovery nondeterministic")
    return CrashCheck(at_cycle, state, verdict, report, problems)


def crash_sweep(case: FuzzCase, cycles: Sequence[int]) -> Iterator[CrashCheck]:
    """:func:`check_crash` at ascending ``cycles`` on one build, made on
    the first ``next()`` and only if there is a cycle to crash at; a
    caller may stop early."""
    if not cycles:
        return
    machine = build_machine(case)
    for cycle in cycles:
        yield check_crash(case, cycle, machine)


def case_failures(case: FuzzCase, crash_points: int = 0) -> List[str]:
    """All checks for one case: no-crash plus an optional crash sweep.

    A case's pinned ``crash_fracs`` are always swept on top of the
    ``crash_points`` evenly-spaced ones - corpus entries record the exact
    crash fraction their historical failure needed.
    """
    failures, total = clean_run(case)
    cycles = sorted(set(crash_cycles(total, crash_points, case.crash_fracs)))
    for check in crash_sweep(case, cycles):
        failures.extend(check.failures)
    return failures


# -- generation ------------------------------------------------------------


def generate_case(seed: int, index: int, scheme: str) -> FuzzCase:
    """Deterministically generate case ``index`` of stream ``seed``."""
    rng = random.Random(f"asap-fuzz:{seed}:{index}:{scheme}")
    num_threads = rng.randint(1, 3)
    # Contention bias: commit-ordering hazards need threads to collide on
    # lines, so most cases confine themselves to a small slice of the
    # array. Values are biased tiny so a lost committed write shows up as
    # a crisp 1-vs-0 mismatch rather than noise.
    span = rng.choice((3, 5, 8, NUM_LINES))
    threads: List[List[List[FuzzOp]]] = []
    jitter: List[List[int]] = []
    for _ in range(num_threads):
        regions: List[List[FuzzOp]] = []
        for _ in range(rng.randint(1, 5)):
            region: List[FuzzOp] = []
            for _ in range(rng.randint(1, 4)):
                region.append(
                    (
                        rng.randrange(span),
                        rng.random() < 0.35,  # RMWs are the hard case
                        rng.choice((0, 0, 1, rng.randrange(2**20))),
                    )
                )
            regions.append(region)
        threads.append(regions)
        nops = sum(len(r) for r in regions)
        jitter.append([rng.choice((0, 0, 5, 17, 60, 240)) for _ in range(nops)])
    return FuzzCase(
        scheme=scheme,
        threads=threads,
        wpq_entries=rng.choice((1, 2, 3, 4, 8, 16)),
        jitter=jitter,
    )


def mutate_case(
    base: FuzzCase, rng: random.Random, scheme: Optional[str] = None
) -> FuzzCase:
    """Corpus-seeded mutation: small structured edits of a known case.

    Pure random generation almost never lands in the tiny schedule-space
    pockets where commit-ordering hazards live (the ROADMAP bug sat in a
    ~0.2%-of-schedules corner), but *neighbourhoods* of historical
    failures are dense with them - measured >50% of single-op mutations
    of the original failing schedule still failed pre-fix. So the fuzzer
    spends part of its budget mutating regression-corpus entries and any
    failures found this campaign, AFL-style.
    """
    if base.workload:
        return base  # workload cases have no schedule to edit
    threads = [[list(region) for region in thread] for thread in base.threads]
    jitter = [list(j) for j in base.jitter]
    for _ in range(rng.randint(1, 3)):
        kind = rng.randrange(6)
        t = rng.randrange(len(threads))
        r = rng.randrange(len(threads[t]))
        if kind == 0:  # retarget an op's line
            o = rng.randrange(len(threads[t][r]))
            line, rmw, v = threads[t][r][o]
            threads[t][r][o] = (rng.randrange(NUM_LINES), rmw, v)
        elif kind == 1:  # perturb a value
            o = rng.randrange(len(threads[t][r]))
            line, rmw, _v = threads[t][r][o]
            threads[t][r][o] = (line, rmw, rng.choice((0, 1, rng.randrange(2**20))))
        elif kind == 2:  # toggle RMW-ness
            o = rng.randrange(len(threads[t][r]))
            line, rmw, v = threads[t][r][o]
            threads[t][r][o] = (line, not rmw, v)
        elif kind == 3:  # grow: append a plain write
            threads[t][r].append((rng.randrange(NUM_LINES), False, 0))
        elif kind == 4 and len(threads[t][r]) > 1:  # drop an op
            del threads[t][r][rng.randrange(len(threads[t][r]))]
        else:  # jiggle the interleaving
            while len(jitter) <= t:
                jitter.append([])
            nops = sum(len(rg) for rg in threads[t])
            while len(jitter[t]) < nops:
                jitter[t].append(0)
            if jitter[t]:
                jitter[t][rng.randrange(len(jitter[t]))] = rng.choice(
                    (0, 5, 17, 60, 240)
                )
    return FuzzCase(
        scheme=scheme or base.scheme,
        threads=threads,
        wpq_entries=rng.choice((base.wpq_entries, base.wpq_entries, 2, 3, 4, 8)),
        jitter=jitter,
    )


# -- shrinking -------------------------------------------------------------


def _shrink_candidates(best: FuzzCase) -> Iterator[FuzzCase]:
    """Every one-step simplification of ``best``, in the shrinker's fixed
    order: drop a thread (with its jitter), a region, an op; demote an RMW
    to a plain write or zero a value; clear all jitter, then one entry."""
    threads = best.threads
    for i in range(len(threads)):
        yield dc_replace(
            best,
            threads=threads[:i] + threads[i + 1:],
            jitter=[j for k, j in enumerate(best.jitter) if k != i],
        )
    for t in range(len(threads)):
        for r in range(len(threads[t])):
            cand = [list(th) for th in threads]
            del cand[t][r]
            if not cand[t]:
                del cand[t]
            yield dc_replace(best, threads=cand)
    for t in range(len(threads)):
        for r in range(len(threads[t])):
            for o in range(len(threads[t][r])):
                cand = [[list(rg) for rg in th] for th in threads]
                del cand[t][r][o]
                if not cand[t][r]:
                    del cand[t][r]
                if not cand[t]:
                    del cand[t]
                yield dc_replace(best, threads=cand)
    for t in range(len(threads)):
        for r in range(len(threads[t])):
            for o, (line, rmw, value) in enumerate(threads[t][r]):
                for simpler in (
                    (line, False, value) if rmw else None,
                    (line, rmw, 0) if value else None,
                ):
                    if simpler is not None:
                        cand = [[list(rg) for rg in th] for th in threads]
                        cand[t][r][o] = simpler
                        yield dc_replace(best, threads=cand)
    if any(d for j in best.jitter for d in j):
        yield dc_replace(best, jitter=[])
        for t in range(len(best.jitter)):
            for i, d in enumerate(best.jitter[t]):
                if d:
                    jitter = [list(j) for j in best.jitter]
                    jitter[t][i] = 0
                    yield dc_replace(best, jitter=jitter)


def shrink_case(
    case: FuzzCase,
    still_fails: Callable[[FuzzCase], bool],
    max_attempts: int = 400,
) -> FuzzCase:
    """Greedy delta debugging toward a minimal still-failing case.

    Walks :func:`_shrink_candidates` to a fixed point or an attempt
    budget; the first smaller still-failing candidate becomes the new
    best and restarts the walk. A candidate with no ops left is skipped
    uncounted; ``still_fails`` is asked only about smaller candidates.
    """
    if case.workload:
        return case  # workload cases replay verbatim
    attempts = 0
    best = case
    improved = True
    while improved:
        improved = False
        for cand in _shrink_candidates(best):
            if attempts >= max_attempts:
                return best
            if not any(cand.threads):
                continue
            attempts += 1
            if cand.size < best.size and still_fails(cand):
                best, improved = cand, True
                break
    return best


# -- the campaign ----------------------------------------------------------


@dataclass
class FuzzReport:
    """Outcome of one fuzzing campaign (deterministic per seed+budget)."""

    seed: int
    budget: int
    runs: int = 0
    cases: int = 0
    crash_points_checked: int = 0
    schemes: List[str] = field(default_factory=list)
    wpq_sizes: List[int] = field(default_factory=list)
    failures: List[str] = field(default_factory=list)
    failing_cases: List[FuzzCase] = field(default_factory=list)
    shrunk_cases: List[FuzzCase] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.failures

    def summary(self) -> str:
        status = "CLEAN" if self.ok else f"{len(self.failures)} FAILURES"
        wpqs = ",".join(str(w) for w in sorted(set(self.wpq_sizes))) or "-"
        return (
            f"fuzz seed={self.seed}: {status} over {self.runs} runs "
            f"({self.cases} schedules x [no-crash + "
            f"{self.crash_points_checked} crash points], schemes "
            f"{'/'.join(sorted(set(self.schemes))) or '-'}, "
            f"WPQ sizes {{{wpqs}}})"
        )


def run_fuzz(
    seed: int = 0,
    budget: int = 240,
    crash_points: int = 3,
    schemes: Tuple[str, ...] = SCHEMES,
    shrink: bool = True,
    mshrs_per_cache: Optional[int] = None,
    corpus: Optional[List[FuzzCase]] = None,
    progress: Optional[Callable[[str], None]] = None,
) -> FuzzReport:
    """Run a fuzzing campaign of ``budget`` schedule x crash-point runs.

    Each generated schedule costs ``1 + crash_points`` runs (the no-crash
    differential check plus the crash sweep). Schemes round-robin so a
    small budget still covers both log flavours. About a third of the
    budget mutates ``corpus`` entries and this campaign's own failures
    (see :func:`mutate_case`); the rest is fresh random generation. The
    whole campaign is deterministic in ``seed`` and ``budget``.
    """
    report = FuzzReport(seed=seed, budget=budget)
    corpus = list(corpus or [])
    index = 0
    while report.runs < budget:
        scheme = schemes[index % len(schemes)]
        rng = random.Random(f"asap-fuzz:{seed}:{index}:{scheme}:pick")
        pool = [
            c
            for c in corpus + report.failing_cases
            # workload-backed cases replay verbatim; their op streams are
            # the workload's own, so schedule mutation has nothing to edit
            if not c.workload and (c.scheme == scheme or len(schemes) == 1)
        ]
        if pool and rng.random() < 0.35:
            case = mutate_case(rng.choice(pool), rng, scheme=scheme)
        else:
            case = generate_case(seed, index, scheme)
        if mshrs_per_cache is not None:
            case = dc_replace(case, mshrs_per_cache=mshrs_per_cache)
        index += 1
        report.cases += 1
        report.schemes.append(scheme)
        report.wpq_sizes.append(case.wpq_entries)

        failures, total = clean_run(case)
        report.runs += 1
        if not failures and crash_points > 0:
            # the budget may cut the sweep short, except on the first case
            points = crash_points
            if report.cases > 1:
                points = max(0, min(points, budget - report.runs))
            for check in crash_sweep(case, crash_cycles(total, crash_points)[:points]):
                failures.extend(check.failures)
            report.runs += points
            report.crash_points_checked += points

        if failures:
            report.failures.append(
                f"case {index - 1} ({scheme}, wpq={case.wpq_entries}): "
                + "; ".join(failures[:3])
            )
            report.failing_cases.append(case)
            if progress:
                progress(f"FAIL {report.failures[-1]}")
            if shrink:
                minimal = shrink_case(
                    case, lambda c: bool(case_failures(c, crash_points=0))
                )
                if not case_failures(minimal, crash_points=0):
                    # shrank against the no-crash check but the failure was
                    # crash-only: shrink against the full sweep instead
                    minimal = shrink_case(
                        case,
                        lambda c: bool(case_failures(c, crash_points=crash_points)),
                    )
                report.shrunk_cases.append(minimal)
                if progress:
                    progress(f"shrunk to: {minimal.example_line()}")
        elif progress and report.cases % 20 == 0:
            progress(
                f"{report.runs}/{budget} runs, {report.cases} schedules, clean"
            )
    return report


# -- directed mode (--from-races) ------------------------------------------


@dataclass
class DirectedReport:
    """Outcome of a race-directed verification pass.

    Instead of random sweeping, each case gets **one** instrumented run
    through the happens-before race detector
    (:mod:`repro.analysis.races`); every finding's witness (crash window)
    is then verified with a handful of directed crash replays. ``runs``
    counts every simulation run either step consumed, for comparison
    against an undirected sweep's budget.
    """

    runs: int = 0
    cases: int = 0
    findings: int = 0
    confirmed: int = 0
    outcomes: List[dict] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        """True when no race was confirmed."""
        return self.confirmed == 0

    def summary(self) -> str:
        status = (
            "no races" if self.findings == 0
            else f"{self.confirmed}/{self.findings} race(s) CONFIRMED"
        )
        return (
            f"fuzz --from-races: {status} over {self.cases} case(s) in "
            f"{self.runs} simulation runs"
        )


def run_directed(
    cases: List[Tuple[str, FuzzCase]],
    max_points: int = 5,
    progress: Optional[Callable[[str], None]] = None,
) -> DirectedReport:
    """Race-detect each (source, case) pair and verify every witness."""
    from repro.analysis.races import detect_in_case, verify_finding

    report = DirectedReport()
    for source, case in cases:
        result = detect_in_case(case, source=source)
        report.runs += 1
        report.cases += 1
        if progress:
            progress(
                f"{source}: {len(result.findings)} candidate(s) from one "
                f"instrumented run ({result.nodes} persist ops)"
            )
        for finding in result.findings:
            outcome = verify_finding(case, finding, max_points=max_points)
            report.runs += outcome.runs_used
            report.findings += 1
            if outcome.status == "CONFIRMED":
                report.confirmed += 1
            report.outcomes.append(
                {
                    "source": source,
                    "rule_id": finding.rule_id,
                    "status": outcome.status,
                    "window": list(finding.window),
                    "crash_fracs": finding.crash_fracs,
                    "runs_used": outcome.runs_used,
                    "evidence": outcome.evidence,
                }
            )
            if progress:
                progress(
                    f"  {finding.rule_id} -> {outcome.status} "
                    f"(+{outcome.runs_used} directed run(s)): "
                    f"{outcome.evidence}"
                )
    return report


# -- corpus ----------------------------------------------------------------


def save_corpus_entry(case: FuzzCase, path: str, description: str = "") -> None:
    """Write a failing (shrunk) case as a corpus JSON file."""
    entry = case.to_json()
    entry["description"] = description or "fuzzer-found failure (shrunk)"
    entry["example"] = case.example_line()
    with open(path, "w") as fh:
        json.dump(entry, fh, indent=2)
        fh.write("\n")


def load_corpus_entry(path: str) -> Tuple[FuzzCase, dict]:
    """Read one corpus file; a file pinning a removed model (a ``false``
    ordering flag, ``mshrs_per_cache: 0``) raises :class:`ConfigError`
    naming the file."""
    with open(path) as fh:
        data = json.load(fh)
    try:
        return FuzzCase.from_json(data), data
    except ConfigError as exc:
        raise ConfigError(f"{path}: {exc}") from None


def load_corpus(directory: str) -> List[Tuple[str, FuzzCase]]:
    """Every corpus file in ``directory`` as (file name, case), by name."""
    paths = sorted(glob.glob(os.path.join(directory, "*.json")))
    return [(os.path.basename(p), load_corpus_entry(p)[0]) for p in paths]


# -- CLI -------------------------------------------------------------------


def main(argv=None) -> int:
    import argparse
    import sys

    parser = argparse.ArgumentParser(
        prog="asap-repro fuzz",
        description="Interleaving-aware differential crash fuzzing",
    )
    parser.add_argument("--seed", type=int, default=0, help="PRNG stream id")
    parser.add_argument(
        "--budget",
        type=int,
        default=240,
        help="total schedule x crash-point runs (default 240)",
    )
    parser.add_argument(
        "--points",
        type=int,
        default=3,
        help="crash points swept per schedule (default 3)",
    )
    parser.add_argument(
        "--scheme",
        choices=[*SCHEMES, "both"],
        default="both",
    )
    parser.add_argument(
        "--no-shrink",
        action="store_true",
        help="report failures without delta-debugging them",
    )
    parser.add_argument(
        "--save-failures",
        metavar="DIR",
        default=None,
        help="write each shrunk failing case as corpus JSON into DIR",
    )
    parser.add_argument(
        "--corpus",
        metavar="DIR",
        default=None,
        help="seed mutations from the corpus JSON files in DIR "
        "(typically tests/property/corpus)",
    )
    parser.add_argument(
        "--mshrs",
        type=int,
        default=None,
        metavar="N",
        help="pin MemoryParams.mshrs_per_cache for every case (1 = the "
        "blocking one-outstanding-fetch hierarchy; default = config "
        "default). Used by CI to replay the corpus under both models",
    )
    parser.add_argument(
        "--from-races",
        action="store_true",
        help="directed mode: race-detect each --corpus case in one "
        "instrumented run, then verify each finding's witness with a "
        "few targeted crash replays instead of random sweeping",
    )
    args = parser.parse_args(argv)

    if args.from_races:
        cases: List[Tuple[str, FuzzCase]] = []
        corpus_dir = args.corpus or os.path.join("tests", "property", "corpus")
        for name, case in load_corpus(corpus_dir):
            if args.mshrs is not None:
                case = dc_replace(case, mshrs_per_cache=args.mshrs)
            if args.scheme == "both" or case.scheme == args.scheme:
                cases.append((name, case))
        directed = run_directed(
            cases,
            progress=lambda msg: print(f"  {msg}", file=sys.stderr, flush=True),
        )
        print(directed.summary())
        print(
            f"  (an undirected sweep of the same cases would spend the "
            f"full --budget of {args.budget} runs)"
        )
        return 0 if directed.ok else 1

    # corpus entries may pin an MSHR stress count; fuzz the default
    # hierarchy (--mshrs re-pins uniformly)
    corpus_cases = [
        dc_replace(case, crash_fracs=[], mshrs_per_cache=None)
        for _name, case in (load_corpus(args.corpus) if args.corpus else [])
    ]

    schemes = SCHEMES if args.scheme == "both" else (args.scheme,)
    report = run_fuzz(
        seed=args.seed,
        budget=args.budget,
        crash_points=args.points,
        schemes=schemes,
        shrink=not args.no_shrink,
        mshrs_per_cache=args.mshrs,
        corpus=corpus_cases,
        progress=lambda msg: print(f"  {msg}", file=sys.stderr, flush=True),
    )
    print(report.summary())
    for case in report.shrunk_cases:
        print(f"  minimal repro: {case.example_line()}")
    if args.save_failures and report.shrunk_cases:
        os.makedirs(args.save_failures, exist_ok=True)
        for i, case in enumerate(report.shrunk_cases):
            path = os.path.join(
                args.save_failures, f"fuzz-seed{args.seed}-fail{i}.json"
            )
            save_corpus_entry(case, path)
            print(f"  wrote {path}")
    return 0 if report.ok else 1


if __name__ == "__main__":
    import sys

    sys.exit(main())
