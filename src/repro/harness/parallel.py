"""Parallel cell execution and content-addressed result caching.

Every experiment in :mod:`repro.harness.experiments` is a matrix of
independent (workload x scheme x size) simulation *cells*. Each module
declares its matrix as a list of :class:`RunSpec` and an ``assemble``
callback that turns the finished cells back into an
:class:`~repro.harness.experiment.ExperimentResult` (see :class:`Plan`).

:func:`execute` runs the cells - serially with ``jobs=1`` (bit-identical
to the historical inline runner) or fanned out across a
``ProcessPoolExecutor`` - and :class:`ResultCache` memoises finished
cells on disk, keyed by the content hash of everything that determines a
cell's outcome (workload, scheme, config, params, sanitize flag, package
version, and a digest of the simulator sources). Because the cache is
content-addressed, identical cells are shared *across* experiments:
Fig. 7 and Fig. 8 both run ``HM/asap`` on the same machine and only pay
for it once.

Specs must be fully picklable: they cross the process boundary. The
sanitize flag is chosen at execution (``execute(..., sanitize=True)``),
which stamps it onto every spec before the cache lookup, so it reaches
worker processes inside the specs themselves.
"""

from __future__ import annotations

import hashlib
import importlib
import os
import pickle
import sys
import tempfile
import time
from concurrent.futures import ProcessPoolExecutor, as_completed
from dataclasses import dataclass, field, replace
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple, Union

import repro
from repro.common.errors import CellError, ConfigError
from repro.common.params import SystemConfig
from repro.sim.stats import RunResult
from repro.workloads import WorkloadParams

#: progress callback: (cells finished, total cells, spec, its CellResult)
ProgressFn = Callable[[int, int, "RunSpec", "CellResult"], None]


@dataclass(frozen=True)
class RunSpec:
    """One cell of an experiment's run matrix.

    Two flavours:

    * **workload specs** - ``workload`` (one Table 3 name, or a tuple of
      names for co-run cells) plus ``scheme``/``config``/``params``; the
      cell builds the machine via
      :func:`repro.harness.runner.build_machine`.
    * **builder specs** - ``builder`` names a module-level factory as
      ``"package.module:callable"`` invoked with ``builder_kwargs``; used
      by experiments that construct bespoke machines (the ablation
      stress patterns). The factory must be importable from a worker
      process, which is why it is carried by reference, not as a closure.

    ``extras`` harvests scheme-internal counters the
    :class:`~repro.sim.stats.RunResult` does not carry: each
    ``(name, "attr.path")`` pair is resolved against the finished machine
    (e.g. ``("dpos", "scheme.stats.dpos_initiated")``) and lands
    in :attr:`CellResult.extras`.
    """

    key: Tuple
    workload: Union[str, Tuple[str, ...]] = ""
    scheme: str = ""
    config: Optional[SystemConfig] = None
    params: Optional[WorkloadParams] = None
    sanitize: bool = False
    #: attach no inspectors (no PM image, no commit oracle); results are
    #: the same either way, so it is not part of :meth:`cache_token`
    fast: bool = True
    builder: str = ""
    builder_kwargs: Tuple[Tuple[str, object], ...] = ()
    extras: Tuple[Tuple[str, str], ...] = ()

    def describe(self) -> str:
        """Short human-readable cell label for progress output."""
        if self.builder:
            kwargs = ", ".join(f"{k}={v}" for k, v in self.builder_kwargs)
            return f"{self.builder.rsplit(':', 1)[-1]}({kwargs})"
        wl = (
            "+".join(self.workload)
            if isinstance(self.workload, tuple)
            else self.workload
        )
        size = f"/{self.params.value_bytes}B" if self.params is not None else ""
        return f"{wl}{size}:{self.scheme}"

    def cache_token(self) -> str:
        """Content hash of everything that determines this cell's result.

        The ``key`` is deliberately *excluded*: it only names the cell
        within one experiment, so identical cells hit the same cache
        entry across experiments.
        """
        ident = (
            repro.__version__,
            simulator_fingerprint(),
            self.workload,
            self.scheme,
            repr(self.config),
            repr(self.params),
            self.sanitize,
            self.builder,
            repr(self.builder_kwargs),
            repr(self.extras),
        )
        return hashlib.sha256(repr(ident).encode("utf-8")).hexdigest()


@dataclass
class CellResult:
    """One finished cell: the run's stats plus harvested extras."""

    key: Tuple
    result: RunResult
    extras: Dict[str, float] = field(default_factory=dict)
    wall_seconds: float = 0.0
    #: True when this result came from the on-disk cache, not a fresh run
    cached: bool = False


_FINGERPRINT: Optional[str] = None


#: orchestration-only subpackages excluded from the fingerprint: editing
#: them cannot change a cell's result, so cached cells stay valid
_NON_SIMULATOR_DIRS = ("harness", "explore")


def simulator_fingerprint() -> str:
    """Digest of the simulator sources (everything under ``repro`` except
    the harness and explore layers). Any change to the machine model
    invalidates every cached result; editing an experiment module or a
    sweep driver does not - that is what makes a warm-cache
    ``asap-repro all`` near-instant after touching one experiment."""
    global _FINGERPRINT
    if _FINGERPRINT is None:
        pkg = os.path.dirname(os.path.abspath(repro.__file__))
        digest = hashlib.sha256()
        for dirpath, dirnames, filenames in os.walk(pkg):
            dirnames[:] = sorted(
                d
                for d in dirnames
                if d != "__pycache__"
                and not (dirpath == pkg and d in _NON_SIMULATOR_DIRS)
            )
            for fname in sorted(filenames):
                if not fname.endswith(".py"):
                    continue
                path = os.path.join(dirpath, fname)
                digest.update(os.path.relpath(path, pkg).encode("utf-8"))
                with open(path, "rb") as fh:
                    digest.update(fh.read())
        _FINGERPRINT = digest.hexdigest()
    return _FINGERPRINT


def _harvest(machine, path: str):
    obj = machine
    for part in path.split("."):
        obj = getattr(obj, part)
    return obj


def build_cell_machine(spec: RunSpec):
    """The machine ``spec`` runs, built but not yet run."""
    from repro.harness import runner

    if spec.builder:
        mod_name, _, fn_name = spec.builder.partition(":")
        builder = getattr(importlib.import_module(mod_name), fn_name)
        return builder(**dict(spec.builder_kwargs))
    return runner.build_machine(
        spec.workload,
        spec.scheme,
        spec.config,
        spec.params,
        fast=spec.fast,
    )


def run_cell(spec: RunSpec) -> CellResult:
    """Execute one cell; runs in the parent (``jobs=1``) or a worker."""
    start = time.perf_counter()
    machine = build_cell_machine(spec)
    if spec.sanitize:
        from repro.analysis.sanitizer import Sanitizer

        Sanitizer().attach(machine)
    result = machine.run()
    extras = {name: _harvest(machine, path) for name, path in spec.extras}
    return CellResult(
        key=spec.key,
        result=result,
        extras=extras,
        wall_seconds=time.perf_counter() - start,
    )


def _run_named(spec: RunSpec, run: Callable[[], CellResult]) -> CellResult:
    """``run()``, with any exception re-raised as a :class:`CellError`
    naming ``spec``."""
    try:
        return run()
    except Exception as exc:
        token = spec.cache_token()
        raise CellError(
            f"cell {spec.key!r} failed (scheme {spec.scheme!r}, workload "
            f"{spec.workload!r}, cache token {token}): "
            f"{type(exc).__name__}: {exc}",
            key=spec.key,
            cache_token=token,
        ) from exc


class ResultCache:
    """Content-addressed on-disk cache of :class:`CellResult` pickles.

    Entries live at ``<root>/<token[:2]>/<token>.pkl``; writes are atomic
    (temp file + rename) so concurrent harness invocations can share a
    cache directory. Unreadable or stale entries count as misses.
    """

    def __init__(self, root: str):
        self.root = os.path.abspath(os.path.expanduser(root))
        self.hits = 0
        self.misses = 0

    @staticmethod
    def default_dir() -> str:
        env = os.environ.get("ASAP_CACHE_DIR")
        if env:
            return env
        xdg = os.environ.get("XDG_CACHE_HOME") or os.path.join(
            os.path.expanduser("~"), ".cache"
        )
        return os.path.join(xdg, "asap-repro")

    def _path(self, token: str) -> str:
        return os.path.join(self.root, token[:2], token + ".pkl")

    def get(self, spec: RunSpec) -> Optional[CellResult]:
        path = self._path(spec.cache_token())
        try:
            with open(path, "rb") as fh:
                cell = pickle.load(fh)
        except Exception:
            # missing, corrupt, or pickled against moved/renamed classes -
            # all equivalent to a miss; the cell is simply re-run
            self.misses += 1
            return None
        if not isinstance(cell, CellResult):
            self.misses += 1
            return None
        self.hits += 1
        # the stored key belongs to whichever experiment filled the entry;
        # re-label for the requesting spec
        return CellResult(
            key=spec.key,
            result=cell.result,
            extras=cell.extras,
            wall_seconds=cell.wall_seconds,
            cached=True,
        )

    def put(self, spec: RunSpec, cell: CellResult) -> None:
        path = self._path(spec.cache_token())
        os.makedirs(os.path.dirname(path), exist_ok=True)
        fd, tmp = tempfile.mkstemp(dir=os.path.dirname(path), suffix=".tmp")
        try:
            with os.fdopen(fd, "wb") as fh:
                pickle.dump(cell, fh)
            os.replace(tmp, path)
        except Exception:
            try:
                os.unlink(tmp)
            except OSError:
                pass
            raise


def execute(
    specs: Iterable[RunSpec],
    jobs: int = 1,
    cache: Optional[ResultCache] = None,
    progress: Optional[ProgressFn] = None,
    sanitize: bool = False,
) -> Dict[Tuple, CellResult]:
    """Run every spec; return ``{spec.key: CellResult}`` in spec order.

    ``jobs=1`` runs cells serially in-process, in list order - the
    historical behaviour. ``jobs>1`` fans uncached cells out across a
    process pool; completion order is nondeterministic but the returned
    mapping (and therefore everything assembled from it) is ordered by
    the spec list, so results are identical for any job count.

    ``sanitize=True`` attaches a raising runtime sanitizer to every cell:
    the flag is stamped onto each spec before the cache lookup, so
    sanitized cells cache apart from plain ones.

    A cell that raises aborts the run with a :class:`CellError` that
    names it.
    """
    specs = list(specs)
    if sanitize:
        specs = [replace(spec, sanitize=True) for spec in specs]
    if len({s.key for s in specs}) != len(specs):
        raise ConfigError("duplicate RunSpec keys in one experiment plan")
    total = len(specs)
    done = 0
    results: Dict[Tuple, CellResult] = {}

    def finish(spec: RunSpec, cell: CellResult) -> None:
        nonlocal done
        results[spec.key] = cell
        done += 1
        if progress is not None:
            progress(done, total, spec, cell)

    pending: List[RunSpec] = []
    for spec in specs:
        cell = cache.get(spec) if cache is not None else None
        if cell is not None:
            finish(spec, cell)
        else:
            pending.append(spec)

    if jobs <= 1 or len(pending) <= 1:
        for spec in pending:
            cell = _run_named(spec, lambda: run_cell(spec))
            if cache is not None:
                cache.put(spec, cell)
            finish(spec, cell)
    else:
        with ProcessPoolExecutor(max_workers=min(jobs, len(pending))) as pool:
            futures = {pool.submit(run_cell, spec): spec for spec in pending}
            for future in as_completed(futures):
                spec = futures[future]
                cell = _run_named(spec, future.result)
                if cache is not None:
                    cache.put(spec, cell)
                finish(spec, cell)

    return {spec.key: results[spec.key] for spec in specs}


@dataclass
class Plan:
    """An experiment's declared run matrix plus its assembly step.

    ``assemble`` receives the ``{key: CellResult}`` mapping produced by
    :func:`execute` and returns the module's
    :class:`~repro.harness.experiment.ExperimentResult` (or a list of
    them). It runs in the parent process, so it may close over whatever
    plan-time state it likes.
    """

    specs: List[RunSpec]
    assemble: Callable[[Dict[Tuple, CellResult]], object]

    def execute(
        self,
        jobs: int = 1,
        cache: Optional[ResultCache] = None,
        progress: Optional[ProgressFn] = None,
        sanitize: bool = False,
    ):
        return self.assemble(
            execute(
                self.specs,
                jobs=jobs,
                cache=cache,
                progress=progress,
                sanitize=sanitize,
            )
        )


def cell_matrix(
    rows: Iterable[Tuple], schemes: Sequence[Tuple[str, str]]
) -> List[RunSpec]:
    """Workload cells for every row x scheme, in row-major order.

    ``rows`` yields ``(key_prefix, workload, config, params)`` tuples and
    ``schemes`` holds ``(label, scheme)`` pairs; each cell is keyed
    ``(*key_prefix, label)``.
    """
    return [
        RunSpec(
            key=(*prefix, label),
            workload=workload,
            scheme=scheme,
            config=config,
            params=params,
        )
        for prefix, workload, config, params in rows
        for label, scheme in schemes
    ]


# -- the execution flags of ``asap-repro`` and ``asap-repro explore`` ---------


def add_execution_flags(parser) -> None:
    """Add the flags that choose how cells execute (``--full``,
    ``--jobs/-j``, ``--cache-dir``, ``--no-cache``, ``--sanitize``,
    ``--no-progress``) to an argparse parser or argument group."""
    parser.add_argument(
        "--full",
        action="store_true",
        help="use the full Table 2 machine and workload sizes (slow)",
    )
    parser.add_argument(
        "--jobs",
        "-j",
        type=int,
        default=1,
        metavar="N",
        help="run independent simulation cells across N worker processes "
        "(default 1: serial, bit-identical results either way)",
    )
    parser.add_argument(
        "--cache-dir",
        metavar="DIR",
        default=None,
        help="result-cache directory (default: $ASAP_CACHE_DIR, else "
        "~/.cache/asap-repro)",
    )
    parser.add_argument(
        "--no-cache",
        action="store_true",
        help="disable the on-disk result cache (every cell re-runs)",
    )
    parser.add_argument(
        "--sanitize",
        action="store_true",
        help="run every simulation with the runtime invariant sanitizer "
        "attached (raises on the first WAL-contract violation; see "
        "python -m repro.analysis rules)",
    )
    parser.add_argument(
        "--no-progress",
        action="store_true",
        help="suppress per-cell progress/timing lines on stderr",
    )


def cache_from_args(args) -> Optional[ResultCache]:
    """The result cache the execution flags select (None: ``--no-cache``)."""
    if args.no_cache:
        return None
    return ResultCache(args.cache_dir or ResultCache.default_dir())


def progress_from_args(args, label: str) -> Optional[ProgressFn]:
    """A per-cell progress/timing printer tagged ``label`` (stderr keeps
    the tables on stdout clean), or None under ``--no-progress``."""
    if args.no_progress:
        return None

    def progress(done, total, spec, cell):
        status = "cached" if cell.cached else f"{cell.wall_seconds:.2f}s"
        print(
            f"  [{label} {done}/{total}] {spec.describe()} ({status})",
            file=sys.stderr,
            flush=True,
        )

    return progress
