"""Exception hierarchy for the ASAP reproduction.

All library-raised exceptions derive from :class:`ReproError` so callers can
catch everything the simulator raises with a single ``except`` clause.
"""


class ReproError(Exception):
    """Base class for every error raised by this library."""


class ConfigError(ReproError):
    """An invalid or inconsistent :class:`~repro.common.params.SystemConfig`."""


class SimulationError(ReproError):
    """An internal invariant of the simulator was violated at run time."""


class LogOverflowError(ReproError):
    """A thread's circular undo-log buffer ran out of space.

    The paper handles this with a hardware exception whose handler allocates
    more log space (Sec. 4.4); the runtime layer catches this exception and
    grows the buffer, so user code normally never sees it.
    """

    def __init__(self, thread_id: int, capacity_entries: int):
        self.thread_id = thread_id
        self.capacity_entries = capacity_entries
        super().__init__(
            f"undo log of thread {thread_id} overflowed "
            f"({capacity_entries} entries)"
        )


class RecoveryError(ReproError):
    """The post-crash recovery procedure found corrupt or impossible state."""


class DeadlockError(SimulationError):
    """Every runnable thread is blocked and no event can unblock them."""


class CellError(ReproError):
    """One cell of an experiment's run matrix raised.

    The message names the cell (key, scheme, workload, cache token); the
    cell's own exception is the ``__cause__``.
    """

    def __init__(self, message: str, key, cache_token: str):
        self.key = key
        self.cache_token = cache_token
        super().__init__(message)


class AnalysisError(ReproError):
    """The correctness-analysis tooling itself could not proceed.

    Raised by :mod:`repro.analysis` when a lint run cannot be completed
    (e.g. every lint thread is functionally blocked) - distinct from a
    *violation*, which is a finding about the analysed program.
    """


class SanitizerError(SimulationError):
    """A runtime persistency invariant was violated (sanitizer finding).

    Carries the structured :class:`~repro.analysis.rules.Violation` record
    that triggered it, so tests and tooling can match on the exact rule ID
    instead of parsing the message.
    """

    def __init__(self, violation):
        self.violation = violation
        super().__init__(f"[{violation.rule_id}] {violation.message}")
