"""Persistence schemes: ASAP and the paper's four baselines (Sec. 6.3).

=========  ==================================================================
Scheme     Commit discipline
=========  ==================================================================
``np``     no persistency at all (upper bound)
``sw``     software undo logging; log flush+fence on the critical path per
           first write, data flushes + fence at region end
``sw_dpo_only`` the Fig. 1 "DPO Only" variant of ``sw``: no logging, just the
           end-of-region data flushes and fence
``hwundo`` hardware undo logging, synchronous commit: wait for all LPOs and
           DPOs at region end (Proteus-style)
``hwredo`` hardware redo logging, synchronous commit: wait for LPOs at
           region end; DPOs asynchronous after commit
``asap``   asynchronous commit: wait for nothing at region end; commit
           order enforced via hardware dependence tracking
``asap_redo`` the Fig. 2c extension: asynchronous commit on redo logging,
           with durable commit markers and replay recovery
``eadr``   idealized Sec. 8 contrast: battery-backed caches (zero persist
           ops, WAL entirely in cache, large battery requirement)
=========  ==================================================================

Use :func:`make_scheme` to construct one by name, and
:func:`recoverable_schemes` for the ones that model crash recovery.
"""

from repro.persist.base import PersistenceScheme, SchemeThread
from repro.persist.np import NoPersistence
from repro.persist.sw import SoftwareLogging
from repro.persist.hwundo import HardwareUndoLogging
from repro.persist.hwredo import HardwareRedoLogging
from repro.persist.asap import AsapScheme
from repro.persist.asap_redo import AsapRedoLogging
from repro.persist.eadr import EadrLogging

_SCHEMES = {
    "np": NoPersistence,
    "sw": SoftwareLogging,
    "sw_dpo_only": lambda: SoftwareLogging(dpo_only=True),
    "hwundo": HardwareUndoLogging,
    "hwredo": HardwareRedoLogging,
    "asap": AsapScheme,
    "asap_redo": AsapRedoLogging,
    "eadr": EadrLogging,
}


def make_scheme(name: str) -> PersistenceScheme:
    """Build a persistence scheme by its evaluation name."""
    try:
        factory = _SCHEMES[name]
    except KeyError:
        raise ValueError(f"unknown scheme {name!r}; choose from {sorted(_SCHEMES)}")
    return factory()


def scheme_names():
    """All known scheme names."""
    return sorted(_SCHEMES)


def recoverable_schemes():
    """Names of the schemes that declare a ``RECOVERY`` procedure, in
    :func:`scheme_names` order: the ones a crash can be recovered on."""
    return [name for name in scheme_names() if make_scheme(name).RECOVERY]


__all__ = [
    "PersistenceScheme",
    "SchemeThread",
    "NoPersistence",
    "SoftwareLogging",
    "HardwareUndoLogging",
    "HardwareRedoLogging",
    "AsapScheme",
    "AsapRedoLogging",
    "EadrLogging",
    "make_scheme",
    "scheme_names",
    "recoverable_schemes",
]
