"""Discrete-event simulation kernel.

A single :class:`~repro.engine.scheduler.Scheduler` drives the whole machine:
cores, memory controllers, and the ASAP commit machinery all schedule
callbacks on it. Determinism is guaranteed by running each cycle's
callbacks in scheduling order.
"""

from repro.engine.scheduler import Scheduler
from repro.engine.waiters import WaitQueue, Signal

__all__ = ["Scheduler", "WaitQueue", "Signal"]
