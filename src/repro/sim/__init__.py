"""Discrete-event simulation kernel.

A small, fast, dependency-free DES engine in the callback style: events
are ``(time, priority, sequence)``-ordered entries in a binary heap, each
carrying a zero-argument action.  The disk-array simulator
(:mod:`repro.disk`) and the policy layer (:mod:`repro.policies`) are built
entirely on this kernel.

Design notes (why callbacks, not generator processes): the hot loop of a
trace-driven run executes millions of events; plain callables avoid the
generator-resume overhead and keep profiles flat (see the project guides'
"measure first" rule — the event loop is the one genuine hot spot in this
library).
"""

from repro.sim.engine import EventHandle, Simulator, SimulationError
from repro.sim.timers import ResettableTimer, PeriodicTask

__all__ = [
    "EventHandle",
    "Simulator",
    "SimulationError",
    "ResettableTimer",
    "PeriodicTask",
]
