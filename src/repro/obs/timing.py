"""One-shot wall-clock measurement.

The ``Stopwatch`` times the observed run (:class:`repro.obs.Observer`),
placement search and the experiment scripts.  Keeping one code path
means one place to swap the clock source or add calibration later.
"""

from __future__ import annotations

import time

__all__ = ["Stopwatch"]


class Stopwatch:
    """One-shot elapsed-seconds measurement around a code region.

    Usage::

        sw = Stopwatch()        # starts immediately
        ...work...
        elapsed = sw.elapsed()  # seconds since construction (float)

    ``elapsed()`` can be called repeatedly; ``restart()`` resets the
    origin.  This replaces ad-hoc ``t0 = time.perf_counter()`` pairs so
    grep finds every wall-clock read in the codebase here.
    """

    __slots__ = ("_t0",)

    def __init__(self) -> None:
        self._t0 = time.perf_counter()

    def restart(self) -> None:
        self._t0 = time.perf_counter()

    def elapsed(self) -> float:
        return time.perf_counter() - self._t0
