"""Subsystem wall-clock profiler: where do the real seconds go?

:class:`SubsystemProfiler` attributes elapsed wall-clock time to named
subsystems — ``event_loop``, ``dissemination``, ``operator_exec``,
``coordinator``, ``sampling``, ``recovery``, ``setup`` — via
``start``/``stop`` sections.  Sections nest; each section's *exclusive*
time (its elapsed minus time spent in child sections) is what
accumulates, so the totals partition the run's wall time and sum to ≤
the observed wall clock.

The profiler reads only :func:`time.perf_counter`; it never touches
simulated state, so it cannot perturb a run.  The converse also holds:
the simulation never reads the profiler, so wall-clock jitter cannot
leak into simulated behaviour.

Callers put explicit ``start``/``stop`` pairs around single-exit bodies
(no try/finally, no context-manager allocation on hot paths).
"""

from __future__ import annotations

import time
from typing import Dict, List

__all__ = ["SubsystemProfiler"]


class SubsystemProfiler:
    """Nested scoped timers with exclusive-time attribution."""

    def __init__(self) -> None:
        #: subsystem name -> exclusive seconds
        self.totals: Dict[str, float] = {}
        #: subsystem name -> number of sections entered
        self.calls: Dict[str, int] = {}
        #: open sections: [name, t0, child_seconds]
        self._stack: List[list] = []

    # -- scoping --------------------------------------------------------
    def start(self, name: str) -> None:
        self._stack.append([name, time.perf_counter(), 0.0])

    def stop(self) -> None:
        name, t0, child_s = self._stack.pop()
        elapsed = time.perf_counter() - t0
        exclusive = elapsed - child_s
        self.totals[name] = self.totals.get(name, 0.0) + exclusive
        self.calls[name] = self.calls.get(name, 0) + 1
        if self._stack:
            self._stack[-1][2] += elapsed

    # -- export ---------------------------------------------------------
    def coverage(self, wall_s: float) -> float:
        """Fraction of ``wall_s`` attributed to named subsystems."""
        if wall_s <= 0:
            return 0.0
        return sum(self.totals.values()) / wall_s

    def to_dict(self, wall_s: float = 0.0) -> Dict:
        out = {
            "totals_s": {k: self.totals[k] for k in sorted(self.totals)},
            "calls": {k: self.calls[k] for k in sorted(self.calls)},
        }
        if wall_s > 0:
            out["wall_s"] = wall_s
            out["coverage"] = self.coverage(wall_s)
        return out
