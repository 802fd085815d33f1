"""A deterministic discrete-event loop.

The simulator's only notion of time: a binary heap of ``(time, seq,
action)`` entries popped in order.  ``seq`` is a monotone counter, so two
events scheduled for the same instant fire in scheduling order -- the
property that makes a whole cluster simulation reproducible bit-for-bit
from one seed (no wall clocks, no hash-order dependence, no threads).

Actions are zero-argument callables (closures over whatever state they
need).  An action may schedule further events, including at the current
time; those run before the loop advances past that instant.
"""

from __future__ import annotations

import heapq
import itertools
from typing import Callable, List, Tuple

__all__ = ["EventLoop"]

Action = Callable[[], None]


class EventLoop:
    """Seeded-simulation event loop (heap-based, deterministic).

    ``past_epsilon`` bounds how far behind ``now`` a schedule may ask
    for: within it the time is clamped to ``now`` (absorbing float
    round-off), beyond it :meth:`schedule` raises -- silently clamping a
    genuinely past timestamp would mask causality bugs in the caller
    (an effect scheduled before its cause), exactly the class of error a
    deterministic simulator exists to surface.
    """

    def __init__(self, start: float = 0.0, past_epsilon: float = 1e-9):
        self.now: float = start
        self.past_epsilon = past_epsilon
        self._heap: List[Tuple[float, int, Action]] = []
        self._seq = itertools.count()
        self.processed: int = 0
        #: optional :class:`repro.obs.SubsystemProfiler`; when set,
        #: :meth:`run_until` attributes its wall time to "event_loop"
        #: (minus whatever nested sections the actions claim)
        self.profiler = None

    def schedule(self, when: float, action: Action) -> None:
        """Schedule ``action`` at absolute time ``when``.

        Raises ``ValueError`` if ``when`` lies more than ``past_epsilon``
        before ``now``; times within the epsilon are clamped to ``now``
        (the action still runs after every event already queued at
        ``now``, preserving the deterministic total order).
        """
        if when < self.now - self.past_epsilon:
            raise ValueError(
                f"cannot schedule at t={when!r}: already at t={self.now!r} "
                f"(beyond past_epsilon={self.past_epsilon!r})"
            )
        heapq.heappush(self._heap, (max(when, self.now), next(self._seq), action))

    def run_until(self, end: float) -> int:
        """Process every event with time <= ``end``; returns the count.

        Leaves ``now`` at ``end`` so later scheduling is relative to the
        horizon even if the heap drained early.
        """
        count = 0
        profiler = self.profiler
        if profiler is not None:
            profiler.start("event_loop")
        try:
            while self._heap and self._heap[0][0] <= end:
                when, _, action = heapq.heappop(self._heap)
                self.now = when
                action()
                count += 1
        finally:
            if profiler is not None:
                profiler.stop()
        if end != float("inf"):
            self.now = max(self.now, end)
        self.processed += count
        return count

    def run(self) -> int:
        """Drain the heap completely; returns the number of events run."""
        return self.run_until(float("inf"))

    def __len__(self) -> int:
        return len(self._heap)
