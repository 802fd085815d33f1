"""Cross-layer observability for the simulated middleware.

Three instruments behind one :class:`Observer` facade:

* :mod:`~repro.obs.spans` — per-result provenance spans in simulated
  time, sampled by tuple identity (never an rng);
* :mod:`~repro.obs.registry` — a metrics registry of counters, gauges
  and histograms fed by engines, brokers, the optimizer and recovery;
* :mod:`~repro.obs.profiler` — scoped wall-clock timers attributing
  real seconds to subsystems (event loop, dissemination, operator
  execution, coordinator).

The package-wide contract is no perturbation: seeded simulations are
bit-identical with observability off, on, or at any sampling rate.
"""

from .observer import SCHEMA, Observer
from .profiler import SubsystemProfiler
from .registry import MetricsRegistry, set_active
from .spans import Span, SpanRecorder
from .timing import Stopwatch

__all__ = [
    "Observer",
    "SCHEMA",
    "SubsystemProfiler",
    "MetricsRegistry",
    "set_active",
    "Span",
    "SpanRecorder",
    "Stopwatch",
]
