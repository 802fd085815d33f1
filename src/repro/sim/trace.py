"""Time-series traces of a simulation run.

A :class:`SimTrace` is the machine-readable record of a run: periodic
samples (throughput, end-to-end
latency, measured load stddev, traffic counters), one mark per
adaptation round (load stddev regrouped before/after the round's
migrations), and one mark per lifecycle event (query arrival/departure,
hot-spot shift).  Everything is plain floats/ints so ``to_dict`` is
JSON-ready and two runs of the same seeded scenario can be compared for
bit-identical equality.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field
from typing import Dict, List, Optional

__all__ = ["TraceSample", "AdaptationMark", "SimTrace", "TRACE_SCHEMA_VERSION"]

#: version of the ``SimTrace.to_dict`` artifact layout; bump on any
#: field addition/removal so BENCH/TRACE consumers can dispatch
TRACE_SCHEMA_VERSION = 1


@dataclass
class TraceSample:
    """One periodic sample of cluster-wide state."""

    t: float
    #: result tuples delivered per second since the previous sample
    throughput: float
    #: mean / max end-to-end result latency (s) over the interval
    mean_latency: float
    max_latency: float
    #: stddev over engines of measured load (tuples inspected / s)
    load_stddev: float
    alive_queries: int
    migrations_total: int
    #: cumulative overlay traffic (bytes x link count units)
    data_bytes: float
    control_bytes: float
    results_total: int


@dataclass
class AdaptationMark:
    """One Section 3.7 adaptation round, as the simulator observed it."""

    t: float
    #: measured-load stddev under the placement before / after the round
    stddev_before: float
    stddev_after: float
    migrated_queries: int
    #: operator-state tuples shipped between engines by the migrations
    moved_state: float
    #: wall-clock seconds the coordinator tree spent deciding
    optimizer_cpu_s: float


@dataclass
class SimTrace:
    """The full record of one simulation run."""

    seed: int
    samples: List[TraceSample] = field(default_factory=list)
    adaptations: List[AdaptationMark] = field(default_factory=list)
    #: (t, kind, detail) lifecycle events: query_add / query_remove / hotspot
    events: List[tuple] = field(default_factory=list)

    def mark(self, t: float, kind: str, detail: str) -> None:
        self.events.append((round(t, 9), kind, detail))

    # ------------------------------------------------------------------
    def latencies(self) -> List[float]:
        return [s.mean_latency for s in self.samples if s.throughput > 0]

    def stddev_trajectory(self) -> List[float]:
        return [s.load_stddev for s in self.samples]

    def total_results(self) -> int:
        return self.samples[-1].results_total if self.samples else 0

    def total_migrations(self) -> int:
        return self.samples[-1].migrations_total if self.samples else 0

    def stddev_improved(self) -> bool:
        """Did some adaptation round reduce the measured load stddev?"""
        return any(a.stddev_after < a.stddev_before for a in self.adaptations)

    # ------------------------------------------------------------------
    def to_dict(self, include_timing: bool = False) -> Dict:
        """JSON-ready dict; identical seeded runs produce identical dicts.

        ``optimizer_cpu_s`` is the one wall-clock (hence nondeterministic)
        field, so it is dropped unless ``include_timing`` is set.
        """
        adaptations = []
        for a in self.adaptations:
            d = asdict(a)
            if not include_timing:
                d.pop("optimizer_cpu_s")
            adaptations.append(d)
        return {
            "schema_version": TRACE_SCHEMA_VERSION,
            "seed": self.seed,
            "samples": [asdict(s) for s in self.samples],
            "adaptations": adaptations,
            "events": [list(e) for e in self.events],
        }

    @classmethod
    def from_dict(cls, data: Dict) -> "SimTrace":
        """Reconstruct a trace from :meth:`to_dict` output.

        Round-trips exactly: ``SimTrace.from_dict(t.to_dict(True))``
        equals ``t``.  Timing-stripped dicts reconstruct with
        ``optimizer_cpu_s=0.0``.
        """
        version = data.get("schema_version", 1)
        if version != TRACE_SCHEMA_VERSION:
            raise ValueError(
                f"unsupported trace schema_version {version!r} "
                f"(expected {TRACE_SCHEMA_VERSION})"
            )
        trace = cls(seed=data["seed"])
        trace.samples = [TraceSample(**s) for s in data["samples"]]
        trace.adaptations = [
            AdaptationMark(optimizer_cpu_s=0.0, **a)
            if "optimizer_cpu_s" not in a
            else AdaptationMark(**a)
            for a in data["adaptations"]
        ]
        trace.events = [tuple(e) for e in data["events"]]
        return trace

    def summary(self) -> Dict:
        """Compact stats of the run (full samples stay available)."""
        lats = self.latencies()
        return {
            "samples": len(self.samples),
            "results_total": self.total_results(),
            "migrations_total": self.total_migrations(),
            "adaptation_rounds": len(self.adaptations),
            "mean_latency_s": sum(lats) / len(lats) if lats else 0.0,
            "max_latency_s": max(
                (s.max_latency for s in self.samples), default=0.0
            ),
            "final_load_stddev": (
                self.samples[-1].load_stddev if self.samples else 0.0
            ),
            "stddev_improved": self.stddev_improved(),
            "data_bytes": self.samples[-1].data_bytes if self.samples else 0.0,
        }
