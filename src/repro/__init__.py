"""COSMOS: massive query optimization for large-scale distributed stream
systems (Middleware 2008 reproduction).

Subpackages
-----------
``repro.topology``
    Transit-stub WAN generation, latency oracle, overlay trees.
``repro.pubsub``
    Siena-like content-based publish/subscribe substrate.
``repro.query``
    CQL subset, window-query containment/merging, interest bit vectors,
    workload generation.
``repro.engine``
    Continuous-query engine (windows, joins) and synthetic sensors.
``repro.core``
    The COSMOS optimizer: graph mapping, coordinator hierarchy, online
    insertion, adaptive redistribution.
``repro.baselines`` / ``repro.placement``
    Evaluation baselines, including the two-phase operator-placement
    comparator.
``repro.sim``
    Evaluation metrics and the discrete-event cluster simulator:
    engines over the pub/sub overlay, shared multi-query execution
    (Section 2), churn, adaptation rounds, fault injection and recovery.
``repro.experiments``
    One driver per paper figure/table.
``repro.obs``
    Observability (spans, metrics, profiler) and the ``cosmos-obs`` CLI.

Benchmarks live outside the package, under ``benchmarks/``.
"""

__version__ = "0.1.0"
