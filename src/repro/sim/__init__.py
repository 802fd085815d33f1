"""Simulation runtime and metrics.

Two layers:

* :mod:`repro.sim.metrics` -- the *static* Section 4 metrics (weighted
  communication cost, load stddev) computed from a placement;
* the discrete-event cluster simulator (:mod:`repro.sim.cluster` plus
  :mod:`~repro.sim.events` / :mod:`~repro.sim.workload` /
  :mod:`~repro.sim.trace`) -- COSMOS *executed* over simulated time with
  churn, hot spots and measured-load adaptation.  Entry point:
  :func:`run_scenario`.
"""

from .cluster import (
    ChurnParams,
    HotSpotShift,
    ScenarioParams,
    SimCluster,
    SimReport,
    oracle_results,
    run_scenario,
)
from .events import EventLoop
from .faults import (
    RECOVERY_POLICIES,
    BrokerLoss,
    CheckpointRecovery,
    FaultInjector,
    LinkPartition,
    NoRecovery,
    ProcessorCrash,
    ProcessorJoin,
    ProcessorLeave,
    RecoveryPolicy,
    is_subsequence,
    recovery_invariants,
)
from .metrics import CostModel, load_stddev
from .trace import AdaptationMark, SimTrace, TraceSample
from .workload import SimQuery, SimQueryFactory, SimWorkloadParams, measure_rates

__all__ = [
    "AdaptationMark",
    "BrokerLoss",
    "CheckpointRecovery",
    "ChurnParams",
    "CostModel",
    "EventLoop",
    "FaultInjector",
    "HotSpotShift",
    "LinkPartition",
    "NoRecovery",
    "ProcessorCrash",
    "ProcessorJoin",
    "ProcessorLeave",
    "RECOVERY_POLICIES",
    "RecoveryPolicy",
    "ScenarioParams",
    "SimCluster",
    "SimQuery",
    "SimQueryFactory",
    "SimReport",
    "SimTrace",
    "SimWorkloadParams",
    "TraceSample",
    "is_subsequence",
    "load_stddev",
    "measure_rates",
    "oracle_results",
    "recovery_invariants",
    "run_scenario",
]
