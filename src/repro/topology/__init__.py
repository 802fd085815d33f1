"""Network topology substrate: transit-stub generation, latency, overlays."""

from .latency import LatencyOracle, SyntheticOracle, dijkstra, select_roles
from .overlay import OverlayTree, minimum_latency_spanning_tree
from .transit_stub import Topology, TransitStubParams, generate_transit_stub

__all__ = [
    "Topology",
    "TransitStubParams",
    "generate_transit_stub",
    "LatencyOracle",
    "SyntheticOracle",
    "dijkstra",
    "select_roles",
    "OverlayTree",
    "minimum_latency_spanning_tree",
]
