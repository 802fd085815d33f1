"""Hypothesis strategies for property-based tests.

Re-exports commonly used strategies for convenience:
    from strategies import control_ops, subscription_pool, STANDARD_SETTINGS
"""

from strategies.network import (
    ADVERTS,
    LINKS,
    NODES,
    SOURCE,
    STREAMS,
    apply,
    control_logs,
    control_ops,
    rows_of,
    subscribes,
    subscription_pool,
    tree,
    whole_rows,
)
from strategies.settings import DETERMINISM_SETTINGS, STANDARD_SETTINGS

__all__ = [
    "ADVERTS",
    "DETERMINISM_SETTINGS",
    "LINKS",
    "NODES",
    "SOURCE",
    "STANDARD_SETTINGS",
    "STREAMS",
    "apply",
    "control_logs",
    "control_ops",
    "rows_of",
    "subscribes",
    "subscription_pool",
    "tree",
    "whole_rows",
]
