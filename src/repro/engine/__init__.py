"""Continuous-query engine (GSN substitute) and synthetic sensor data."""

from .executor import Engine
from .operators import (
    Project,
    Select,
    WindowJoin,
    evaluate_comparison,
    evaluate_predicates_batch,
)
from .plans import QueryPlan, compile_query
from .sensors import SensorFleet, SensorStation
from .tuples import MergedBatch, Schema, StreamTuple, TupleBatch
from .windows import ColumnWindow, SlidingWindow

__all__ = [
    "Engine",
    "QueryPlan",
    "compile_query",
    "Select",
    "Project",
    "WindowJoin",
    "evaluate_comparison",
    "evaluate_predicates_batch",
    "Schema",
    "StreamTuple",
    "TupleBatch",
    "MergedBatch",
    "SlidingWindow",
    "ColumnWindow",
    "SensorFleet",
    "SensorStation",
]
