"""Query layer: interest vectors, workloads, CQL subset, containment."""

from .interest import SubstreamSpace, bits_of, iter_bits, mask_of
from .workload import QuerySpec, Workload, WorkloadParams, generate_workload

__all__ = [
    "SubstreamSpace",
    "mask_of",
    "bits_of",
    "iter_bits",
    "QuerySpec",
    "Workload",
    "WorkloadParams",
    "generate_workload",
]

from .ast import AttrRef, Comparison, Literal, NOW, Query, SelectItem, StreamBinding, Window
from .containment import contains, equivalent, selection_filter, selections_imply
from .merging import (
    merge_all,
    merge_queries,
    mergeable,
    split_subscription,
)
from .parser import ParseError, parse_query

__all__ += [
    "Window", "NOW", "AttrRef", "Literal", "Comparison", "StreamBinding",
    "SelectItem", "Query", "parse_query", "ParseError",
    "contains", "equivalent", "selection_filter", "selections_imply",
    "merge_queries", "merge_all", "mergeable", "split_subscription",
]
