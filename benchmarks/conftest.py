"""Shared benchmark fixtures and output capture.

Every bench prints the same rows/series the paper's figure reports, so
``pytest benchmarks/ --benchmark-only -s`` regenerates the evaluation
tables.  Runs use the scaled-down config (`bench_scale`) by default; set
``REPRO_PAPER_SCALE=1`` to use the paper's full simulation parameters
(hours of CPU in pure Python).
"""

import os

import pytest

from repro.experiments.config import bench_scale, paper_scale


def emit(text: str) -> None:
    """Print a delimited results block."""
    print()
    print("=" * 72)
    print(text)
    print("=" * 72)


@pytest.fixture
def config_factory():
    """The experiment config builder for the selected scale."""
    if os.environ.get("REPRO_PAPER_SCALE"):
        return paper_scale
    return bench_scale
