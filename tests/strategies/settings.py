"""Shared Hypothesis settings.

``STANDARD_SETTINGS`` is for properties that build a few small networks
per example; ``DETERMINISM_SETTINGS`` runs the same examples on every
run, for properties whose failures must reproduce from the test name.
Neither has a deadline: a control log's cost varies with what it builds.
"""

from hypothesis import settings

STANDARD_SETTINGS = settings(max_examples=150, deadline=None)
DETERMINISM_SETTINGS = settings(max_examples=50, deadline=None, derandomize=True)
