"""Hu & Blake optimal load diffusion.

Given per-node loads and targets, computes the pairwise flow ``m_ij`` that
re-balances the load while minimising the Euclidean norm of the transferred
load -- which is what keeps the number of query migrations small
(Section 3.7).  The classic result: solve ``L x = b`` where ``L`` is the
Laplacian of the diffusion graph and ``b`` the load surplus vector; the
flow on edge ``(i, j)`` is then ``x_i - x_j``.

The coordinator uses the complete graph over its children as the diffusion
graph (any child can hand queries to any other -- they are application-
level peers, not physical neighbours).  For the complete graph ``K_n`` the
Laplacian is ``n I - J`` and the system has a closed-form minimum-norm
solution ``x = b / n`` (``b`` sums to zero, so ``J b = 0``), which
:func:`diffusion_solution` uses together with a vectorised flow
extraction; ``tests/reference/scalar_kernels.py`` keeps the generic
least-squares solve as the parity baseline.
"""

from __future__ import annotations

from typing import Dict, Hashable, List, Tuple

import numpy as np

from ..obs import registry as _obs

__all__ = ["diffusion_solution"]

Flows = Dict[Tuple[Hashable, Hashable], float]


def _surplus(
    loads: Dict[Hashable, float],
    targets: Dict[Hashable, float],
) -> Tuple[List[Hashable], np.ndarray]:
    """Node order and surplus vector ``b`` (shared input validation).

    ``targets`` is rescaled so its total matches the current total load,
    making the system consistent; a non-positive target total raises
    ``ValueError``.
    """
    nodes: List[Hashable] = list(loads)
    load_vec = np.array([loads[u] for u in nodes], dtype=float)
    target_vec = np.array([targets[u] for u in nodes], dtype=float)
    total_t = target_vec.sum()
    if total_t <= 0:
        raise ValueError("targets must have positive total")
    target_vec = target_vec * (load_vec.sum() / total_t)
    return nodes, load_vec - target_vec


def _flows_from_potential(
    nodes: List[Hashable], x: np.ndarray, floor: float
) -> Flows:
    """Positive pairwise flows ``x_i - x_j`` above ``floor``.

    Vectorised: one broadcasted difference matrix and one ``nonzero``
    instead of the n^2 Python double loop.
    """
    diff = x[:, None] - x[None, :]
    ii, jj = np.nonzero(diff > max(floor, 1e-12))
    return {
        (nodes[i], nodes[j]): float(diff[i, j]) for i, j in zip(ii, jj)
    }


def diffusion_solution(
    loads: Dict[Hashable, float],
    targets: Dict[Hashable, float],
    floor: float = 0.0,
) -> Flows:
    """Minimal-norm load flows over the complete graph (fast path).

    Parameters
    ----------
    loads:
        Current load per node.
    targets:
        Desired load per node.  ``sum(targets)`` is rescaled to
        ``sum(loads)`` so the system is consistent.
    floor:
        Drop flows of at most this size.  Callers that discard
        noise-level flows anyway (Algorithm 3 does) pass their threshold
        here so the quadratic flow dictionary never materialises them.

    Returns
    -------
    dict
        ``{(i, j): amount}`` with ``amount > 0`` meaning "move ``amount``
        of load from i to j".  Only positive flows are returned.

    Notes
    -----
    Uses the closed form ``x = b / n``: for ``K_n`` the Laplacian is
    ``n I - J`` and ``b`` sums to zero, so ``(n I - J)(b / n) = b``
    exactly, and ``b / n`` has zero mean, i.e. it *is* the minimum-norm
    solution the generic least-squares path converges to.
    """
    if _obs.ACTIVE is not None:
        _obs.ACTIVE.inc("opt.diffusion_solves")
        _obs.ACTIVE.inc("opt.diffusion_nodes", len(loads))
    n = len(loads)
    if n <= 1:
        return {}
    nodes, b = _surplus(loads, targets)
    return _flows_from_potential(nodes, b / n, floor)
