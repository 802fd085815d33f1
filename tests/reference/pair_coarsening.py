"""Algorithm 1's matching and collapse, one vertex and one pair at a time.

The definition of what :func:`repro.core.coarsening.coarsen` must
produce: a heavy-edge matching pass that walks each q-vertex's
neighbour dict, and a collapse that merges the matched pairs one by one
until ``vmax``, re-estimating each q-q edge of a merged vertex with one
scalar ``overlap_rate`` -- including neighbours that a later pair of the
same pass collapses again.  Production matches with array operations
over a CSR snapshot and collapses a whole pass at once, estimating every
surviving coarse edge once; ``tests/test_fastpath_parity.py`` holds the
two side by side.
"""

from contextlib import contextmanager
from typing import Dict

from repro.core import coarsening


def match_pass(work, order):
    """One heavy-edge matching pass over ``order``.

    Visits q-vertices in the given order; each unmatched vertex pairs
    with its heaviest-edged unmatched q-neighbour.  Ties break toward the
    neighbour appearing earliest in ``order``.  Returns disjoint pairs.
    """
    rank = {vid: r for r, vid in enumerate(order)}
    matched = set()
    pairs = []
    for vid in order:
        if vid in matched:
            continue
        best = None
        best_key = None
        for nbr, w in work.adj[vid].items():
            if nbr not in work.qverts or nbr in matched or nbr == vid:
                continue
            key = (w, -rank[nbr])
            if best is None or key > best_key:
                best, best_key = nbr, key
        if best is None:
            continue
        pairs.append((vid, best))
        matched.add(vid)
        matched.add(best)
    return pairs


def collapse_pairs(work, pairs, space, origin, vmax):
    """Merge matched pairs one at a time until ``vmax``.

    Neighbour edges of a collapsed pair are unioned; q-q edges are then
    re-estimated exactly from the merged interest mask (the paper's
    bit-vector estimation), q-n weights summed ``a`` then ``b``.
    """
    qverts, adj = work.qverts, work.adj
    for a, b in pairs:
        if work.vertex_count() <= vmax:
            break
        w_new = coarsening._merge_pair(qverts, a, b, origin)
        nbr_edges: Dict = {}
        for old in (a, b):
            for nbr, w in adj.pop(old).items():
                if nbr == a or nbr == b:
                    continue
                del adj[nbr][old]
                nbr_edges[nbr] = nbr_edges.get(nbr, 0.0) + w
        mine = adj[w_new.vid] = {}
        for nbr, w in nbr_edges.items():
            if nbr in qverts:
                w = space.overlap_rate(w_new.mask, qverts[nbr].mask)
            if w > 0:
                mine[nbr] = adj[nbr][w_new.vid] = w
        qverts[w_new.vid] = w_new


@contextmanager
def pairwise_coarsening():
    """Run :mod:`repro.core.coarsening` on :func:`match_pass` and
    :func:`collapse_pairs` inside the block."""
    saved = coarsening._match_pass_arrays, coarsening._collapse_pass
    coarsening._match_pass_arrays = match_pass
    coarsening._collapse_pass = collapse_pairs
    try:
        yield
    finally:
        coarsening._match_pass_arrays, coarsening._collapse_pass = saved
