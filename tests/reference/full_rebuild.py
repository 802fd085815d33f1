"""The optimizer with no neighbour array carried between adaptation rounds.

Production builds a fresh ``CostWorkspace`` every round
(``Coordinator._workspace``), but the query graph keeps every vertex's
neighbour arrays cached across rounds until an incident edge is written.
:class:`FullRebuildCoordinator` drops every cached neighbour array before
it builds the round's workspace, which is the definition the cached
arrays must reproduce.  Everything else -- graph maintenance,
coarsening, the skip rules -- is the production code: children are built
with ``type(self)``, so the whole tree is of this class.

``tests/test_incremental_opt.py`` runs its scenarios on both and asserts
equal placements, vertex aggregates and WEC.
"""

from contextlib import contextmanager

from repro.core import cosmos as cosmos_module
from repro.core.coordinator import Coordinator
from repro.core.fastcost import CostWorkspace


class FullRebuildCoordinator(Coordinator):
    """A coordinator whose neighbour arrays are rebuilt every round."""

    def _workspace(self) -> CostWorkspace:
        self.qg._cached = [None] * self.qg.slot_count
        return CostWorkspace(self.qg, self.ng)


@contextmanager
def swapped():
    """Build every ``Cosmos`` tree inside the block from
    :class:`FullRebuildCoordinator`.

    ``Cosmos`` constructs its root through the module-level name
    ``repro.core.cosmos.Coordinator``, and so does a membership change
    (``add_processor`` / ``remove_processor``), which rebuilds the root:
    make those calls on a reference instance inside the block too.
    """
    saved = cosmos_module.Coordinator
    cosmos_module.Coordinator = FullRebuildCoordinator
    try:
        yield
    finally:
        cosmos_module.Coordinator = saved
