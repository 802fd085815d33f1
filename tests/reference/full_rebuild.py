"""The optimizer with no state carried between adaptation rounds.

Production keeps each coordinator's ``CostWorkspace`` alive across rounds
(``Coordinator._workspace``), and the query graph keeps every vertex's
neighbour arrays cached until an incident edge is written.
:class:`FullRebuildCoordinator` builds a fresh workspace every round and
drops every cached neighbour array first, which is the definition the
long-lived state must reproduce.  Everything else -- graph maintenance,
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
    """A coordinator whose cost workspace and neighbour arrays are
    rebuilt every round."""

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
