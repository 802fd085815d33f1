"""Reference implementations kept out of production.

Each module here is the slow, obviously-sequential form of a mechanism
``src/`` implements with arrays, indexes, memos or state carried between
rounds: it defines what the production path must reproduce, and a parity
test holds the two side by side (``tests/test_reference_parity.py``,
``tests/test_fastpath_parity.py``, ``tests/test_batch_parity.py``,
``tests/test_on_demand_delivery.py``, ``tests/test_control_plane.py``,
``tests/test_forwarding_index.py``, ``tests/test_incremental_opt.py``).
The simulator's reference clusters are held to production by one
contract, ``tests/cluster_contract.py``; the full-rebuild optimizer
(``full_rebuild.py``) is swapped into ``Cosmos`` the same way, by
rebinding the class name it constructs.  Nothing under ``src/`` imports
from here.
"""
