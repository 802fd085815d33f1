"""Reference implementations kept out of production.

Each module here is the slow, obviously-sequential form of a mechanism
``src/`` implements with arrays: it defines what the production path
must reproduce, and a parity test holds the two side by side
(``tests/test_reference_parity.py``, ``tests/test_fastpath_parity.py``,
``tests/test_on_demand_delivery.py``).  Nothing under ``src/`` imports
from here.
"""
