"""Reference implementations kept out of production.

Each module here is the slow, obviously-sequential form of a mechanism
``src/`` implements with arrays: it defines what the production path
must reproduce bit for bit, and ``tests/test_reference_parity.py`` holds
the two side by side.  Nothing under ``src/`` imports from here.
"""
