"""No production-dead surface: every definition in ``src/`` has a user.

An AST scan lists the module-level functions and classes and the methods
of module-level classes defined under ``src/`` (dunders aside), and asks
whether anything in ``src/``, ``benchmarks/`` or ``examples/`` names
them: as a name, an attribute or an import.  A package ``__init__``
re-exporting a name does not count, and neither do tests -- a definition
only tests call is a test helper or a reference, and belongs under
``tests/``.  The scan goes by bare name, so it cannot see a dead method
that shares its name with a live one; it catches the rest.

What is kept on purpose without a user is listed in :data:`ALLOWED`,
each with its reason; an entry that gains a user, or whose definition is
gone, must leave the list.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

#: "module:qualified name" -> why it stays although nothing uses it
ALLOWED = {
    # Tapped by name: benchmarks/e2e/tracing.py wraps these by their
    # dotted path, so renaming or removing one loses its spans (the
    # benchmark reports it as harness.tap_missing).
    "repro.core.coarsening:coarsen": "tap core.coarsen",
    # Public API of the library, exported by its package for users and
    # documented there; only the tests call them.
    "repro.query.containment:equivalent": "query equivalence by containment",
    "repro.query.interest:bits_of": "inverse of mask_of",
    "repro.sim.faults:recovery_invariants": "checks a fault run against the oracle",
    "repro.pubsub.subscriptions:Subscription.merge": "Siena subscription merging",
    "repro.core.graphs:QueryGraph.set_edge": "single-edge write (production batches through set_edges)",
    # Loaders of outside input.
    "repro.sim.trace:SimTrace.from_dict": "parses a trace written by to_dict",
}


def _module(path: Path) -> str:
    parts = path.relative_to(ROOT / "src").with_suffix("").parts
    return ".".join(parts[:-1] if parts[-1] == "__init__" else parts)


def definitions():
    """``(key, bare name)`` for every definition the scan covers."""
    out = []
    for path in sorted((ROOT / "src").rglob("*.py")):
        module = _module(path)
        for node in ast.parse(path.read_text()).body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                continue
            out.append((f"{module}:{node.name}", node.name))
            if isinstance(node, ast.ClassDef):
                out.extend(
                    (f"{module}:{node.name}.{item.name}", item.name)
                    for item in node.body
                    if isinstance(item, ast.FunctionDef)
                )
    return [(key, name) for key, name in out if not name.startswith("__")]


def used_names():
    """Every name ``src/``, ``benchmarks/`` and ``examples/`` mention,
    package ``__init__`` re-exports aside."""
    names = set()
    for top in ("src", "benchmarks", "examples"):
        for path in (ROOT / top).rglob("*.py"):
            reexports = path.name == "__init__.py"
            for node in ast.walk(ast.parse(path.read_text())):
                if isinstance(node, ast.Name):
                    names.add(node.id)
                elif isinstance(node, ast.Attribute):
                    names.add(node.attr)
                elif isinstance(node, ast.ImportFrom) and not reexports:
                    names.update(alias.name for alias in node.names)
    return names


def test_every_definition_in_src_has_a_user():
    used = used_names()
    dead = sorted(key for key, name in definitions() if name not in used)
    assert [key for key in dead if key not in ALLOWED] == []
    # the list stays exact: nothing on it has a user or is gone
    assert sorted(ALLOWED) == [key for key in dead if key in ALLOWED]
