"""The public surface: every name the package re-exports has a user.

The surface is every re-exported name, and every public method and
property of a re-exported class.  A name counts as used when code
outside the package's ``__init__.py`` reads it: a name or attribute
load in ``src/iasi/``, ``demos/`` or ``bench/``, or one of the function
names that ``bench/spans.py`` traces through its ``TARGETS`` table.
Definitions, imports, docstrings and comments do not count, and tests
are not users.  A name used only by tests goes, unless it is listed in
``KEPT`` as an ordinary graph or labeling operation kept on purpose.
"""

from __future__ import annotations

import ast
import inspect
from pathlib import Path

import iasi

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "iasi"

# used only by tests, and kept as ordinary graph and labeling operations;
# Labeling.restrict is the labeling half of induced_subgraph
KEPT = {"disjoint_union", "induced_subgraph", "restrict"}


def _exported() -> set[str]:
    tree = ast.parse((PACKAGE / "__init__.py").read_text())
    return {
        alias.asname or alias.name
        for node in tree.body
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
    }


def _members(names: set[str]) -> set[str]:
    """Public methods and properties of the classes among ``names``."""
    members = set()
    for name in names:
        cls = getattr(iasi, name)
        if inspect.isclass(cls):
            members |= {
                attr
                for attr, value in vars(cls).items()
                if not attr.startswith("_")
                and (inspect.isfunction(value) or isinstance(value, (property, classmethod, staticmethod)))
            }
    return members


def _loaded(tree: ast.AST) -> set[str]:
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            names.add(node.id)
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            names.add(node.attr)
    return names


def _traced(tree: ast.AST) -> set[str]:
    for node in tree.body:
        if isinstance(node, ast.Assign) and [t.id for t in node.targets] == ["TARGETS"]:
            return {row.elts[2].value for row in node.value.elts}
    raise AssertionError("bench/spans.py has no TARGETS table")


def _used() -> set[str]:
    files = [p for p in PACKAGE.glob("*.py") if p.name != "__init__.py"]
    files += sorted((ROOT / "demos").glob("*.py")) + sorted((ROOT / "bench").glob("*.py"))
    used: set[str] = set()
    for path in files:
        tree = ast.parse(path.read_text())
        used |= _loaded(tree)
        if path == ROOT / "bench" / "spans.py":
            used |= _traced(tree)
    return used


def test_every_export_has_a_user_outside_the_tests():
    # a definition, an import or a docstring is no use
    probe = ast.parse('"""uses f"""\ndef f(): pass\nimport g\nx = 1\nh()\ny.z\n')
    assert _loaded(probe) == {"h", "y", "z"}
    exported = _exported()
    public = exported | _members(exported)
    assert {"neighbors", "vertices", "min"} <= public
    assert KEPT <= public
    assert sorted(public - KEPT - _used()) == []
