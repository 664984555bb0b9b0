"""The public surface: every name the package re-exports has a user.

The surface is every re-exported name, and every public method and
property of a re-exported class.  A name counts as used when code
outside the package's ``__init__.py`` reads it in ``src/iasi/``,
``demos/`` or ``bench/``, or when ``bench/spans.py`` traces it through
its ``TARGETS`` table.  A re-exported name is read by a name or an
attribute load; a method or property only by an attribute load, so the
builtin ``min`` is no use of a ``min`` property.  Definitions, imports,
docstrings and comments do not count, and tests are not users: a name
used only by tests goes.

No module of the package imports a private name from a sibling but the
two shared helpers in ``PRIVATE_IMPORTS``, so a table or wrapper kept
private to one module is not read by another.
"""

from __future__ import annotations

import ast
import inspect
from pathlib import Path

import iasi

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "iasi"

# the private names a module may import from a sibling, as module.name
PRIVATE_IMPORTS = {"graphs._traverse", "sets._require_ints"}


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


def _loaded(tree: ast.AST) -> tuple[set[str], set[str]]:
    """The names and the attribute names that ``tree`` loads."""
    names, attrs = set(), set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            names.add(node.id)
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            attrs.add(node.attr)
    return names, attrs


def _traced(tree: ast.AST) -> set[str]:
    for node in tree.body:
        if isinstance(node, ast.Assign) and [t.id for t in node.targets] == ["TARGETS"]:
            return {row.elts[2].value for row in node.value.elts}
    raise AssertionError("bench/spans.py has no TARGETS table")


def _used() -> tuple[set[str], set[str]]:
    """Names read by a name load, and names read as an attribute or traced."""
    files = [p for p in PACKAGE.glob("*.py") if p.name != "__init__.py"]
    files += sorted((ROOT / "demos").glob("*.py")) + sorted((ROOT / "bench").glob("*.py"))
    names: set[str] = set()
    attrs: set[str] = set()
    for path in files:
        tree = ast.parse(path.read_text())
        loaded_names, loaded_attrs = _loaded(tree)
        names |= loaded_names
        attrs |= loaded_attrs
        if path == ROOT / "bench" / "spans.py":
            attrs |= _traced(tree)
    return names, attrs


def test_every_export_has_a_user_outside_the_tests():
    # a definition, an import or a docstring is no use
    probe = ast.parse('"""uses f"""\ndef f(): pass\nimport g\nx = 1\nh()\ny.z\n')
    assert _loaded(probe) == ({"h", "y"}, {"z"})
    exported = _exported()
    members = _members(exported)
    assert {"neighbors", "vertices", "max"} <= members
    names, attrs = _used()
    assert sorted(exported - names - attrs) == []
    # a method or property is read as an attribute: a bare name such as
    # the builtin min or max is no use of it
    assert sorted(members - attrs) == []


def _private_imports(tree: ast.AST) -> set[str]:
    """Each private name ``tree`` imports from a sibling module, as module.name."""
    found = set()
    for node in ast.walk(tree):
        if not isinstance(node, ast.ImportFrom) or node.module is None:
            continue
        if node.level == 1:
            module = node.module
        elif node.level == 0 and node.module.startswith("iasi."):
            module = node.module.removeprefix("iasi.")
        else:
            continue
        found |= {f"{module}.{a.name}" for a in node.names if a.name.startswith("_")}
    return found


def test_no_module_imports_a_private_name_from_a_sibling():
    probe = ast.parse("from .a import _x, y\nfrom iasi.b import _z\nfrom os import _exit\n")
    assert _private_imports(probe) == {"a._x", "b._z"}
    found = {
        f"{path.stem}: {name}"
        for path in sorted(PACKAGE.glob("*.py"))
        for name in _private_imports(ast.parse(path.read_text())) - PRIVATE_IMPORTS
    }
    assert sorted(found) == []
