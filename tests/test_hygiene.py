"""Import hygiene of ``src/acdcdyn``, read with ``ast``: every import is
used, and every module-level private name is referenced somewhere in the
package."""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "acdcdyn"
MODULES = {p.name: ast.parse(p.read_text(), str(p))
           for p in sorted(SRC.glob("*.py"))}


def read_names(tree) -> set[str]:
    """The names a module reads: each loaded name and each attribute."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
    return names


def imports(tree):
    """(bound name, line) of every import but ``from __future__``."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for a in node.names:
                yield a.asname or a.name.split(".")[0], node.lineno
        elif isinstance(node, ast.ImportFrom) and \
                node.module != "__future__":
            for a in node.names:
                yield a.asname or a.name, node.lineno


def private_definitions(tree):
    """(name, line) of each module-level ``_private`` def, class or
    constant."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            targets = [node.name]
        elif isinstance(node, ast.Assign):
            targets = [t.id for t in node.targets if isinstance(t, ast.Name)]
        elif isinstance(node, ast.AnnAssign):
            targets = [node.target.id]
        else:
            continue
        for name in targets:
            if name.startswith("_") and not name.startswith("__"):
                yield name, node.lineno


@pytest.mark.parametrize("module", [m for m in MODULES if m != "__init__.py"])
def test_every_import_is_used(module):
    # the package's __init__ imports to re-export
    tree = MODULES[module]
    used = read_names(tree)
    unused = [f"{module}:{line} {name}" for name, line in imports(tree)
              if name not in used]
    assert not unused


def test_every_private_name_is_referenced():
    used = set().union(*map(read_names, MODULES.values()))
    unreferenced = [f"{module}:{line} {name}"
                    for module, tree in MODULES.items()
                    for name, line in private_definitions(tree)
                    if name not in used]
    assert not unreferenced
