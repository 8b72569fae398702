"""No module of the package, its tests or its tools imports a name it never reads.

A name counts as read where it is loaded anywhere in the module, or, for a
module-level ``__all__``, where ``__all__`` lists it: the package's
``__init__`` imports its public names to re-export them.  ``from __future__
import annotations`` binds no name and is not checked.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
MODULES = sorted([*(ROOT / "src" / "tricurves").glob("*.py"),
                  *(ROOT / "tests").glob("*.py"), *(ROOT / "tools").glob("*.py")])


def _imported(tree: ast.Module) -> list[tuple[str, int]]:
    """Each name an import binds, with the import's line."""
    names = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names += [(alias.asname or alias.name.partition(".")[0], node.lineno)
                      for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            names += [(alias.asname or alias.name, node.lineno) for alias in node.names]
    return names


def _read(tree: ast.Module) -> set[str]:
    """Each name the module loads, and each that its ``__all__`` lists."""
    read = {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    for node in tree.body:
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)):
            read.update(elt.value for elt in node.value.elts)
    return read


def unused_imports(source: str) -> list[tuple[str, int]]:
    tree = ast.parse(source)
    read = _read(tree)
    return [(name, line) for name, line in _imported(tree) if name not in read]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: str(p.relative_to(ROOT)))
def test_every_imported_name_is_read(path):
    assert unused_imports(path.read_text()) == []


def test_the_scan_sees_unused_names():
    source = ("from __future__ import annotations\n"
              "import os, os.path as osp\nimport tricurves.kernel\n"
              "from math import gcd, lcm as _lcm\n"
              "def f():\n    import csv as _csv\n    return gcd(1, 2) + tricurves.x\n"
              "__all__ = ['os']\n")
    assert unused_imports(source) == [("osp", 2), ("_lcm", 4), ("_csv", 6)]
