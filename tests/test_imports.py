"""No module of the package or of its tests imports a name it never uses.

Each module is parsed with ``ast``.  A name bound by a module-level import
is used if the module loads it anywhere, or lists it in ``__all__``;
``from __future__`` imports bind no name.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
MODULES = sorted([*(ROOT / "src" / "collar").glob("*.py"), *(ROOT / "tests").glob("*.py")])


def unused_imports(source: str) -> list[str]:
    """The names ``source``'s module-level imports bind that the module never uses."""
    tree = ast.parse(source)
    bound = [alias.asname or alias.name.split(".")[0]
             for node in tree.body if isinstance(node, (ast.Import, ast.ImportFrom))
             and getattr(node, "module", None) != "__future__" for alias in node.names]
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    exported = [node.value for stmt in tree.body if isinstance(stmt, ast.Assign)
                and any(getattr(t, "id", None) == "__all__" for t in stmt.targets)
                for node in ast.walk(stmt.value) if isinstance(node, ast.Constant)]
    return [name for name in bound if name not in used and name not in exported]


def test_scan_finds_an_unused_import():
    source = "from __future__ import annotations\nimport os, sys as system\nimport a.b\n" \
             "from x import y, z as w\n__all__ = ['y']\nprint(system, a.b)\n"
    assert unused_imports(source) == ["os", "w"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: f"{p.parent.name}/{p.name}")
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []
