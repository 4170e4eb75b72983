"""Every error type the package declares is one some code path can raise."""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "collar"


def _name(node) -> str | None:
    """The class named by ``X``, ``X(...)`` or a base ``X``."""
    return getattr(node.func if isinstance(node, ast.Call) else node, "id", None)


def test_every_error_type_is_raised_or_subclassed():
    declared = [node.name for node in ast.parse((PACKAGE / "errors.py").read_text()).body
                if isinstance(node, ast.ClassDef) and node.name != "CollarError"]
    used = set()
    for path in PACKAGE.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Raise) and node.exc is not None:
                used.add(_name(node.exc))
            elif isinstance(node, ast.ClassDef):
                used.update(_name(base) for base in node.bases)
    assert declared and [name for name in declared if name not in used] == []
