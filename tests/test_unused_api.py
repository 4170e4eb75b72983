"""Every function, class and method the package defines is one its own code names.

A name only tests or other tools call is unused API.  The few kept on purpose
are listed with what decides their fate; the match is exact, so an entry goes
stale as soon as its name is used or deleted.
"""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "collar"

ALLOWED = {
    "analysis.comparison_check": "ROADMAP item 2: the family verdict may use it",
    "analysis.maximality_check": "ROADMAP item 2: a kind's verdict uses it, or it goes",
    "analysis.uniqueness_functional": "ROADMAP item 2: a kind's verdict uses it, or it goes",
    "solver.flux_balance_defect": "ROADMAP item 1: the per-step trace replaces it",
    "solver.step_implicit": "the layer sweep of bench/layers.py times it",
    "cli.main": "the console script of pyproject.toml",
    "geometry.NodeClassification.collar": "tests read the collar class beside interface and core",
}


def _is_main_guard(node) -> bool:
    return isinstance(node, ast.If) and getattr(
        getattr(node.test, "left", None), "id", None) == "__name__"


def _definitions(nodes, prefix: str):
    """Qualified name and plain name of each function, class and method, dunders aside."""
    for node in nodes:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            if not node.name.startswith("__"):
                yield prefix + node.name, node.name
            if isinstance(node, ast.ClassDef):
                yield from _definitions(node.body, f"{prefix}{node.name}.")


def test_every_definition_is_named_by_package_code():
    defined, named = {}, set()
    for path in PACKAGE.glob("*.py"):
        tree = ast.parse(path.read_text())
        defined.update(_definitions(tree.body, f"{path.stem}."))
        # The ``__main__`` block is an entry point, not a use.
        body = [node for node in tree.body if not _is_main_guard(node)]
        for node in ast.walk(ast.Module(body=body, type_ignores=[])):
            if isinstance(node, ast.Name):
                named.add(node.id)
            elif isinstance(node, ast.Attribute):
                named.add(node.attr)
            elif isinstance(node, ast.alias):
                named.add(node.name)
    unused = {qualified for qualified, name in defined.items() if name not in named}
    assert unused == set(ALLOWED)
