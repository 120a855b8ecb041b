"""Every function and class in protopipe has a caller outside the tests.

A helper that only tests call is surface with no user: it costs lines,
review and upkeep, and it can drift from the path the program really runs.
The scan is by name: a definition counts as used when its name appears as a
name, an attribute or an import anywhere in the package or in the
benchmark harness. Dunder methods are called by Python itself and exempt.

Its blind spot is a shared name: a definition counts as used when its name
is used anywhere, so an unused method hides behind a used one of the same
name on another class, as `UserRecord.labels` did behind `Episode.labels`.
"""
from __future__ import annotations

import ast
from pathlib import Path

REPO = Path(__file__).resolve().parents[1]
PACKAGE_DIR = REPO / "src" / "protopipe"
PERFBENCH_DIR = REPO / "perfbench"


def definitions(path: Path) -> set[str]:
    """Names of every def and class in one module, nested ones included."""
    tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
    kinds = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
    return {node.name for node in ast.walk(tree) if isinstance(node, kinds)}


def references(path: Path) -> set[str]:
    """Every name, attribute and imported name that one module mentions."""
    tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            names.update(alias.name.split(".")[-1] for alias in node.names)
    return names


def unreferenced(defining: list[Path], using: list[Path]) -> list[str]:
    used = set().union(*(references(path) for path in using))
    return sorted(
        f"{path.name}:{name}"
        for path in defining
        for name in definitions(path)
        if name not in used and not (name.startswith("__") and name.endswith("__"))
    )


def test_every_definition_has_a_non_test_caller():
    package = sorted(PACKAGE_DIR.rglob("*.py"))
    harness = sorted(PERFBENCH_DIR.glob("*.py"))
    assert len(package) > 10 and harness
    assert unreferenced(package, package + harness) == []


def test_the_guard_sees_an_unused_helper(tmp_path):
    module = tmp_path / "m.py"
    module.write_text(
        "import os.path\n"
        "from json import loads\n"
        "class Box:\n"
        "    def __init__(self): self.size = used()\n"
        "    def grow(self): pass\n"
        "def used(): return os.path.sep\n"
        "def orphan(): return loads('1')\n"
    )
    assert references(module) >= {"path", "loads", "used", "sep"}
    assert unreferenced([module], [module]) == ["m.py:Box", "m.py:grow", "m.py:orphan"]
