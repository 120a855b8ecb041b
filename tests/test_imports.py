"""protopipe is stdlib-only: no module may import a third-party package."""
from __future__ import annotations

import ast
import sys
from pathlib import Path

import protopipe

PACKAGE_DIR = Path(protopipe.__file__).parent


def top_level_imports(path: Path) -> set[str]:
    """First component of every absolute import in one module."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path))):
        if isinstance(node, ast.Import):
            names.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names.add(node.module.split(".")[0])
    return names


def test_every_import_is_stdlib_or_protopipe():
    modules = sorted(PACKAGE_DIR.rglob("*.py"))
    assert len(modules) > 10
    foreign = {
        str(path.relative_to(PACKAGE_DIR)): sorted(
            name for name in top_level_imports(path)
            if name != "protopipe" and name not in sys.stdlib_module_names
        )
        for path in modules
    }
    assert {module: names for module, names in foreign.items() if names} == {}


def test_the_guard_sees_a_third_party_import(tmp_path):
    module = tmp_path / "m.py"
    module.write_text("import os.path\nfrom numpy import array\nfrom . import errors\n")
    assert top_level_imports(module) == {"os", "numpy"}
