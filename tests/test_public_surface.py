"""The package exports only names that its own modules use, and imports
only the standard library and numpy."""

import ast
import sys
from pathlib import Path

import minscreen

ROOT = Path(__file__).parent.parent


def used_names(paths) -> set[str]:
    """Every name the code of paths reads, as a plain name or an attribute.
    A def or class statement defines its name without reading it."""
    names = set()
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
    return names


def test_every_exported_name_is_used_by_the_package():
    modules = [p for p in (ROOT / "src" / "minscreen").glob("*.py") if p.name != "__init__.py"]
    assert sorted(set(minscreen.__all__) - used_names(modules)) == []


def test_the_package_imports_only_the_standard_library_and_numpy():
    """numpy is the one dependency: every absolute import of the package
    names a standard library module or numpy."""
    imported = set()
    for path in (ROOT / "src" / "minscreen").glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                imported.update(alias.name.partition(".")[0] for alias in node.names)
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                imported.add(node.module.partition(".")[0])
    assert imported and sorted(imported - sys.stdlib_module_names - {"numpy"}) == []
