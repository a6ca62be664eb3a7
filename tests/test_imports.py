"""Every name a source module imports is used in that module.

No linter ships with the project, so this parses each module under
``src/ssaas_sim/`` with :mod:`ast` and names every imported name the module
never references. Package ``__init__.py`` files re-export names, so they
are skipped, and so are ``from __future__`` imports. Names inside string
annotations count as references.
"""

from __future__ import annotations

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "ssaas_sim"


def imported_names(tree: ast.Module) -> set[str]:
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                names.add(alias.asname or alias.name.split(".")[0])
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                names.add(alias.asname or alias.name)
    return names


def referenced_names(tree: ast.Module) -> set[str]:
    names = set()
    annotations = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.arg) and node.annotation is not None:
            annotations.append(node.annotation)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and node.returns:
            annotations.append(node.returns)
        elif isinstance(node, ast.AnnAssign):
            annotations.append(node.annotation)
    for annotation in annotations:
        for node in ast.walk(annotation):
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                names |= referenced_names(ast.parse(node.value, mode="eval"))
    return names


def unused_imports(path: Path) -> list[str]:
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    return sorted(imported_names(tree) - referenced_names(tree))


def test_reference_detects_unused_and_string_annotation_uses():
    tree = ast.parse("from typing import Any, Optional\nimport os.path\n"
                     "x: 'Optional[int]' = None\n")
    assert sorted(imported_names(tree) - referenced_names(tree)) == ["Any", "os"]


def test_source_modules_use_every_import():
    modules = sorted(p for p in SRC.rglob("*.py") if p.name != "__init__.py")
    assert modules
    unused = [f"{path.relative_to(SRC)}: {name}"
              for path in modules for name in unused_imports(path)]
    assert unused == []
