"""Every name a source module imports, and every private name it binds at
module level, is used in that module; every public name is used somewhere;
and importing the program generates no code.

No linter ships with the project, so this parses each module under
``src/ssaas_sim/`` with :mod:`ast` and names every imported name the module
never loads, and every module-level ``_name`` bound by an assignment, a
``def`` or a ``class`` that the module never loads. Package ``__init__.py``
files re-export names, so they are skipped, and so are ``from __future__``
imports and dunder names. Names inside string annotations count as loads.

A public name (a module-level binding, a method of a module-level class, or
an attribute such a class's ``__init__`` assigns on ``self``, not starting
with ``_``) must be loaded somewhere in ``src/``, ``bench/`` or ``tests/``:
as a name, an attribute, an imported name, or a string constant, since the
benchmark's tracer patches attributes by their names. Neither a package
``__init__.py``'s re-export nor an ``__all__`` entry is a use, and neither
is an assignment to the attribute. A public name that only ``tests/`` loads
must be on :data:`TEST_ONLY_API`, the API kept on purpose for tests.

Each name has one home: code imports it from the module that defines it.
``ssaas/__init__.py`` binds no names, ``migration/__init__.py`` re-exports
exactly the names the benchmark reads as ``migration.<name>``, and no module
assigns ``__all__``.
"""

from __future__ import annotations

import ast
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "ssaas_sim"

# Public names no program code loads, kept for tests to observe the kernel
# and the server pool without reading private fields.
TEST_ONLY_API = {"inject", "node_alive", "pending_external", "queue_depth",
                 "next_event_tick", "active_reservations", "servers"}


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


def top_level_bindings(tree: ast.Module) -> set[str]:
    """Names the module's top level binds with an assignment, a ``def`` or a
    ``class``."""
    names = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                names.update(n.id for n in ast.walk(target) if isinstance(n, ast.Name))
    return names


def private_bindings(tree: ast.Module) -> set[str]:
    """Top-level bindings starting with ``_``; dunder names are left out."""
    return {name for name in top_level_bindings(tree)
            if name.startswith("_") and not (name.startswith("__") and name.endswith("__"))}


def init_attributes(cls: ast.ClassDef) -> set[str]:
    """The attributes the class's ``__init__`` assigns on ``self``."""
    names = set()
    for item in cls.body:
        if isinstance(item, ast.FunctionDef) and item.name == "__init__" and item.args.args:
            this = item.args.args[0].arg
            names.update(node.attr for node in ast.walk(item)
                         if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Store)
                         and isinstance(node.value, ast.Name) and node.value.id == this)
    return names


def public_definitions(tree: ast.Module) -> set[str]:
    """Top-level bindings, and methods of top-level classes and attributes
    their ``__init__`` assigns, that do not start with ``_``."""
    names = set(top_level_bindings(tree))
    for node in tree.body:
        if isinstance(node, ast.ClassDef):
            names.update(item.name for item in node.body
                         if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)))
            names |= init_attributes(node)
    return {name for name in names if not name.startswith("_")}


def used_names(tree: ast.Module, reexports: bool) -> set[str]:
    """Names, attributes, imported names and string constants the module
    loads, leaving out ``__all__`` and, for a package that ``reexports``,
    its imports."""
    listed = set()
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(isinstance(target, ast.Name)
                                                and target.id == "__all__"
                                                for target in node.targets):
            listed.update(id(item) for item in ast.walk(node.value))
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            names.add(node.id)
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            names.add(node.attr)
        elif isinstance(node, ast.alias) and not reexports:
            names.add(node.name)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str) \
                and id(node) not in listed:
            names.add(node.value)
    return names


def referenced_names(tree: ast.Module) -> set[str]:
    """Names the module loads, string annotations included."""
    names = set()
    annotations = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
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


def parse(path: Path) -> ast.Module:
    return ast.parse(path.read_text(encoding="utf-8"), filename=str(path))


def unused_imports(path: Path) -> list[str]:
    tree = parse(path)
    return sorted(imported_names(tree) - referenced_names(tree))


def unused_private_names(path: Path) -> list[str]:
    tree = parse(path)
    return sorted(private_bindings(tree) - referenced_names(tree))


def test_reference_detects_unused_and_string_annotation_uses():
    tree = ast.parse("from typing import Any, Optional\nimport os.path\n"
                     "x: 'Optional[int]' = None\n")
    assert sorted(imported_names(tree) - referenced_names(tree)) == ["Any", "os"]


def test_reference_detects_unused_private_names():
    tree = ast.parse("_a = 1\n_b, (_c, d) = 2, (3, 4)\n_e: int = 5\n__all__ = []\n"
                     "def _f(): return _a\nclass _G: pass\nclass H(_G): pass\n"
                     "def g():\n    _h = 1\n    return _h\n"
                     "_i = 0\n_i = 1\nx: '_J' = None\nclass _J: pass\n")
    assert sorted(private_bindings(tree) - referenced_names(tree)) == [
        "_b", "_c", "_e", "_f", "_i"]


def test_reference_detects_dead_public_names():
    defining = ast.parse("A = 1\nB, _c = 2, 3\ndef f(): pass\ndef g(): pass\n"
                         "class K:\n    x = 1\n    def __init__(me, v):\n"
                         "        me.read = me.stored = v\n        me._own = v\n"
                         "        other.elsewhere = v\n"
                         "    def used(self): pass\n"
                         "    def patched(self): pass\n    def dead(self): pass\n"
                         "    def _private(self): pass\n")
    using = ast.parse("from m import A\nk.used()\npatch(K, 'patched')\n"
                      "k.read + 1\nk.stored = 2\n__all__ = ['B', 'g']\n")
    package = ast.parse("from .m import B, f\n")
    loaded = used_names(using, reexports=False) | used_names(package, reexports=True)
    assert sorted(public_definitions(defining) - loaded) == ["B", "dead", "f", "g", "stored"]


def source_modules() -> list[Path]:
    modules = sorted(p for p in SRC.rglob("*.py") if p.name != "__init__.py")
    assert modules
    return modules


def test_source_modules_use_every_import():
    unused = [f"{path.relative_to(SRC)}: {name}"
              for path in source_modules() for name in unused_imports(path)]
    assert unused == []


def test_source_modules_load_every_private_name():
    unused = [f"{path.relative_to(SRC)}: {name}"
              for path in source_modules() for name in unused_private_names(path)]
    assert unused == []


def loaded_names(*folders: str) -> set[str]:
    """The names :func:`used_names` finds in every module under ``folders``."""
    loaded = set()
    for folder in folders:
        for path in (ROOT / folder).rglob("*.py"):
            loaded |= used_names(parse(path), reexports=path.name == "__init__.py")
    return loaded


def test_every_public_name_is_used_somewhere():
    loaded = loaded_names("src", "bench", "tests")
    dead = [f"{path.relative_to(SRC)}: {name}" for path in source_modules()
            for name in sorted(public_definitions(parse(path)) - loaded)]
    assert dead == []


def test_public_names_only_tests_load_are_the_kept_api():
    program = loaded_names("src", "bench")
    unlisted, listed = [], set()
    for path in source_modules():
        for name in sorted(public_definitions(parse(path)) - program):
            if name in TEST_ONLY_API:
                listed.add(name)
            else:
                unlisted.append(f"{path.relative_to(SRC)}: {name}")
    assert unlisted == []
    assert listed == TEST_ONLY_API  # no entry outlives its test-only use


def test_the_ssaas_package_binds_no_names():
    tree = parse(SRC / "ssaas" / "__init__.py")
    assert top_level_bindings(tree) | imported_names(tree) == set()


def test_the_migration_package_reexports_what_the_benchmark_reads():
    read = {node.attr for path in (ROOT / "bench").rglob("*.py") for node in ast.walk(parse(path))
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
            and isinstance(node.value, ast.Name) and node.value.id == "migration"}
    assert imported_names(parse(SRC / "migration" / "__init__.py")) == read


def test_no_module_assigns_dunder_all():
    assigning = [str(path.relative_to(SRC)) for path in sorted(SRC.rglob("*.py"))
                 if any(isinstance(node, ast.Name) and node.id == "__all__"
                        and isinstance(node.ctx, ast.Store) for node in ast.walk(parse(path)))]
    assert assigning == []


def test_importing_the_cli_loads_neither_dataclasses_nor_inspect():
    # A @dataclass generates and execs its methods when its module is
    # imported, which every process pays for at start-up. -S keeps site
    # hooks from importing either module before the program does.
    code = ("import sys, ssaas_sim.cli; "
            "print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))")
    env = dict(os.environ, PYTHONPATH=str(SRC.parent))
    out = subprocess.run([sys.executable, "-S", "-c", code], capture_output=True, text=True,
                         env=env, check=True, timeout=60)
    assert out.stdout.strip() == "[]"
