"""Every name a ``repro`` module imports is used there.

The scan reads each non-``__init__`` module under ``src/repro``: a name
bound by an ``import`` is unused when no ``Name`` node of the module
reads it and no string constant mentions it as a word (``__all__``
entries, doctests).  A name another module imports *through* this one
(``from repro.x import name``) is a re-export and is kept.
"""

from __future__ import annotations

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "repro"


def _module_name(path: Path) -> str:
    return ".".join(path.relative_to(PACKAGE.parent).with_suffix("").parts)


def _unused(tree: ast.Module) -> set:
    bound = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            bound.update(alias.asname or alias.name.split(".")[0]
                         for alias in node.names if alias.name != "*")
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    strings = [node.value for node in ast.walk(tree)
               if isinstance(node, ast.Constant)
               and isinstance(node.value, str)]
    return {name for name in bound - read
            if not any(re.search(rf"\b{name}\b", text) for text in strings)}


def _reexported(trees) -> set:
    """``(module, name)`` for every ``from module import name`` in the
    sources, the tests and the benchmarks."""
    out = set()
    for tree in trees:
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module:
                out.update((node.module, alias.name) for alias in node.names)
    return out


def test_no_module_imports_a_name_it_does_not_use():
    modules = {path: ast.parse(path.read_text())
               for path in sorted(PACKAGE.rglob("*.py"))}
    others = [ast.parse(path.read_text())
              for folder in ("tests", "benchmarks", "perfbench", "examples")
              for path in sorted((ROOT / folder).rglob("*.py"))]
    reexported = _reexported(list(modules.values()) + others)
    unused = {
        f"{_module_name(path)}: {name}"
        for path, tree in modules.items() if path.name != "__init__.py"
        for name in _unused(tree)
        if (_module_name(path), name) not in reexported}
    assert not unused, sorted(unused)
