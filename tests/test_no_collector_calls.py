"""No module under ``src/repro`` drives or tunes the cyclic collector.

A finished machine frees itself by reference counting (see
``tests/test_lifecycle.py``), which is what keeps the collector out of a
run.  Calling ``gc.disable``, ``gc.freeze``, ``gc.set_threshold`` or
``gc.collect`` instead would hide a reference cycle rather than remove
it, so the scan below rejects any such call, however ``gc`` or the
function was imported.
"""

from __future__ import annotations

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "repro"
FORBIDDEN = frozenset(("disable", "freeze", "set_threshold", "collect"))


def collector_calls(tree: ast.AST) -> list:
    """``(line, name)`` of every call of a forbidden ``gc`` function."""
    modules = set()    # names bound to the gc module
    functions = {}     # names bound to a forbidden gc function
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            modules.update(alias.asname or alias.name
                           for alias in node.names if alias.name == "gc")
        elif isinstance(node, ast.ImportFrom) and node.module == "gc":
            functions.update((alias.asname or alias.name, alias.name)
                             for alias in node.names
                             if alias.name in FORBIDDEN)
    calls = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        if (isinstance(func, ast.Attribute) and func.attr in FORBIDDEN
                and isinstance(func.value, ast.Name)
                and func.value.id in modules):
            calls.append((node.lineno, f"gc.{func.attr}"))
        elif isinstance(func, ast.Name) and func.id in functions:
            calls.append((node.lineno, f"gc.{functions[func.id]}"))
    return calls


def test_no_module_calls_the_collector():
    found = [f"{path.relative_to(PACKAGE)}:{line}: {name}"
             for path in sorted(PACKAGE.rglob("*.py"))
             for line, name in collector_calls(ast.parse(path.read_text()))]
    assert not found, f"collector calls under src/repro: {found}"


def test_the_scan_sees_every_spelling():
    source = "\n".join((
        "import gc", "import gc as _gc",
        "from gc import collect, freeze as ice",
        "gc.disable()", "_gc.set_threshold(0)", "collect()", "ice()",
        "gc.enable()", "gc.get_count()"))
    assert [name for _line, name in collector_calls(ast.parse(source))] \
        == ["gc.disable", "gc.set_threshold", "gc.collect", "gc.freeze"]
