"""Every field of the machine's config records changes something.

A field no code reads is a setting with no effect.  The scan requires
each field of :class:`~repro.vm.machine.MachineConfig`,
:class:`~repro.cache.hierarchy.HierarchyConfig`,
:class:`~repro.ifp.config.IFPConfig` and
:class:`~repro.compiler.options.CompilerOptions` to be read as an
attribute (``x.field``) somewhere under ``src/repro`` outside its own
class body; the class's own methods and properties do not count.
"""

from __future__ import annotations

import ast
import dataclasses
from pathlib import Path

import pytest

from repro.cache.hierarchy import HierarchyConfig
from repro.compiler.options import CompilerOptions
from repro.ifp.config import IFPConfig
from repro.vm.machine import MachineConfig

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "repro"


def _reads_outside(class_name: str) -> set:
    """Attribute names loaded anywhere in the package but inside the
    body of the class called ``class_name``."""
    reads = set()
    for path in sorted(PACKAGE.rglob("*.py")):
        tree = ast.parse(path.read_text())
        inside = {id(node)
                  for cls in ast.walk(tree)
                  if isinstance(cls, ast.ClassDef) and cls.name == class_name
                  for node in ast.walk(cls)}
        reads.update(node.attr for node in ast.walk(tree)
                     if isinstance(node, ast.Attribute)
                     and isinstance(node.ctx, ast.Load)
                     and id(node) not in inside)
    return reads


@pytest.mark.parametrize("config", [
    MachineConfig, HierarchyConfig, IFPConfig, CompilerOptions])
def test_every_config_field_is_read(config):
    reads = _reads_outside(config.__name__)
    unread = [field.name for field in dataclasses.fields(config)
              if field.name not in reads]
    assert not unread, f"{config.__name__} fields nothing reads: {unread}"
