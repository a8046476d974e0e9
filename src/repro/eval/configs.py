"""The five program configurations of the paper's Figure 10.

============  ====================================================
name          meaning
============  ====================================================
baseline      uninstrumented, glibc-model allocator
subheap       instrumented, subheap (pool) allocator
wrapped       instrumented, wrapped (libc + metadata) allocator
subheap-np    subheap build with promote executing as a NOP
wrapped-np    wrapped build with promote executing as a NOP
============  ====================================================

The no-promote builds isolate the promote instruction's contribution:
identical instruction streams, but promote performs no metadata access
and produces no bounds (and therefore no implicit checks).
"""

from __future__ import annotations

from repro.compiler import CompilerOptions
from repro.vm import MachineConfig

CONFIG_NAMES = ("baseline", "subheap", "wrapped", "subheap-np", "wrapped-np")


def build_options(name: str) -> CompilerOptions:
    if name == "baseline":
        return CompilerOptions.baseline()
    if name in ("subheap", "subheap-np"):
        return CompilerOptions.subheap()
    if name in ("wrapped", "wrapped-np"):
        return CompilerOptions.wrapped()
    raise ValueError(f"unknown configuration {name!r}")


def build_machine_config(name: str,
                         max_instructions: int = 200_000_000,
                         engine: str = "auto",
                         temporal: str = "off") -> MachineConfig:
    return MachineConfig(no_promote=name.endswith("-np"),
                         max_instructions=max_instructions,
                         engine=engine, temporal=temporal)
