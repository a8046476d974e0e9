"""Compiler options: the knobs the evaluation harness sweeps.

``CompilerOptions`` selects between the paper's program versions:

* *baseline* — no instrumentation, glibc-style allocator;
* *wrapped*  — instrumented, wrapped allocator (libc malloc + local-offset
  metadata, global-table fallback);
* *subheap*  — instrumented, subheap (pool-over-buddy) allocator.

The paper's no-promote configuration compiles the same program; the
machine executes its promotes as NOPs (``MachineConfig.no_promote``).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.ifp.config import IFPConfig, DEFAULT_CONFIG


@dataclass(frozen=True)
class CompilerOptions:
    instrument: bool = True
    #: 'glibc' | 'wrapped' | 'subheap'
    allocator: str = "wrapped"
    #: which defense to build: 'ifp' (the paper's), 'asan' (shadow-memory
    #: baseline), 'mpx' (bounds-table baseline), or 'none'
    defense: str = "ifp"
    #: generate layout tables and subobject-index maintenance
    narrowing: bool = True
    #: insert explicit ifpchk instead of relying on implicit checks
    explicit_checks: bool = False
    #: model callee-saved bounds spills (stbnd/ldbnd in prologues)
    bounds_spills: bool = True
    ifp: IFPConfig = DEFAULT_CONFIG

    @classmethod
    def baseline(cls) -> "CompilerOptions":
        return cls(instrument=False, allocator="glibc", defense="none")

    @classmethod
    def asan(cls) -> "CompilerOptions":
        """ASan-like baseline: shadow memory, redzones, inline checks."""
        return cls(instrument=False, allocator="glibc", defense="asan")

    @classmethod
    def mpx(cls) -> "CompilerOptions":
        """MPX-like baseline: per-pointer bounds in a location-indexed
        bounds table, compiler-created bounds, implicit checks."""
        return cls(instrument=False, allocator="glibc", defense="mpx")

    @classmethod
    def wrapped(cls, **kwargs) -> "CompilerOptions":
        return cls(instrument=True, allocator="wrapped", **kwargs)

    @classmethod
    def subheap(cls, **kwargs) -> "CompilerOptions":
        return cls(instrument=True, allocator="subheap", **kwargs)
