"""Shared fixtures and helpers for the test suite."""

from __future__ import annotations

import pytest

from repro.compiler import CompilerOptions, compile_source
from repro.vm import Machine, MachineConfig


def compile_and_run(source: str, options: CompilerOptions = None,
                    max_instructions: int = 20_000_000,
                    entry: str = "main", no_promote: bool = False):
    """Compile mini-C and run it (``no_promote``: promote runs as a
    NOP); returns the RunResult."""
    options = options or CompilerOptions.wrapped()
    program = compile_source(source, options)
    machine = Machine(program, MachineConfig(
        no_promote=no_promote, max_instructions=max_instructions))
    return machine.run(entry)


def run_all_configs(source: str, max_instructions: int = 20_000_000):
    """Run under baseline / wrapped / subheap; returns dict of results."""
    return {
        name: compile_and_run(source, options, max_instructions)
        for name, options in [
            ("baseline", CompilerOptions.baseline()),
            ("wrapped", CompilerOptions.wrapped()),
            ("subheap", CompilerOptions.subheap()),
        ]
    }


@pytest.fixture
def machine_factory():
    """Build a bare machine around a trivial program (for runtime tests)."""
    def build(allocator: str = "wrapped"):
        options = (CompilerOptions.subheap() if allocator == "subheap"
                   else CompilerOptions.wrapped() if allocator == "wrapped"
                   else CompilerOptions.baseline())
        program = compile_source("int main(void) { return 0; }", options)
        return Machine(program)
    return build
