"""Program loader: lay out the image in simulated memory.

Assigns addresses to globals (with appended-metadata reserves for
registrable ones), string literals, layout tables, and function "text"
stubs (so function pointers are ordinary legacy pointers), then writes the
initial bytes.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Tuple

from repro.compiler.ir import IRProgram, assign_bin_codes
from repro.errors import LinkError
from repro.mem import Memory
from repro.mem.layout import AddressSpaceLayout


@dataclass
class LoadedImage:
    """Symbol tables produced by loading."""

    symbols: Dict[str, int] = field(default_factory=dict)
    #: function-pointer address → function name
    functions_by_address: Dict[int, str] = field(default_factory=dict)
    #: global name → (address, size, layout table address, registrable)
    global_info: Dict[str, Tuple[int, int, int, bool]] = \
        field(default_factory=dict)
    globals_end: int = 0


#: spacing between synthetic function entry points
_FUNC_STRIDE = 16


def load_program(program: IRProgram, memory: Memory,
                 layout: AddressSpaceLayout) -> LoadedImage:
    """Write the program image into memory; returns the symbol tables."""
    # Hand-built IR programs reach the VM without passing through
    # compile_source; give them their BIN/BINI codes here (no-op for
    # already-assigned programs, LinkError once for unknown variants).
    assign_bin_codes(program)
    image = LoadedImage()
    cursor = layout.globals_base

    # Function text stubs first (low addresses, like .text).
    for index, name in enumerate(sorted(program.functions)):
        address = cursor + index * _FUNC_STRIDE
        image.symbols[f"__func_{name}"] = address
        image.functions_by_address[address] = name
    cursor += len(program.functions) * _FUNC_STRIDE

    # Layout tables (read-only data, placed contiguously).
    for symbol, table in program.layout_tables.items():
        cursor = _align(cursor, 16)
        table.address = cursor
        image.symbols[symbol] = cursor
        cursor += len(table.data)

    # Globals, with appended-metadata reserve where needed.
    for name, glob in program.globals.items():
        cursor = _align(cursor, max(glob.align, 1))
        glob.address = cursor
        image.symbols[name] = cursor
        cursor += max(glob.size, 1) + glob.metadata_reserve

    if cursor >= layout.globals_limit:
        raise LinkError("globals segment overflow")
    image.globals_end = _align(cursor, 4096)

    # Materialise and write initial bytes.
    memory.map_range(layout.globals_base, image.globals_end - layout.globals_base)
    for symbol, table in program.layout_tables.items():
        memory.write_bytes(table.address, table.data)
    for name, glob in program.globals.items():
        if glob.init:
            memory.write_bytes(glob.address, glob.init)
        lt_address = image.symbols.get(glob.layout_symbol, 0) \
            if glob.layout_symbol else 0
        image.global_info[name] = (glob.address, glob.size, lt_address,
                                   glob.needs_registration)
    return image


def _align(value: int, alignment: int) -> int:
    return (value + alignment - 1) & ~(alignment - 1)
