"""Runtime manager for the global metadata table (global table scheme).

The table lives in a reserved region (never reachable through application
allocators); its base address is installed in the IFP unit's control
register at startup.  The runtime hands out rows for (a) escaping globals
too large for the local-offset scheme, (b) oversize stack objects, and
(c) oversize heap allocations from either allocator.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from repro.errors import ResourceExhausted
from repro.ifp.poison import Poison
from repro.ifp.schemes.global_table import GlobalTableScheme, ROW_BYTES
from repro.ifp.tag import unpack_tag
from repro.resil.policy import STRICT


class GlobalTableManager:
    """The table's rows, for a machine with config ``config`` (a
    :class:`~repro.vm.machine.MachineConfig`): rows are written through
    ``memory`` and charged through ``hierarchy``.  The machine installs
    :attr:`table_base` in the IFP unit's control register."""

    def __init__(self, config, memory, hierarchy):
        self.config = config.ifp
        self.policy = config.policy
        self.memory = memory
        self.hierarchy = hierarchy
        self.scheme = GlobalTableScheme(self.config)
        self.rows = self.config.global_table_rows
        self.table_base = config.layout.metadata_table_base
        memory.map_range(self.table_base, self.rows * ROW_BYTES)
        self._free_rows: List[int] = list(range(self.rows - 1, -1, -1))
        self.live_rows = 0
        self.peak_live_rows = 0
        #: registrations refused because the table was full
        self.exhaustion_events = 0

    @property
    def exhausted(self) -> bool:
        return not self._free_rows

    @property
    def free_rows(self) -> int:
        return len(self._free_rows)

    def try_register(self, address: int, size: int,
                     layout_ptr: int) -> Optional[Tuple[int, int, int]]:
        """Claim a row under the machine's ``global_table_exhaustion``
        policy: a full table raises :class:`ResourceExhausted` under
        strict, and returns None under degrade (callers fall back to an
        untagged legacy pointer)."""
        if (not self._free_rows
                and self.policy.global_table_exhaustion != STRICT):
            self.exhaustion_events += 1
            return None
        return self.register(address, size, layout_ptr)

    def register(self, address: int, size: int,
                 layout_ptr: int) -> Tuple[int, int, int]:
        """Claim a row; returns (tagged pointer, cycles, instrs).

        Raises :class:`ResourceExhausted` when the table is full,
        whatever the policy; allocators use :meth:`try_register`.
        """
        if not self._free_rows:
            self.exhaustion_events += 1
            raise ResourceExhausted(
                f"global metadata table full "
                f"({self.rows} rows, {self.live_rows} live)")
        index = self._free_rows.pop()
        self.scheme.write_row(self.memory, self.table_base, index, address,
                              size, layout_ptr)
        row = self.scheme.row_address(self.table_base, index)
        cycles = self.hierarchy.access_cycles(row, ROW_BYTES, True)
        self.live_rows += 1
        self.peak_live_rows = max(self.peak_live_rows, self.live_rows)
        tagged = self.scheme.make_pointer(address, index, Poison.VALID)
        return tagged, cycles + 12, 12

    def deregister(self, tagged_pointer: int) -> Tuple[int, int]:
        """Release the row named by a tagged pointer; (cycles, instrs)."""
        tag = unpack_tag(tagged_pointer)
        index = tag.global_table_index(self.config)
        self.scheme.clear_row(self.memory, self.table_base, index)
        row = self.scheme.row_address(self.table_base, index)
        cycles = self.hierarchy.access_cycles(row, ROW_BYTES, True)
        self._free_rows.append(index)
        self.live_rows -= 1
        return cycles + 8, 8

    def row_info(self, tagged_pointer: int) -> Tuple[int, int, int]:
        """(base, size, layout_ptr) for a tagged pointer's row."""
        tag = unpack_tag(tagged_pointer)
        index = tag.global_table_index(self.config)
        row = self.scheme.row_address(self.table_base, index)
        memory = self.memory
        return (memory.load_int(row, 6), memory.load_int(row + 6, 4),
                memory.load_int(row + 10, 6))
