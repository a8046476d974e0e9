"""Sparse paged byte-addressable memory with lazy page materialisation.

The memory system only ever sees 48-bit canonical addresses: callers (the
VM's load/store unit) must strip pointer tags first.  Accessing a page that
has never been mapped raises :class:`~repro.errors.MemoryFault`, modelling
a page fault delivered to the guest.

Little-endian byte order throughout, matching RISC-V.
"""

from __future__ import annotations

from typing import Dict, Iterator, Tuple

from repro.errors import MemoryFault
from repro.mem.layout import ADDRESS_MASK, PAGE_SIZE


class Memory:
    """Sparse paged memory.

    Pages are created on :meth:`map_range` (explicit mapping, used by the
    loader and the allocators' ``sbrk``-style growth) — *not* on first
    access, so wild stores fault like they would on real hardware.
    """

    def __init__(self, page_size: int = PAGE_SIZE):
        if page_size <= 0 or page_size & (page_size - 1):
            raise ValueError("page_size must be a positive power of two")
        self.page_size = page_size
        self._pages: Dict[int, bytearray] = {}
        #: bytes explicitly mapped; the high-water mark feeds the
        #: memory-overhead evaluation (Figure 12).
        self.mapped_bytes = 0
        self.peak_mapped_bytes = 0
        #: optional store snoop ``watcher(address, size)`` invoked before
        #: every write — the IFP unit uses it to invalidate its metadata
        #: line buffer and host-side promote/layout caches.  ``None``
        #: keeps writes on their unwatched fast path.
        self.watcher = None
        #: optional ``unmap_watcher(base, size)`` invoked on unmap_range.
        self.unmap_watcher = None

    # -- mapping ----------------------------------------------------------

    def map_range(self, base: int, size: int) -> None:
        """Map all pages covering ``[base, base + size)`` (idempotent)."""
        if size <= 0:
            return
        base &= ADDRESS_MASK
        first = base // self.page_size
        last = (base + size - 1) // self.page_size
        for page_no in range(first, last + 1):
            if page_no not in self._pages:
                self._pages[page_no] = bytearray(self.page_size)
                self.mapped_bytes += self.page_size
        self.peak_mapped_bytes = max(self.peak_mapped_bytes, self.mapped_bytes)

    def unmap_range(self, base: int, size: int) -> None:
        """Unmap all pages fully contained in ``[base, base + size)``."""
        if size <= 0:
            return
        if self.unmap_watcher is not None:
            self.unmap_watcher(base & ADDRESS_MASK, size)
        base &= ADDRESS_MASK
        first_full = -(-base // self.page_size)  # ceil division
        last_full = (base + size) // self.page_size  # exclusive
        for page_no in range(first_full, last_full):
            if self._pages.pop(page_no, None) is not None:
                self.mapped_bytes -= self.page_size

    def is_mapped(self, address: int, size: int = 1) -> bool:
        """True when every byte of ``[address, address + size)`` is mapped."""
        address &= ADDRESS_MASK
        first = address // self.page_size
        last = (address + size - 1) // self.page_size
        return all(page_no in self._pages for page_no in range(first, last + 1))

    # -- raw byte access --------------------------------------------------

    def read_bytes(self, address: int, size: int) -> bytes:
        """Read ``size`` bytes; faults if any byte is unmapped."""
        address &= ADDRESS_MASK
        if size < 0:
            raise MemoryFault(f"negative read size {size}", address)
        offset = address % self.page_size
        if size and offset + size <= self.page_size:
            # fast path: the whole read sits inside one page
            page = self._pages.get(address // self.page_size)
            if page is None:
                raise MemoryFault(
                    f"page fault at 0x{address:012x} (unmapped)", address)
            return bytes(page[offset:offset + size])
        out = bytearray()
        remaining = size
        cursor = address
        while remaining:
            page = self._page_for(cursor)
            offset = cursor % self.page_size
            chunk = min(remaining, self.page_size - offset)
            out += page[offset:offset + chunk]
            cursor += chunk
            remaining -= chunk
        return bytes(out)

    def write_bytes(self, address: int, data: bytes) -> None:
        """Write ``data``; faults if any byte is unmapped."""
        address &= ADDRESS_MASK
        size = len(data)
        if self.watcher is not None:
            self.watcher(address, size)
        offset = address % self.page_size
        if size and offset + size <= self.page_size:
            # fast path: the whole write sits inside one page
            page = self._pages.get(address // self.page_size)
            if page is None:
                raise MemoryFault(
                    f"page fault at 0x{address:012x} (unmapped)", address)
            page[offset:offset + size] = data
            return
        # resolve every page before writing any byte, so a fault on a
        # later page leaves the earlier ones untouched (a precise trap)
        spans = []
        done = 0
        while done < size:
            cursor = address + done
            offset = cursor % self.page_size
            chunk = min(size - done, self.page_size - offset)
            spans.append((self._page_for(cursor), offset, done, chunk))
            done += chunk
        view = memoryview(data)
        for page, offset, start, chunk in spans:
            page[offset:offset + chunk] = view[start:start + chunk]

    # -- integer access ---------------------------------------------------

    def load_int(self, address: int, size: int, signed: bool = False) -> int:
        """Load a little-endian integer of ``size`` bytes."""
        address &= ADDRESS_MASK
        offset = address % self.page_size
        if size > 0 and offset + size <= self.page_size:
            # fast path mirroring read_bytes, minus one call and copy
            page = self._pages.get(address // self.page_size)
            if page is None:
                raise MemoryFault(
                    f"page fault at 0x{address:012x} (unmapped)", address)
            return int.from_bytes(page[offset:offset + size], "little",
                                  signed=signed)
        raw = self.read_bytes(address, size)
        return int.from_bytes(raw, "little", signed=signed)

    def store_int(self, address: int, value: int, size: int) -> None:
        """Store a little-endian integer, truncating to ``size`` bytes."""
        value &= (1 << (size * 8)) - 1
        address &= ADDRESS_MASK
        offset = address % self.page_size
        if size > 0 and offset + size <= self.page_size:
            # fast path mirroring write_bytes, minus one call
            if self.watcher is not None:
                self.watcher(address, size)
            page = self._pages.get(address // self.page_size)
            if page is None:
                raise MemoryFault(
                    f"page fault at 0x{address:012x} (unmapped)", address)
            page[offset:offset + size] = value.to_bytes(size, "little")
            return
        self.write_bytes(address, value.to_bytes(size, "little"))

    def load_u64(self, address: int) -> int:
        return self.load_int(address, 8)

    def store_u64(self, address: int, value: int) -> None:
        self.store_int(address, value, 8)

    # -- utilities --------------------------------------------------------

    def fill(self, address: int, value: int, size: int) -> None:
        """memset: set ``size`` bytes to ``value``."""
        self.write_bytes(address, bytes([value & 0xFF]) * size)

    def copy(self, dst: int, src: int, size: int) -> None:
        """memmove-style copy (reads fully before writing)."""
        self.write_bytes(dst, self.read_bytes(src, size))

    def read_cstring(self, address: int, limit: int = 1 << 20) -> bytes:
        """Read a NUL-terminated byte string (without the NUL)."""
        out = bytearray()
        cursor = address & ADDRESS_MASK
        for _ in range(limit):
            byte = self.read_bytes(cursor, 1)[0]
            if byte == 0:
                return bytes(out)
            out.append(byte)
            cursor += 1
        raise MemoryFault("unterminated string", address)

    def mapped_ranges(self) -> Iterator[Tuple[int, int]]:
        """Yield (base, size) for maximal runs of mapped pages."""
        pages = sorted(self._pages)
        run_start = None
        prev = None
        for page_no in pages:
            if run_start is None:
                run_start = page_no
            elif page_no != prev + 1:
                yield (run_start * self.page_size,
                       (prev - run_start + 1) * self.page_size)
                run_start = page_no
            prev = page_no
        if run_start is not None:
            yield (run_start * self.page_size,
                   (prev - run_start + 1) * self.page_size)

    # -- internal ---------------------------------------------------------

    def _page_for(self, address: int) -> bytearray:
        page = self._pages.get(address // self.page_size)
        if page is None:
            raise MemoryFault(
                f"page fault at 0x{address:012x} (unmapped)", address)
        return page
