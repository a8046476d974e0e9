"""Tests for the sparse paged memory (repro.mem)."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import MemoryFault
from repro.mem import Memory, PAGE_SIZE, ADDRESS_MASK
from repro.mem.layout import AddressSpaceLayout, DEFAULT_LAYOUT


class TestMapping:
    def test_unmapped_read_faults(self):
        memory = Memory()
        with pytest.raises(MemoryFault):
            memory.read_bytes(0x1000, 1)

    def test_unmapped_write_faults(self):
        memory = Memory()
        with pytest.raises(MemoryFault):
            memory.write_bytes(0x1000, b"x")

    def test_map_then_access(self):
        memory = Memory()
        memory.map_range(0x1000, 16)
        memory.write_bytes(0x1000, b"hello")
        assert memory.read_bytes(0x1000, 5) == b"hello"

    def test_map_is_idempotent(self):
        memory = Memory()
        memory.map_range(0x1000, PAGE_SIZE)
        before = memory.mapped_bytes
        memory.map_range(0x1000, PAGE_SIZE)
        assert memory.mapped_bytes == before

    def test_map_range_spans_pages(self):
        memory = Memory()
        memory.map_range(PAGE_SIZE - 8, 16)  # straddles two pages
        assert memory.mapped_bytes == 2 * PAGE_SIZE
        memory.write_bytes(PAGE_SIZE - 8, b"0123456789abcdef")
        assert memory.read_bytes(PAGE_SIZE - 8, 16) == b"0123456789abcdef"

    def test_unmap_releases_pages(self):
        memory = Memory()
        memory.map_range(0x2000, 2 * PAGE_SIZE)
        memory.unmap_range(0x2000, 2 * PAGE_SIZE)
        assert not memory.is_mapped(0x2000)
        with pytest.raises(MemoryFault):
            memory.read_bytes(0x2000, 1)

    def test_unmap_keeps_partial_pages(self):
        memory = Memory()
        memory.map_range(0x2000, PAGE_SIZE)
        # Unmapping a sub-page range must not drop the page.
        memory.unmap_range(0x2100, 64)
        assert memory.is_mapped(0x2000)

    def test_peak_tracking(self):
        memory = Memory()
        memory.map_range(0, 4 * PAGE_SIZE)
        memory.unmap_range(0, 4 * PAGE_SIZE)
        assert memory.peak_mapped_bytes == 4 * PAGE_SIZE
        assert memory.mapped_bytes == 0

    def test_is_mapped_multi_page(self):
        memory = Memory()
        memory.map_range(0, PAGE_SIZE)
        assert memory.is_mapped(0, PAGE_SIZE)
        assert not memory.is_mapped(0, PAGE_SIZE + 1)

    def test_bad_page_size_rejected(self):
        with pytest.raises(ValueError):
            Memory(page_size=3000)

    def test_mapped_ranges_merges_runs(self):
        memory = Memory()
        memory.map_range(0, PAGE_SIZE)
        memory.map_range(PAGE_SIZE, PAGE_SIZE)
        memory.map_range(4 * PAGE_SIZE, PAGE_SIZE)
        assert list(memory.mapped_ranges()) == [
            (0, 2 * PAGE_SIZE), (4 * PAGE_SIZE, PAGE_SIZE)]


class TestIntegers:
    def test_u64_roundtrip(self):
        memory = Memory()
        memory.map_range(0, PAGE_SIZE)
        memory.store_u64(8, 0xDEADBEEFCAFEBABE)
        assert memory.load_u64(8) == 0xDEADBEEFCAFEBABE

    def test_signed_load(self):
        memory = Memory()
        memory.map_range(0, PAGE_SIZE)
        memory.store_int(0, -5, 4)
        assert memory.load_int(0, 4, signed=True) == -5
        assert memory.load_int(0, 4, signed=False) == (1 << 32) - 5

    def test_store_truncates(self):
        memory = Memory()
        memory.map_range(0, PAGE_SIZE)
        memory.store_int(0, 0x1FF, 1)
        assert memory.load_int(0, 1) == 0xFF

    def test_little_endian(self):
        memory = Memory()
        memory.map_range(0, PAGE_SIZE)
        memory.store_int(0, 0x0102030405060708, 8)
        assert memory.read_bytes(0, 8) == bytes(
            [8, 7, 6, 5, 4, 3, 2, 1])

    @given(value=st.integers(0, (1 << 64) - 1),
           size=st.sampled_from([1, 2, 4, 8]),
           offset=st.integers(0, 256))
    @settings(max_examples=60, deadline=None)
    def test_roundtrip_property(self, value, size, offset):
        memory = Memory()
        memory.map_range(0, PAGE_SIZE)
        memory.store_int(offset, value, size)
        assert memory.load_int(offset, size) == value & ((1 << (8 * size)) - 1)


class TestStoreInt:
    """``store_int``'s single-page fast path against ``write_bytes``."""

    @staticmethod
    def _watched(calls):
        memory = Memory()
        memory.watcher = lambda address, size: calls.append((address, size))
        return memory

    def test_page_crossing_store(self):
        calls = []
        memory = self._watched(calls)
        memory.map_range(0, 2 * PAGE_SIZE)
        memory.store_int(PAGE_SIZE - 3, 0x0102030405060708, 8)
        assert memory.read_bytes(PAGE_SIZE - 3, 8) == bytes(
            [8, 7, 6, 5, 4, 3, 2, 1])
        assert calls == [(PAGE_SIZE - 3, 8)]

    def test_unmapped_store_faults_after_watcher(self):
        calls = []
        memory = self._watched(calls)
        with pytest.raises(MemoryFault) as fault:
            memory.store_int(0x3008, 7, 4)
        assert fault.value.address == 0x3008
        assert calls == [(0x3008, 4)]
        memory.map_range(0x3000, PAGE_SIZE)  # the crossing path agrees
        with pytest.raises(MemoryFault):
            memory.store_int(0x3000 + PAGE_SIZE - 2, 7, 4)
        assert calls[1:] == [(0x3000 + PAGE_SIZE - 2, 4)]

    def test_page_crossing_fault_writes_nothing(self):
        memory = Memory()
        memory.map_range(0x3000, PAGE_SIZE)
        with pytest.raises(MemoryFault) as fault:
            memory.store_int(0x3000 + PAGE_SIZE - 2, 0xAABBCCDD, 4)
        assert fault.value.address == 0x3000 + PAGE_SIZE
        assert str(fault.value) == (
            f"page fault at 0x{0x3000 + PAGE_SIZE:012x} (unmapped)")
        assert memory.read_bytes(0x3000, PAGE_SIZE) == bytes(PAGE_SIZE)

    def test_page_crossing_fill_fault_writes_nothing(self):
        memory = Memory()
        memory.map_range(0x3000, PAGE_SIZE)
        with pytest.raises(MemoryFault) as fault:
            memory.fill(0x3000 + PAGE_SIZE - 16, 0xAB, 32)
        assert fault.value.address == 0x3000 + PAGE_SIZE
        assert memory.read_bytes(0x3000, PAGE_SIZE) == bytes(PAGE_SIZE)

    def test_watcher_sees_one_masked_call(self):
        calls = []
        memory = self._watched(calls)
        memory.map_range(0x1000, PAGE_SIZE)
        memory.store_int((0xBEEF << 48) | 0x1010, -1, 2)
        assert calls == [(0x1010, 2)]
        assert memory.read_bytes(0x100F, 4) == b"\x00\xff\xff\x00"


class TestUtilities:
    def test_fill(self):
        memory = Memory()
        memory.map_range(0, PAGE_SIZE)
        memory.fill(16, 0xAB, 8)
        assert memory.read_bytes(16, 8) == b"\xab" * 8

    def test_copy_overlapping(self):
        memory = Memory()
        memory.map_range(0, PAGE_SIZE)
        memory.write_bytes(0, b"abcdef")
        memory.copy(2, 0, 4)  # memmove semantics
        assert memory.read_bytes(0, 6) == b"ababcd"

    def test_cstring(self):
        memory = Memory()
        memory.map_range(0, PAGE_SIZE)
        memory.write_bytes(0, b"hello\x00world")
        assert memory.read_cstring(0) == b"hello"

    def test_cstring_unterminated(self):
        memory = Memory()
        memory.map_range(0, PAGE_SIZE)
        memory.fill(0, ord("x"), 64)
        with pytest.raises(MemoryFault):
            memory.read_cstring(0, limit=32)

    def test_tag_bits_stripped(self):
        """Addresses above 48 bits must wrap into the canonical space."""
        memory = Memory()
        memory.map_range(0x1000, PAGE_SIZE)
        tagged = (0xBEEF << 48) | 0x1000
        memory.store_u64(tagged, 42)
        assert memory.load_u64(0x1000) == 42


class TestLayout:
    def test_segment_names(self):
        layout = DEFAULT_LAYOUT
        assert layout.segment_of(layout.globals_base) == "globals"
        assert layout.segment_of(layout.heap_base) == "heap"
        assert layout.segment_of(layout.stack_top - 8) == "stack"
        assert layout.segment_of(layout.metadata_table_base) \
            == "metadata-table"
        assert layout.segment_of(0) == "unmapped"

    def test_segments_disjoint(self):
        layout = DEFAULT_LAYOUT
        assert layout.globals_limit <= layout.heap_base
        assert layout.heap_limit <= layout.metadata_table_base
        assert layout.metadata_table_limit <= layout.stack_limit
        assert layout.stack_limit < layout.stack_top
        assert layout.stack_top <= 1 << 48
