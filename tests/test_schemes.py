"""Tests for the three object-metadata schemes (register + lookup)."""

import pytest

from repro.cache import HierarchyConfig
from repro.errors import ResourceExhausted
from repro.ifp import Bounds, IFPUnit, LayoutEntry, LayoutTable
from repro.ifp.poison import Poison
from repro.ifp.schemes import SubheapRegion
from repro.ifp.schemes.local_offset import METADATA_BYTES as LO_MD_BYTES
from repro.ifp.schemes.subheap import MAGIC
from repro.ifp.tag import unpack_tag
from repro.mem import Memory


@pytest.fixture
def unit():
    memory = Memory()
    memory.map_range(0x10000, 0x20000)
    return IFPUnit(memory, HierarchyConfig().build())


class TestLocalOffset:
    def test_register_lookup_roundtrip(self, unit):
        obj = 0x11000
        unit.local_offset.write_metadata(unit.port.memory, obj, 100, 0,
                                         unit.mac)
        pointer = unit.local_offset.make_pointer(obj + 40, obj, 100)
        result = unit.promote(pointer)
        assert result.bounds == Bounds(obj, obj + 100)

    def test_size_limit(self, unit):
        assert unit.local_offset.supports_size(1008)
        assert not unit.local_offset.supports_size(1009)
        assert not unit.local_offset.supports_size(0)

    def test_footprint_includes_record(self, unit):
        assert unit.local_offset.footprint(100) == 112 + LO_MD_BYTES

    def test_metadata_at_object_end(self, unit):
        # Metadata after the object keeps the pointer usable by legacy
        # code (it points at the object, not at metadata).
        obj = 0x11000
        md = unit.local_offset.write_metadata(
            unit.port.memory, obj, 100, 0, unit.mac)
        assert md == obj + 112  # align_up(100, 16)

    def test_unaligned_base_rejected(self, unit):
        with pytest.raises(ValueError):
            unit.local_offset.write_metadata(unit.port.memory, 0x11004,
                                             32, 0, unit.mac)

    def test_mac_tamper_detected(self, unit):
        obj = 0x11000
        md = unit.local_offset.write_metadata(
            unit.port.memory, obj, 100, 0, unit.mac)
        unit.port.memory.store_int(md + 8, 101, 2)  # corrupt the size
        pointer = unit.local_offset.make_pointer(obj, obj, 100)
        result = unit.promote(pointer)
        assert result.bounds is None
        assert unit.stats.mac_failures == 1

    def test_cleared_metadata_is_invalid(self, unit):
        obj = 0x11000
        unit.local_offset.write_metadata(unit.port.memory, obj, 100, 0,
                                         unit.mac)
        pointer = unit.local_offset.make_pointer(obj, obj, 100)
        unit.local_offset.clear_metadata(unit.port.memory, obj, 100)
        result = unit.promote(pointer)
        assert result.bounds is None

    def test_reencode_after_arithmetic(self, unit):
        obj = 0x11000
        unit.local_offset.write_metadata(unit.port.memory, obj, 100, 0,
                                         unit.mac)
        pointer = unit.local_offset.make_pointer(obj, obj, 100)
        tag = unpack_tag(pointer)
        moved = unit.local_offset.reencode_after_arithmetic(
            tag, obj, obj + 48)
        assert moved is not None
        # Lookup from the new address must find the same metadata.
        offset = moved.local_granule_offset(unit.config)
        metadata = ((obj + 48) & ~15) + offset * 16
        assert metadata == obj + 112

    def test_reencode_far_out_of_bounds_fails(self, unit):
        obj = 0x11000
        pointer = unit.local_offset.make_pointer(obj, obj, 100)
        tag = unpack_tag(pointer)
        assert unit.local_offset.reencode_after_arithmetic(
            tag, obj, obj + 4096) is None


class TestSubheap:
    def _setup_block(self, unit, slot_size=32, object_size=24,
                     layout_ptr=0):
        region = SubheapRegion(12, 0)
        index = unit.control.allocate_subheap_register(region)
        block = 0x14000
        slot_start = 32
        slot_end = slot_start + 10 * slot_size
        unit.subheap.write_block_metadata(
            unit.port.memory, block, region, slot_start, slot_end,
            slot_size, object_size, layout_ptr, unit.mac)
        return block, index, slot_start

    def test_slot_identification(self, unit):
        block, index, slot_start = self._setup_block(unit)
        for slot in (0, 3, 9):
            base = block + slot_start + slot * 32
            # Pointer into the middle of the object still finds its base.
            pointer = unit.subheap.make_pointer(base + 10, index)
            result = unit.promote(pointer)
            assert result.bounds == Bounds(base, base + 24)

    def test_pointer_outside_slot_array_invalid(self, unit):
        block, index, slot_start = self._setup_block(unit)
        pointer = unit.subheap.make_pointer(block + 8, index)  # in metadata
        result = unit.promote(pointer)
        assert result.bounds is None

    def test_bad_magic_invalid(self, unit):
        block, index, slot_start = self._setup_block(unit)
        unit.port.memory.store_int(block + 30, MAGIC ^ 1, 2)
        pointer = unit.subheap.make_pointer(block + slot_start, index)
        assert unit.promote(pointer).bounds is None

    def test_mac_tamper_detected(self, unit):
        block, index, slot_start = self._setup_block(unit)
        unit.port.memory.store_int(block + 12, 25, 4)  # object size
        pointer = unit.subheap.make_pointer(block + slot_start, index)
        assert unit.promote(pointer).bounds is None
        assert unit.stats.mac_failures == 1

    def test_unconfigured_register_invalid(self, unit):
        pointer = unit.subheap.make_pointer(0x14000, 9)
        assert unit.promote(pointer).bounds is None

    def test_register_exhaustion(self, unit):
        for order in range(16):
            unit.control.allocate_subheap_register(
                SubheapRegion(12, order * 64))
        with pytest.raises(ResourceExhausted):
            unit.control.allocate_subheap_register(SubheapRegion(20, 0))

    def test_register_reuse_for_same_region(self, unit):
        region = SubheapRegion(12, 0)
        first = unit.control.allocate_subheap_register(region)
        second = unit.control.allocate_subheap_register(SubheapRegion(12, 0))
        assert first == second

    def test_geometry_validation(self, unit):
        region = SubheapRegion(12, 0)
        with pytest.raises(ValueError):
            unit.subheap.write_block_metadata(
                unit.port.memory, 0x14000, region, 32, 5000, 32, 24, 0,
                unit.mac)  # slot_end beyond block


class TestGlobalTable:
    def test_register_lookup(self, unit):
        unit.control.global_table_base = 0x18000
        unit.global_table.write_row(unit.port.memory, 0x18000, 7,
                                    0x15000, 4096, 0)
        pointer = unit.global_table.make_pointer(0x15100, 7)
        result = unit.promote(pointer)
        assert result.bounds == Bounds(0x15000, 0x16000)

    def test_empty_row_invalid(self, unit):
        unit.control.global_table_base = 0x18000
        pointer = unit.global_table.make_pointer(0x15000, 3)
        assert unit.promote(pointer).bounds is None

    def test_cleared_row_invalid(self, unit):
        unit.control.global_table_base = 0x18000
        unit.global_table.write_row(unit.port.memory, 0x18000, 7,
                                    0x15000, 4096, 0)
        unit.global_table.clear_row(unit.port.memory, 0x18000, 7)
        pointer = unit.global_table.make_pointer(0x15000, 7)
        assert unit.promote(pointer).bounds is None

    def test_unconfigured_table_invalid(self, unit):
        pointer = unit.global_table.make_pointer(0x15000, 0)
        assert unit.promote(pointer).bounds is None

    def test_index_range_checked(self, unit):
        with pytest.raises(ValueError):
            unit.global_table.write_row(unit.port.memory, 0x18000, 4096,
                                        0x15000, 16, 0)
        with pytest.raises(ValueError):
            unit.global_table.make_pointer(0x15000, 4096)

    def test_base_zero_is_reserved(self, unit):
        with pytest.raises(ValueError):
            unit.global_table.write_row(unit.port.memory, 0x18000, 0,
                                        0, 16, 0)
