"""Tests for the promote operation and subobject narrowing."""

import pytest

from repro.cache import HierarchyConfig
from repro.ifp import (
    Bounds, DEFAULT_CONFIG, IFPConfig, IFPUnit, LayoutEntry, LayoutTable,
    Poison,
)
from repro.ifp.promote import PromoteOutcome
from repro.ifp.tag import pack_pointer, PointerTag, Scheme, unpack_tag, with_poison
from repro.mem import Memory


def make_unit(config=DEFAULT_CONFIG):
    memory = Memory()
    memory.map_range(0x10000, 0x20000)
    return IFPUnit(memory, HierarchyConfig().build(), config)


def install_figure9(unit, lt_addr=0x10000):
    table = LayoutTable("S", [
        LayoutEntry(0, 0, 24, 24),
        LayoutEntry(0, 0, 4, 4),
        LayoutEntry(0, 4, 20, 8),
        LayoutEntry(2, 0, 4, 4),
        LayoutEntry(2, 4, 8, 4),
        LayoutEntry(0, 20, 24, 4),
    ])
    unit.port.memory.write_bytes(lt_addr, table.serialize())
    return lt_addr


def register_object(unit, obj=0x11000, size=24, lt_addr=0):
    unit.local_offset.write_metadata(unit.port.memory, obj, size, lt_addr,
                                     unit.mac)
    return obj


class TestPromoteGates:
    def test_null_bypass(self):
        unit = make_unit()
        result = unit.promote(0)
        assert result.outcome is PromoteOutcome.BYPASS_NULL
        assert result.bounds is None
        assert unit.stats.promotes_null == 1

    def test_legacy_bypass(self):
        unit = make_unit()
        result = unit.promote(0x12345)
        assert result.outcome is PromoteOutcome.BYPASS_LEGACY
        assert result.bounds is None

    def test_poisoned_bypass_skips_metadata(self):
        unit = make_unit()
        obj = register_object(unit)
        pointer = unit.local_offset.make_pointer(obj, obj, 24)
        poisoned = with_poison(pointer, Poison.INVALID)
        result = unit.promote(poisoned)
        assert result.outcome is PromoteOutcome.BYPASS_POISONED
        assert unit.port.loads == 0  # no metadata access with bad pointer

    def test_recoverable_pointer_still_promotes(self):
        unit = make_unit()
        obj = register_object(unit)
        pointer = unit.local_offset.make_pointer(obj, obj, 24)
        recoverable = with_poison(pointer, Poison.RECOVERABLE)
        result = unit.promote(recoverable)
        assert result.outcome is PromoteOutcome.VALID
        # In-bounds address: the fused check clears the poison.
        assert unpack_tag(result.pointer).poison is Poison.VALID


class TestFusedCheck:
    def test_in_bounds_valid(self):
        unit = make_unit()
        obj = register_object(unit)
        result = unit.promote(unit.local_offset.make_pointer(obj + 10,
                                                             obj, 24))
        assert unpack_tag(result.pointer).poison is Poison.VALID

    def test_one_past_recoverable(self):
        unit = make_unit()
        obj = register_object(unit)
        result = unit.promote(unit.local_offset.make_pointer(obj + 24,
                                                             obj, 24))
        assert unpack_tag(result.pointer).poison is Poison.RECOVERABLE
        assert result.bounds == Bounds(obj, obj + 24)


class TestNarrowing:
    def test_flat_member(self):
        unit = make_unit()
        lt = install_figure9(unit)
        obj = register_object(unit, lt_addr=lt)
        # S.v5 is entry 5: [20, 24)
        pointer = unit.local_offset.make_pointer(obj + 20, obj, 24, 5)
        result = unit.promote(pointer)
        assert result.narrowed
        assert result.bounds == Bounds(obj + 20, obj + 24)

    def test_array_of_struct_recursion(self):
        unit = make_unit()
        lt = install_figure9(unit)
        obj = register_object(unit, lt_addr=lt)
        # S.array[1].v4 is entry 4 at address obj + 4 + 8 + 4 = obj+16.
        pointer = unit.local_offset.make_pointer(obj + 16, obj, 24, 4)
        result = unit.promote(pointer)
        assert result.narrowed
        assert result.bounds == Bounds(obj + 16, obj + 20)

    def test_array_elements_share_entry(self):
        unit = make_unit()
        lt = install_figure9(unit)
        obj = register_object(unit, lt_addr=lt)
        # Entry 2 is S.array: bounds cover the whole array regardless of
        # which element the address is in.
        for offset in (4, 12):
            pointer = unit.local_offset.make_pointer(obj + offset, obj,
                                                     24, 2)
            result = unit.promote(pointer)
            assert result.bounds == Bounds(obj + 4, obj + 20)

    def test_index_zero_skips_narrowing(self):
        unit = make_unit()
        lt = install_figure9(unit)
        obj = register_object(unit, lt_addr=lt)
        result = unit.promote(unit.local_offset.make_pointer(obj, obj, 24))
        assert not result.narrow_attempted
        assert result.bounds == Bounds(obj, obj + 24)

    def test_no_layout_table_coarsens(self):
        unit = make_unit()
        obj = register_object(unit, lt_addr=0)
        pointer = unit.local_offset.make_pointer(obj + 20, obj, 24, 5)
        result = unit.promote(pointer)
        assert result.narrow_attempted and not result.narrowed
        assert result.bounds == Bounds(obj, obj + 24)  # object bounds
        assert unit.stats.narrow_no_layout_table == 1

    def test_out_of_range_index_coarsens(self):
        unit = make_unit()
        lt = install_figure9(unit)
        obj = register_object(unit, lt_addr=lt)
        pointer = unit.local_offset.make_pointer(obj, obj, 24, 40)
        result = unit.promote(pointer)
        assert not result.narrowed
        assert result.bounds == Bounds(obj, obj + 24)
        assert unit.stats.narrow_walk_failures == 1

    def test_narrowing_disabled_by_config(self):
        config = IFPConfig(narrowing_enabled=False)
        unit = make_unit(config)
        lt = install_figure9(unit)
        obj = register_object(unit, lt_addr=lt)
        pointer = unit.local_offset.make_pointer(obj + 20, obj, 24, 5)
        result = unit.promote(pointer)
        assert not result.narrowed
        assert result.bounds == Bounds(obj, obj + 24)

    def test_address_outside_parent_fails_softly(self):
        unit = make_unit()
        lt = install_figure9(unit)
        obj = register_object(unit, lt_addr=lt)
        # Entry 3 lives under the array [4, 20); address beyond it cannot
        # identify an element -> coarsen to the array bounds.
        pointer = unit.local_offset.make_pointer(obj + 22, obj, 24, 3)
        result = unit.promote(pointer)
        assert not result.narrowed
        assert result.bounds == Bounds(obj + 4, obj + 20)

    def test_malformed_parent_link_fails_softly(self):
        unit = make_unit()
        lt = 0x10000
        # Hand-craft a table whose entry 1 claims itself as parent.
        data = bytearray(LayoutTable("B", [
            LayoutEntry(0, 0, 16, 16), LayoutEntry(0, 0, 8, 8),
        ]).serialize())
        data[16:18] = (1).to_bytes(2, "little")  # entry1.parent = 1
        unit.port.memory.write_bytes(lt, bytes(data))
        obj = register_object(unit, size=16, lt_addr=lt)
        pointer = unit.local_offset.make_pointer(obj, obj, 16, 1)
        result = unit.promote(pointer)
        assert not result.narrowed
        assert result.bounds == Bounds(obj, obj + 16)


class TestStatsAccounting:
    def test_counts(self):
        unit = make_unit()
        obj = register_object(unit)
        unit.promote(0)
        unit.promote(0x500)
        unit.promote(unit.local_offset.make_pointer(obj, obj, 24))
        stats = unit.stats
        assert stats.promotes_total == 3
        assert stats.promotes_null == 1
        assert stats.promotes_legacy == 1
        assert stats.promotes_valid == 1
        assert stats.promotes_bypassed == 2
        assert stats.lookups_local_offset == 1

    def test_promote_cycles_accumulate(self):
        unit = make_unit()
        obj = register_object(unit)
        result = unit.promote(unit.local_offset.make_pointer(obj, obj, 24))
        assert result.cycles >= unit.config.promote_base_cycles
        assert unit.stats.promote_cycles >= result.cycles
