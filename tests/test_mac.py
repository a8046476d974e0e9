"""Tests for the 48-bit metadata MAC."""

from hypothesis import assume, given, settings, strategies as st

from repro.ifp import IFPUnit, LayoutEntry, LayoutTable, PromoteOutcome
from repro.ifp.mac import MAC_BITS, MAC_MASK, compute_mac, metadata_mac
from repro.ifp.schemes.local_offset import METADATA_BYTES
from repro.mem import Memory


class TestMac:
    def test_width(self):
        assert MAC_BITS == 48
        for i in range(50):
            assert compute_mac(i, (i, i * 3)) <= MAC_MASK

    def test_deterministic(self):
        assert compute_mac(1, (2, 3)) == compute_mac(1, (2, 3))

    def test_key_sensitivity(self):
        assert compute_mac(1, (2, 3)) != compute_mac(2, (2, 3))

    def test_word_order_sensitivity(self):
        assert compute_mac(1, (2, 3)) != compute_mac(1, (3, 2))

    def test_length_sensitivity(self):
        assert compute_mac(1, (0,)) != compute_mac(1, (0, 0))

    def test_metadata_mac_binds_all_fields(self):
        base = metadata_mac(7, 0x1000, 64, 0x2000)
        assert metadata_mac(7, 0x1008, 64, 0x2000) != base
        assert metadata_mac(7, 0x1000, 65, 0x2000) != base
        assert metadata_mac(7, 0x1000, 64, 0x2008) != base

    @given(key=st.integers(0, (1 << 64) - 1),
           words=st.lists(st.integers(0, (1 << 64) - 1), min_size=1,
                          max_size=4),
           bit=st.integers(0, 63))
    @settings(max_examples=200, deadline=None)
    def test_single_bit_flip_changes_mac(self, key, words, bit):
        """Any single-bit change to any word must change the MAC —
        the property that makes metadata tampering detectable."""
        original = compute_mac(key, words)
        for index in range(len(words)):
            flipped = list(words)
            flipped[index] ^= 1 << bit
            assert compute_mac(key, flipped) != original

    @given(key=st.integers(0, (1 << 64) - 1),
           words=st.lists(st.integers(0, (1 << 64) - 1), min_size=1,
                          max_size=4))
    @settings(max_examples=100, deadline=None)
    def test_output_range(self, key, words):
        assert 0 <= compute_mac(key, words) <= MAC_MASK


_HEAP = 0x40000
_TABLE = 0x50000
_OBJECT_SIZE = 48


def _record_fixture():
    """A local-offset object with its appended 128-bit metadata record,
    plus an IFP unit ready to promote a pointer into it."""
    memory = Memory()
    memory.map_range(_HEAP, 4096)
    unit = IFPUnit(memory)
    scheme = unit.local_offset
    md_addr = scheme.write_metadata(memory, _HEAP, _OBJECT_SIZE,
                                    layout_ptr=0, mac=unit.mac)
    tagged = scheme.make_pointer(_HEAP, _HEAP, _OBJECT_SIZE)
    return memory, unit, md_addr, tagged


class TestMetadataRecordTampering:
    """End-to-end MAC coverage of the 128-bit local-offset record
    (layout pointer 8B | size 2B | MAC 6B) through the promote engine."""

    def test_clean_record_promotes(self):
        _memory, unit, _md_addr, tagged = _record_fixture()
        result = unit.promote(tagged)
        assert result.outcome is PromoteOutcome.VALID
        assert (result.bounds.lower, result.bounds.upper) == (
            _HEAP, _HEAP + _OBJECT_SIZE)

    def test_record_mac_seeds_the_memo(self):
        """The MAC the allocator writes is memoized without counting as
        a lookup, so the object's first promote hits the memo."""
        memory, unit, md_addr, tagged = _record_fixture()
        assert memory.load_int(md_addr + 10, 6) == metadata_mac(
            unit.mac_key, md_addr, _OBJECT_SIZE, 0)
        assert unit.stats.mac_cache_hits == unit.stats.mac_cache_misses == 0
        assert unit.promote(tagged).outcome is PromoteOutcome.VALID
        assert (unit.stats.mac_cache_hits,
                unit.stats.mac_cache_misses) == (1, 0)

    def test_every_record_bit_flip_detected(self):
        """Flip each of the record's 128 bits in turn: every flip must
        invalidate the promote.  The 48-bit MAC model predicts a miss
        probability of 2^-48 per single-bit tamper (a PRF output
        collision); at that rate the expected misses over 128 trials are
        ~4e-13, so the observed catch rate must be exactly 128/128."""
        memory, unit, md_addr, tagged = _record_fixture()
        mac_caught = 0
        for bit in range(METADATA_BYTES * 8):
            byte_addr = md_addr + bit // 8
            original = memory.load_int(byte_addr, 1)
            memory.store_int(byte_addr, original ^ (1 << (bit % 8)), 1)
            failures_before = unit.stats.mac_failures
            result = unit.promote(tagged)
            assert result.outcome is PromoteOutcome.METADATA_INVALID, (
                f"bit {bit} of the record tampered undetected")
            assert result.bounds is None
            mac_caught += unit.stats.mac_failures - failures_before
            memory.store_int(byte_addr, original, 1)
        assert unit.stats.promotes_metadata_invalid == METADATA_BYTES * 8
        # The layout-pointer (64) and MAC (48) fields never trip the
        # size plausibility gate, so at least those 112 flips must be
        # caught by MAC verification itself.
        assert mac_caught >= 64 + MAC_BITS
        # A tampered record must never poison the unit for clean ones.
        assert unit.promote(tagged).outcome is PromoteOutcome.VALID

    @given(record=st.binary(min_size=METADATA_BYTES,
                            max_size=METADATA_BYTES))
    @settings(max_examples=100, deadline=None)
    def test_random_record_replacement_detected(self, record):
        """Wholesale record replacement (a heap spray over metadata,
        paper Section 3.3.2): forging a record that passes both the
        size gate and the 48-bit MAC succeeds with probability ~2^-48
        per attempt, so every random replacement must be rejected."""
        memory, unit, md_addr, tagged = _record_fixture()
        original = bytes(memory.load_int(md_addr + i, 1)
                         for i in range(METADATA_BYTES))
        assume(record != original)
        for i, value in enumerate(record):
            memory.store_int(md_addr + i, value, 1)
        result = unit.promote(tagged)
        assert result.outcome is PromoteOutcome.METADATA_INVALID


def _figure9_fixture():
    """The Figure 9 struct with its layout table serialized into guest
    memory, and a pointer narrowed to ``S.array[0].v3`` (entry 3)."""
    memory = Memory()
    memory.map_range(_HEAP, 4096)
    memory.map_range(_TABLE, 4096)
    unit = IFPUnit(memory)
    table = LayoutTable("S", [
        LayoutEntry(0, 0, 24, 24),
        LayoutEntry(0, 0, 4, 4),
        LayoutEntry(0, 4, 20, 8),
        LayoutEntry(2, 0, 4, 4),
        LayoutEntry(2, 4, 8, 4),
        LayoutEntry(0, 20, 24, 4),
    ])
    data = table.serialize()
    for i, value in enumerate(data):
        memory.store_int(_TABLE + i, value, 1)
    scheme = unit.local_offset
    scheme.write_metadata(memory, _HEAP, table.object_size,
                          layout_ptr=_TABLE, mac=unit.mac)
    tagged = scheme.make_pointer(_HEAP + 4, _HEAP, table.object_size,
                                 subobject_index=3)
    return memory, unit, tagged, len(data), table.object_size


class TestNarrowingUnderCorruptedLayout:
    """The layout table carries no MAC (it is shared, read-only data);
    the walker must instead fail *soft* — corrupted entries may lose
    subobject precision but can never widen bounds past the object or
    hang the walk."""

    def test_clean_walk_narrows_exactly(self):
        _memory, unit, tagged, _table_len, _size = _figure9_fixture()
        result = unit.promote(tagged)
        assert result.narrowed
        assert (result.bounds.lower, result.bounds.upper) == (
            _HEAP + 4, _HEAP + 8)
        assert unit.stats.narrow_success == 1

    def test_every_table_bit_flip_fails_soft(self):
        memory, unit, tagged, table_len, object_size = _figure9_fixture()
        for bit in range(table_len * 8):
            byte_addr = _TABLE + bit // 8
            original = memory.load_int(byte_addr, 1)
            memory.store_int(byte_addr, original ^ (1 << (bit % 8)), 1)
            result = unit.promote(tagged)
            # Metadata itself is intact, so the promote stays valid and
            # the walk terminates; whatever bounds survive must sit
            # inside the object.
            assert result.outcome is PromoteOutcome.VALID, f"bit {bit}"
            assert result.bounds.lower >= _HEAP
            assert result.bounds.upper <= _HEAP + object_size
            memory.store_int(byte_addr, original, 1)
        # Some flips (malformed parents, inverted bounds) must have
        # been rejected by the walker's validity checks.
        assert unit.stats.narrow_walk_failures > 0
        assert unit.stats.narrow_success > 0
        assert unit.promote(tagged).narrowed
