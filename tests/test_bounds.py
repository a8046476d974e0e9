"""Tests for Bounds / IFPR semantics."""

import copy
import pickle
from dataclasses import FrozenInstanceError

import pytest
from hypothesis import given, settings, strategies as st

from repro.ifp import Bounds


class TestContains:
    def test_access_size_check(self):
        bounds = Bounds(100, 120)
        assert bounds.contains(100, 1)
        assert bounds.contains(119, 1)
        assert bounds.contains(112, 8)
        assert not bounds.contains(113, 8)   # crosses the upper bound
        assert not bounds.contains(99, 1)
        assert not bounds.contains(120, 1)

    def test_one_past_is_recoverable_state(self):
        bounds = Bounds(100, 120)
        assert bounds.contains_or_one_past(120)
        assert not bounds.contains_or_one_past(121)
        assert not bounds.contains_or_one_past(99)

    def test_size(self):
        assert Bounds(8, 24).size == 16
        assert Bounds(24, 8).size == 0  # degenerate


class TestOperations:
    def test_narrowed_intersects(self):
        bounds = Bounds(0, 100)
        assert bounds.narrowed(10, 50) == Bounds(10, 50)
        assert bounds.narrowed(10, 200) == Bounds(10, 100)

    def test_shifted(self):
        assert Bounds(10, 20).shifted(5) == Bounds(15, 25)

    def test_spill_roundtrip(self):
        bounds = Bounds(0x1234, 0x5678)
        assert Bounds.from_words(*bounds.to_words()) == bounds

    def test_address_masking(self):
        tagged = (0xAB << 48) | 0x1000
        assert Bounds(tagged, tagged + 8).lower == 0x1000

    @given(lower=st.integers(0, 1 << 40), size=st.integers(1, 1 << 20),
           address=st.integers(0, 1 << 41), access=st.integers(1, 64))
    @settings(max_examples=150, deadline=None)
    def test_contains_definition(self, lower, size, address, access):
        bounds = Bounds(lower, lower + size)
        expected = lower <= address and address + access <= lower + size
        assert bounds.contains(address, access) == expected


class TestValueSemantics:
    """``Bounds`` is an immutable value: the interval is its identity,
    the temporal fact rides along."""

    def test_equality_and_hash_ignore_the_temporal_fact(self):
        plain = Bounds(0x1000, 0x1040)
        keyed = Bounds(0x1000, 0x1040, tbase=0x1000, tkey=7)
        assert plain == keyed
        assert hash(plain) == hash(keyed)
        assert len({plain, keyed}) == 1
        assert plain != Bounds(0x1000, 0x1048)
        assert plain != (0x1000, 0x1040)

    def test_assignment_and_deletion_raise(self):
        bounds = Bounds(8, 24, 8, 3)
        for name in ("lower", "upper", "tbase", "tkey", "extra"):
            with pytest.raises(FrozenInstanceError):
                setattr(bounds, name, 0)
            with pytest.raises(FrozenInstanceError):
                delattr(bounds, name)
        assert (bounds.lower, bounds.upper, bounds.tbase, bounds.tkey) \
            == (8, 24, 8, 3)

    @pytest.mark.parametrize("clone", [
        lambda b: pickle.loads(pickle.dumps(b)),
        copy.copy,
        copy.deepcopy,
    ], ids=["pickle", "copy", "deepcopy"])
    def test_round_trips_keep_the_temporal_fact(self, clone):
        bounds = Bounds(0x2000, 0x2100, tbase=0x2000, tkey=42)
        twin = clone(bounds)
        assert type(twin) is Bounds
        assert (twin.lower, twin.upper, twin.tbase, twin.tkey) \
            == (0x2000, 0x2100, 0x2000, 42)
        with pytest.raises(FrozenInstanceError):
            twin.lower = 0

    def test_repr_names_the_interval_only(self):
        assert repr(Bounds(4096, 4104, tbase=4096, tkey=9)) \
            == "Bounds(lower=4096, upper=4104)"
