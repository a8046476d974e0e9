"""Pointer bounds and the In-Fat Pointer Register (IFPR) model.

An IFPR is the pairing of a general-purpose register holding a 64-bit
pointer with a 96-bit bounds register holding two 48-bit addresses
(lower inclusive, upper exclusive).  Bounds registers can also be
*cleared* — the state legacy pointers get — in which case dereferences
through the pointer are not bounds-checked.

In the simulator a cleared bounds register is represented by ``None`` in
the register file; a loaded one by a :class:`Bounds` instance.  Both
engines build one on every ``ifpbnd``, so it is a ``__slots__`` value
class rather than a dataclass: immutable, with a constructor of four
slot stores and no ``__post_init__``.
"""

from __future__ import annotations

from dataclasses import FrozenInstanceError

from repro.mem.layout import ADDRESS_MASK

#: Size of a bounds register when spilled with ``stbnd`` (2 x 48 bits,
#: stored as two 8-byte words for alignment, matching ldbnd/stbnd width).
BOUNDS_SPILL_BYTES = 16


class Bounds:
    """A half-open address interval ``[lower, upper)``.

    When the temporal lock-and-key policy is armed (``repro.temporal``),
    a promoted/minted bounds register additionally carries the pointer's
    allocation base (``tbase``) and generation key (``tkey``) so the
    engines can compare lock == key at every implicit deref check.  Both
    default to 0 ("no temporal fact") and are excluded from equality and
    repr: spatially, two bounds registers holding the same interval are
    the same architectural value, and the spill format (``to_words``)
    stays two 64-bit words — a spilled/reloaded bounds register drops
    its temporal fact and is refreshed by the next promote (DESIGN §11).
    """

    __slots__ = ("lower", "upper", "tbase", "tkey")

    def __init__(self, lower: int, upper: int, tbase: int = 0,
                 tkey: int = 0):
        # the slot descriptors' own stores: ``__setattr__`` raises
        _set_lower(self, lower & ADDRESS_MASK)
        _set_upper(self, upper & ADDRESS_MASK)
        _set_tbase(self, tbase)
        _set_tkey(self, tkey)

    def __setattr__(self, name, value):
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise FrozenInstanceError(f"cannot delete field {name!r}")

    def __reduce__(self):
        # pickle and copy rebuild through __init__, not through the
        # raising __setattr__
        return (Bounds, (self.lower, self.upper, self.tbase, self.tkey))

    def __eq__(self, other):
        if other.__class__ is Bounds:
            return self.lower == other.lower and self.upper == other.upper
        return NotImplemented

    def __hash__(self):
        return hash((self.lower, self.upper))

    def __repr__(self) -> str:
        return f"Bounds(lower={self.lower!r}, upper={self.upper!r})"

    @property
    def size(self) -> int:
        return max(0, self.upper - self.lower)

    def contains(self, address: int, access_size: int = 1) -> bool:
        """Access-size check: ``lower <= address`` and
        ``address + access_size <= upper`` (paper Section 4.1)."""
        address &= ADDRESS_MASK
        return self.lower <= address and address + access_size <= self.upper

    def contains_or_one_past(self, address: int) -> bool:
        """True for any address in bounds or exactly one past the end —
        the C-legal recoverable state."""
        address &= ADDRESS_MASK
        return self.lower <= address <= self.upper

    def narrowed(self, lower: int, upper: int) -> "Bounds":
        """Intersect with ``[lower, upper)`` (used by ``ifpbnd``)."""
        return Bounds(max(self.lower, lower & ADDRESS_MASK),
                      min(self.upper, upper & ADDRESS_MASK),
                      self.tbase, self.tkey)

    def shifted(self, delta: int) -> "Bounds":
        return Bounds(self.lower + delta, self.upper + delta,
                      self.tbase, self.tkey)

    def with_temporal(self, tbase: int, tkey: int) -> "Bounds":
        """Attach a temporal (allocation base, generation key) fact."""
        return Bounds(self.lower, self.upper, tbase, tkey)

    # -- spill format -------------------------------------------------------

    def to_words(self) -> tuple:
        """Encode for ``stbnd`` as two 64-bit words (lower, upper)."""
        return (self.lower, self.upper)

    @classmethod
    def from_words(cls, lower_word: int, upper_word: int) -> "Bounds":
        """Decode the ``ldbnd`` spill format."""
        return cls(lower_word & ADDRESS_MASK, upper_word & ADDRESS_MASK)

    def __str__(self) -> str:  # pragma: no cover - debugging aid
        return f"[0x{self.lower:x}, 0x{self.upper:x})"


_set_lower = Bounds.lower.__set__
_set_upper = Bounds.upper.__set__
_set_tbase = Bounds.tbase.__set__
_set_tkey = Bounds.tkey.__set__
