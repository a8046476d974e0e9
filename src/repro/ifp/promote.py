"""The ``promote`` operation (paper Section 3.2, Figure 5).

``promote`` takes a 64-bit (possibly tagged) pointer and produces an IFPR:
the pointer with refreshed poison bits, plus a bounds register value.

Pipeline of the operation:

1. *Poison gate* — an irrecoverably-poisoned pointer bypasses retrieval
   entirely (looking up metadata with a garbage pointer value could fault
   or yield false positives even if the pointer is never dereferenced).
2. *Legacy gate* — the ``00`` scheme selector means no metadata: bounds
   are cleared and the pointer is exempt from checking.  NULL pointers are
   a (counted) special case of this gate.
3. *Scheme dispatch* — the selector picks one of the three object-metadata
   schemes, which fetches and validates the object metadata (including the
   MAC where applicable).  Invalid metadata poisons the output IFPR.
4. *Narrowing* — when the metadata carries a layout table and the tag's
   subobject index is non-zero, the layout-table walk refines the object
   bounds to subobject bounds.
5. *Fused size check* — the output poison bits reflect whether the address
   currently lies within the retrieved bounds (out-of-bounds-but-
   recoverable for the one-past-the-end state and any other OOB value).
"""

from __future__ import annotations

import enum
from typing import Optional

from repro.ifp.bounds import Bounds


class PromoteOutcome(enum.Enum):
    """Classification of a promote, matching Table 4's accounting."""

    BYPASS_POISONED = "bypass_poisoned"   #: input already irrecoverable
    BYPASS_NULL = "bypass_null"           #: legacy NULL pointer
    BYPASS_LEGACY = "bypass_legacy"       #: non-NULL legacy pointer
    VALID = "valid"                       #: metadata lookup performed
    METADATA_INVALID = "metadata_invalid"  #: lookup found invalid metadata

    @property
    def bypassed(self) -> bool:
        return self in (PromoteOutcome.BYPASS_POISONED,
                        PromoteOutcome.BYPASS_NULL,
                        PromoteOutcome.BYPASS_LEGACY)


class PromoteResult:
    """The IFPR produced by a promote, plus accounting.

    Both engines build one on every promote, a cache hit included, so it
    is a ``__slots__`` class with a plain constructor rather than a
    dataclass; its fields, repr and equality are a dataclass's.
    """

    __slots__ = ("pointer", "bounds", "outcome", "narrowed",
                 "narrow_attempted", "cycles")

    def __init__(self, pointer: int, bounds: Optional[Bounds],
                 outcome: PromoteOutcome, narrowed: bool = False,
                 narrow_attempted: bool = False, cycles: int = 0):
        self.pointer = pointer                    #: output pointer (poison refreshed)
        self.bounds = bounds                      #: None = bounds cleared (unchecked)
        self.outcome = outcome
        self.narrowed = narrowed                  #: subobject narrowing succeeded
        self.narrow_attempted = narrow_attempted  #: tag had a non-zero subobject index
        self.cycles = cycles                      #: total cycle cost of the operation

    def _fields(self) -> tuple:
        return (self.pointer, self.bounds, self.outcome, self.narrowed,
                self.narrow_attempted, self.cycles)

    def __eq__(self, other):
        if other.__class__ is PromoteResult:
            return self._fields() == other._fields()
        return NotImplemented

    __hash__ = None    # mutable, as the dataclass was

    def __repr__(self) -> str:
        return ("PromoteResult(" + ", ".join(
            f"{name}={value!r}"
            for name, value in zip(self.__slots__, self._fields())) + ")")

    @property
    def checked(self) -> bool:
        """Whether dereferences through this IFPR are bounds-checked."""
        return self.bounds is not None
