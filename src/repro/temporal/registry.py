"""The allocation registry: locks for the lock-and-key scheme.

One entry per tracked allocation base, in one map keyed by the base.
Each entry is a small mutable record ``[key, live, size, generation]``:

* ``generation`` counts incarnations of the base address and only ever
  grows; ``key`` is its projection into the k-bit tag field
  (``((generation - 1) % (2^k - 1)) + 1`` — never 0, which is the
  "untracked" sentinel);
* ``live`` is the lock state: a free marks the lock dead *and* bumps
  the generation, so a dangling key mismatches whether or not the base
  is ever reallocated.

``version`` is bumped on every architectural change (mint, release,
corruption) and participates in the IFP unit's promote-result cache
key, so a cached promote can never replay a bounds register whose
temporal facts have changed.
"""

from __future__ import annotations

from typing import Optional

from repro.errors import TemporalViolation

#: entry field indices (entries are lists for cheap mutation)
KEY = 0
LIVE = 1
SIZE = 2
GENERATION = 3


def _key_of(generation: int, key_bits: int) -> int:
    """Project a monotonic generation into the k-bit key space (1..2^k-1)."""
    return ((generation - 1) % ((1 << key_bits) - 1)) + 1


class TemporalRegistry:
    """Base-address -> lock table."""

    def __init__(self, key_bits: int = 2):
        if key_bits < 1:
            raise ValueError("temporal registry needs at least 1 key bit")
        self.key_bits = key_bits
        #: base -> entry, in first-mint order (entries are never removed)
        self._locks: dict = {}
        #: bumped on mint/release/corrupt; part of the promote-cache key
        self.version = 0
        # lifetime counters (forensics / registry stats)
        self.mints = 0
        self.releases = 0
        self.live_count = 0
        #: fault injector (repro.resil.faults) armed with
        #: ``temporal_lock_corrupt``; None keeps mint on its plain path
        self.faults = None

    # -- lock lifecycle ------------------------------------------------------

    def mint(self, base: int, size: int) -> int:
        """Mint (or re-mint) the lock for ``base``; returns the new key.

        A fresh base starts at generation 1; a reused base continues its
        generation sequence (the release already bumped it), so the new
        key differs from every dangling key of the previous incarnation
        modulo the k-bit wrap.
        """
        entry = self._locks.get(base)
        if entry is None:
            entry = [_key_of(1, self.key_bits), True, size, 1]
            self._locks[base] = entry
        else:
            entry[KEY] = _key_of(entry[GENERATION], self.key_bits)
            entry[LIVE] = True
            entry[SIZE] = size
        self.mints += 1
        self.live_count += 1
        self.version += 1
        key = entry[KEY]
        if self.faults is not None:
            self.faults.on_mint(self)
        return key

    def release(self, base: int) -> Optional[list]:
        """Destroy the lock for ``base`` (free/realloc path).

        Bumps the generation and marks the lock dead; returns the entry
        (or None for an untracked base, which is left to the allocators'
        structural :class:`repro.errors.InvalidFree` checks).
        """
        entry = self._locks.get(base)
        if entry is None:
            return None
        if entry[LIVE]:
            self.live_count -= 1
        entry[LIVE] = False
        entry[GENERATION] += 1
        self.releases += 1
        self.version += 1
        return entry

    def probe(self, base: int) -> Optional[list]:
        """Current lock entry for ``base`` (None when untracked)."""
        return self._locks.get(base)

    def corrupt(self, base: int) -> bool:
        """Flip the lock's key to a different value in the key space.

        The resil fault hook: simulates registry corruption (a flipped
        generation).  The entry stays live, so every subsequent check of
        a legitimately-minted pointer mismatches — the gate is that this
        surfaces as a typed :class:`TemporalViolation`, never as silent
        divergence.
        """
        entry = self._locks.get(base)
        if entry is None:
            return False
        entry[KEY] = _key_of(entry[GENERATION] + 1, self.key_bits)
        self.version += 1
        return True

    def any_live_base(self) -> Optional[int]:
        """A currently-live base, if any (fault-injection target): the
        first minted of those with the lowest ``(base >> 4) & 15``."""
        return min((base for base, entry in self._locks.items()
                    if entry[LIVE]),
                   key=lambda base: (base >> 4) & 15, default=None)

    def stats(self) -> dict:
        return {
            "key_bits": self.key_bits,
            "mints": self.mints,
            "releases": self.releases,
            "live": self.live_count,
            "tracked_bases": len(self._locks),
            "version": self.version,
        }


# ---------------------------------------------------------------------------
# Shared violation construction — both execution engines and the
# allocator free paths build their traps through these helpers, which is
# what keeps messages/fields byte-identical across the reference
# interpreter and the fastpath compiler.
# ---------------------------------------------------------------------------

_DEREF_KINDS = {
    "promote": ("stale_key", "freed_lock"),
    "load": ("stale_key", "freed_lock"),
    "store": ("stale_key", "freed_lock"),
}


def temporal_violation(origin: str, pointer: int, base: int, key: int,
                       entry: Optional[list],
                       pc: object = None) -> TemporalViolation:
    """Build the trap for a failed lock==key comparison at a deref site."""
    if entry is None or not entry[LIVE]:
        kind = "freed_lock"
        lock = 0
        detail = "lock is dead (allocation freed, not reallocated)"
    else:
        kind = "stale_key"
        lock = entry[KEY]
        detail = (f"lock holds key {lock} (allocation freed and base "
                  f"reused)")
    message = (f"temporal violation at {origin}: pointer key {key} vs "
               f"lock for base 0x{base:x} — {detail}")
    return TemporalViolation(message, pointer=pointer, address=base,
                             key=key, lock=lock, kind=kind, origin=origin,
                             pc=pc)


def check_free(registry: TemporalRegistry, pointer: int, base: int,
               key: int, allocator: str) -> Optional[list]:
    """Free-path lock check: raises on double free / stale-pointer free.

    Runs *before* the allocator's structural checks, so a tracked
    allocation's double free surfaces as the typed temporal trap (the
    structural :class:`InvalidFree` remains the verdict for untracked
    pointers).  Returns the live entry on success, None when the base is
    untracked.
    """
    entry = registry.probe(base)
    if entry is None or key == 0:
        return None
    if not entry[LIVE]:
        raise TemporalViolation(
            f"temporal violation at free: double free of base 0x{base:x} "
            f"via {allocator} — lock is already dead",
            pointer=pointer, address=base, key=key, lock=0,
            kind="double_free", origin="free")
    if entry[KEY] != key:
        raise TemporalViolation(
            f"temporal violation at free: stale pointer key {key} vs "
            f"live lock key {entry[KEY]} for base 0x{base:x} via "
            f"{allocator} — freeing a previous incarnation's pointer",
            pointer=pointer, address=base, key=key, lock=entry[KEY],
            kind="stale_free", origin="free")
    return entry
