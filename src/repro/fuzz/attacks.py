"""Attack injection: mutate one access site, predict per-config traps.

An :class:`Attack` replaces the in-bounds index of one
:class:`~repro.fuzz.generator.AccessSite` with a violating one.  Four
kinds are injected, chosen by what the site's shape allows:

===========  ==========================================================
kind         meaning
===========  ==========================================================
over         one element past the *whole object* (classic overflow /
             over-read; CWE-121/122/126)
under        one element before the object (underwrite / under-read;
             CWE-124/127)
intra        past the accessed member but inside the object — the
             paper's Listing 1 intra-object overflow
intra_under  before the accessed member but inside the object
===========  ==========================================================

``expectation`` encodes the paper's detection semantics per
configuration:

* ``baseline`` never traps (no instrumentation);
* the ``-np`` ablations give no guarantee (promote produces no bounds,
  so only compile-time bounds still check) — scored ``may``;
* ``subheap`` / ``wrapped`` must trap on every object-granularity
  violation, and on intra-object violations exactly when the site is
  *narrowable*: alloc-wrapper objects carry no layout table and
  global-table tags have no subobject bits (Table 4 / Section 3), so
  those intra attacks must run **silently** — the expected-evasion rows
  of the oracle.

When a campaign runs with the lock-and-key policy armed
(``temporal != 'off'``), three *temporal* attack kinds join the pool
for plain heap-array sites (``AccessSite.temporal_ok``):

=============  ========================================================
kind           meaning
=============  ========================================================
uaf            access through the pointer after ``free`` (CWE-416)
double_free    ``free`` the same allocation twice (CWE-415)
realloc_stale  access through the pre-``realloc`` pointer (CWE-416)
=============  ========================================================

Their expectations depend on the policy: strict configs must raise
:class:`~repro.errors.TemporalViolation` under ``check``/``quarantine``
and must stay silent on use-after-free with the policy ``off`` (the
allocator may still catch a double free on its own — scored ``may``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List

from repro.fuzz.generator import AccessSite

EXPECT_TRAP = "must_trap"
EXPECT_NO_TRAP = "must_not_trap"
EXPECT_MAY = "may_trap"

#: Configurations whose behaviour the oracle asserts (vs. just records).
INSTRUMENTED_STRICT = ("subheap", "wrapped")

#: Attack kinds that violate object *lifetime* rather than bounds.
TEMPORAL_KINDS = ("uaf", "double_free", "realloc_stale")

#: CWE family per temporal kind (reporting only).
TEMPORAL_CWE = {"uaf": "CWE-416", "double_free": "CWE-415",
                "realloc_stale": "CWE-416"}


@dataclass(frozen=True)
class Attack:
    """One injected violation at one access site."""

    sid: int
    kind: str        #: 'over' | 'under' | 'intra' | 'intra_under'
    #: | one of :data:`TEMPORAL_KINDS`
    index: int       #: the mutated index (for temporal kinds: the
    #: site's safe index — the access stays in-bounds)
    description: str

    def to_dict(self) -> Dict[str, object]:
        return {"sid": self.sid, "kind": self.kind, "index": self.index,
                "description": self.description}


def attacks_for(site: AccessSite,
                include_temporal: bool = False) -> List[Attack]:
    """Every attack kind this site's shape supports.

    ``include_temporal`` adds the lifetime attacks for sites that can
    carry them; campaigns running with ``temporal='off'`` keep it False
    so their iteration streams (and corpus digests) stay byte-identical
    to historical runs.
    """
    out: List[Attack] = []
    beyond = site.object_elems - site.member_offset_elems
    is_member = site.member_offset_elems > 0 \
        or site.length < site.object_elems
    what = f"{site.kind} via {site.flow} on {site.obj} ({site.region})"
    out.append(Attack(site.sid, "over", beyond,
                      f"one-past-object {what}"))
    if site.member_offset_elems > 0:
        out.append(Attack(site.sid, "intra_under", -1,
                          f"before-member (inside object) {what}"))
    else:
        out.append(Attack(site.sid, "under", -1,
                          f"one-before-object {what}"))
    if is_member and site.intra_room > 0:
        out.append(Attack(site.sid, "intra", site.length,
                          f"past-member (inside object) {what}"))
    if include_temporal and site.temporal_ok:
        base = f"on {site.obj} ({site.region})"
        out.append(Attack(site.sid, "uaf", site.safe_index,
                          f"use-after-free read {base}"))
        out.append(Attack(site.sid, "double_free", site.safe_index,
                          f"double free {base}"))
        out.append(Attack(site.sid, "realloc_stale", site.safe_index,
                          f"stale pre-realloc pointer read {base}"))
    return out


def expectation(site: AccessSite, attack: Attack, config: str,
                temporal: str = "off") -> str:
    """The oracle's verdict key for ``attack`` under ``config``."""
    if attack.kind in TEMPORAL_KINDS:
        return _temporal_expectation(attack, config, temporal)
    if config == "baseline":
        return EXPECT_NO_TRAP
    if config not in INSTRUMENTED_STRICT:
        return EXPECT_MAY            # ablations and unknown configs
    if attack.kind in ("over", "under"):
        return EXPECT_TRAP
    # intra / intra_under: subobject granularity needed
    return EXPECT_TRAP if site.narrowable else EXPECT_NO_TRAP


def _temporal_expectation(attack: Attack, config: str,
                          temporal: str) -> str:
    if config == "baseline":
        # No lock-and-key, but the model allocator may still notice a
        # structurally impossible second free on its own.
        return EXPECT_MAY if attack.kind == "double_free" \
            else EXPECT_NO_TRAP
    if config not in INSTRUMENTED_STRICT:
        # -np ablations: allocation-time bounds still carry keys, but
        # promote produces none, so detection depends on the flow.
        return EXPECT_MAY
    if temporal in ("check", "quarantine"):
        return EXPECT_TRAP
    # Policy off: use-after-free must run silently (that *is* the gap
    # the lock-and-key scheme exists to close); a double free may still
    # be caught by allocator metadata (InvalidFree).
    return EXPECT_MAY if attack.kind == "double_free" \
        else EXPECT_NO_TRAP
