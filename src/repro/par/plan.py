"""Shard plans: the deterministic unit of parallel campaign execution.

A :class:`ShardPlan` splits one campaign — fuzz iterations, resilience
matrix cells, Juliet cases, bench configurations — into independent
:class:`ShardSpec` work units.  Three properties make the split safe to
parallelize:

* **Pure-function shards.**  Every shard carries everything its runner
  needs (campaign kind, parameters, item indices, a derived seed
  namespace), so a shard's result is a pure function of its spec —
  independent of which worker runs it, when, or how often.
* **Order-preserving items.**  Items are split into *contiguous* chunks
  in campaign order.  Merging shard results in ``shard_id`` order then
  reproduces the exact sequential ordering, which is what makes the
  merged output byte-identical to a one-process run.
* **Stable fingerprint.**  :meth:`ShardPlan.fingerprint` hashes the
  canonical JSON form of the plan; the checkpoint manifest stores it so
  a resume can refuse to mix shards from two different campaigns.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from typing import Any, Dict, List, Sequence, Tuple

from repro.par.seeds import shard_seed


def split_evenly(total: int, parts: int) -> List[Tuple[int, int]]:
    """Split ``range(total)`` into ``parts`` contiguous ``(start, count)``
    chunks whose sizes differ by at most one (larger chunks first, like
    ``numpy.array_split``)."""
    if total < 0:
        raise ValueError(f"total must be >= 0, got {total}")
    if parts < 1:
        raise ValueError(f"parts must be >= 1, got {parts}")
    parts = min(parts, total) or 1
    base, extra = divmod(total, parts)
    chunks: List[Tuple[int, int]] = []
    start = 0
    for index in range(parts):
        count = base + (1 if index < extra else 0)
        if count == 0:
            continue
        chunks.append((start, count))
        start += count
    return chunks


@dataclass
class ShardSpec:
    """One independent unit of campaign work.

    ``items`` is kind-specific but always JSON-scalar content: a
    ``(start, count)`` iteration range for fuzz, a list of global cell
    indices for the resilience matrix, case indices for Juliet.
    ``params`` is the full parameter set the runner needs — shards are
    self-contained so a worker (or a resumed session) never needs
    campaign state from anywhere else.
    """

    shard_id: int
    kind: str
    seed: int
    items: List[Any]
    params: Dict[str, Any] = field(default_factory=dict)

    def to_dict(self) -> Dict[str, Any]:
        return {
            "shard_id": self.shard_id, "kind": self.kind,
            "seed": self.seed, "items": list(self.items),
            "params": dict(self.params),
        }

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "ShardSpec":
        return cls(shard_id=data["shard_id"], kind=data["kind"],
                   seed=data["seed"], items=list(data["items"]),
                   params=dict(data["params"]))


@dataclass
class ShardPlan:
    """A campaign split into shards, plus the campaign-level identity."""

    kind: str
    seed: int
    params: Dict[str, Any] = field(default_factory=dict)
    shards: List[ShardSpec] = field(default_factory=list)

    def __post_init__(self) -> None:
        # the kind table imports this module's planners' building blocks
        from repro.par.kinds import campaign_kind
        campaign_kind(self.kind)

    def to_dict(self) -> Dict[str, Any]:
        return {
            "kind": self.kind, "seed": self.seed,
            "params": dict(self.params),
            "shards": [shard.to_dict() for shard in self.shards],
        }

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "ShardPlan":
        return cls(kind=data["kind"], seed=data["seed"],
                   params=dict(data["params"]),
                   shards=[ShardSpec.from_dict(s)
                           for s in data["shards"]])

    def fingerprint(self) -> str:
        """SHA-256 over the canonical JSON form — the campaign identity
        a checkpoint manifest verifies before resuming."""
        canonical = json.dumps(self.to_dict(), sort_keys=True,
                               separators=(",", ":"))
        return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def default_shard_count(total_items: int, jobs: int,
                        shard_size: int = 0) -> int:
    """How many shards to plan: enough for the pool to steal work
    (4 per worker) without shattering tiny campaigns."""
    if shard_size > 0:
        return max(1, -(-total_items // shard_size))
    return max(1, min(total_items, jobs * 4))


def plan_range(kind: str, seed: int, total: int, *,
               params: Dict[str, Any], shards: int,
               shard_params: Sequence[Dict[str, Any]] = ()) -> ShardPlan:
    """Plan a campaign over ``range(total)`` as contiguous
    ``(start, count)`` shards.  ``shard_params[i]`` (when given)
    overlays shard *i*'s params on top of the campaign params."""
    plan = ShardPlan(kind=kind, seed=seed, params=dict(params))
    for shard_id, (start, count) in enumerate(split_evenly(total,
                                                           shards)):
        merged = dict(params)
        if shard_id < len(shard_params):
            merged.update(shard_params[shard_id])
        plan.shards.append(ShardSpec(
            shard_id=shard_id, kind=kind,
            seed=shard_seed(seed, shard_id),
            items=[start, count], params=merged))
    return plan


def plan_indices(kind: str, seed: int, indices: Sequence[int], *,
                 params: Dict[str, Any], shards: int) -> ShardPlan:
    """Plan a campaign over an explicit index list (e.g. resilience
    matrix cells) as contiguous slices of that list."""
    plan = ShardPlan(kind=kind, seed=seed, params=dict(params))
    for shard_id, (start, count) in enumerate(
            split_evenly(len(indices), shards)):
        plan.shards.append(ShardSpec(
            shard_id=shard_id, kind=kind,
            seed=shard_seed(seed, shard_id),
            items=list(indices[start:start + count]),
            params=dict(params)))
    return plan
