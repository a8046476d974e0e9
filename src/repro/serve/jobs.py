"""Job specs, validation, and plan construction for the campaign
service.

A *job spec* is the JSON body of ``POST /jobs``::

    {"tenant": "alice", "kind": "fuzz", "workers": 1,
     "params": {"iterations": 50, "seed": 7}}

Validation resolves every omitted parameter to its default **at submit
time** and persists the fully-resolved set in the job record, so the
:class:`~repro.par.plan.ShardPlan` rebuilt for execution — or for a
resume after a service restart — always fingerprints identically to the
plan fingerprint captured at submission.  That stability is what lets a
restarted service reuse the job's checkpoint directory instead of
re-running completed shards.
"""

from __future__ import annotations

import inspect
import time
from dataclasses import dataclass, field
from typing import Any, Dict, Optional, Sequence, Tuple

from repro.errors import InvalidJobSpec
from repro.par.kinds import CAMPAIGN_KINDS, require_int, require_str
from repro.par.plan import ShardPlan

#: job lifecycle states (terminal: done / failed / cancelled)
JOB_STATUSES: Tuple[str, ...] = (
    "queued", "running", "done", "failed", "cancelled",
)

MAX_WORKERS_PER_JOB = 8


def validate_spec(body: Any, *,
                  allowed_kinds: Sequence[str] = tuple(CAMPAIGN_KINDS)
                  ) -> Tuple[str, str, int, Dict[str, Any]]:
    """Validate a job submission body into
    ``(tenant, kind, workers, resolved_params)``.

    Every unknown or malformed entry raises a typed
    :class:`~repro.errors.InvalidJobSpec` whose ``field`` names the
    offending key — the 400 body the API layer returns.
    """
    if not isinstance(body, dict):
        raise InvalidJobSpec(
            f"expected a JSON object, got {type(body).__name__}",
            field="body")
    tenant = require_str("tenant", body.get("tenant", ""))
    if not tenant or len(tenant) > 64 or not all(
            ch.isalnum() or ch in "-_." for ch in tenant):
        raise InvalidJobSpec(
            "expected 1-64 chars from [a-zA-Z0-9._-]", field="tenant")
    kind = require_str("kind", body.get("kind", ""),
                       tuple(CAMPAIGN_KINDS))
    if kind not in allowed_kinds:
        raise InvalidJobSpec(
            f"kind {kind!r} is disabled on this service "
            f"(enabled: {tuple(allowed_kinds)})", field="kind")
    workers = require_int("workers", body.get("workers", 1), 1,
                          MAX_WORKERS_PER_JOB)
    params = body.get("params", {})
    if not isinstance(params, dict):
        raise InvalidJobSpec(
            f"expected a JSON object, got {type(params).__name__}",
            field="params")
    known = _resolve_params(kind, params)
    unknown = sorted(set(params) - set(known))
    if unknown:
        raise InvalidJobSpec(
            f"unknown parameter(s) for kind {kind!r}: "
            f"{', '.join(unknown)}", field="params")
    extra = sorted(set(body) - {"tenant", "kind", "workers", "params"})
    if extra:
        raise InvalidJobSpec(
            f"unknown field(s): {', '.join(extra)}", field="body")
    return tenant, kind, workers, known


def _resolve_params(kind: str, params: Dict[str, Any]) -> Dict[str, Any]:
    """Every planner keyword but ``jobs``, in signature order, through
    its check; an omitted one takes the signature default."""
    campaign = CAMPAIGN_KINDS[kind]
    resolved = {}
    for name, parameter in inspect.signature(
            campaign.plan).parameters.items():
        if name == "jobs":
            continue
        default = parameter.default
        # a tuple default reads as the JSON list a client would send
        value = params.get(name, list(default)
                           if isinstance(default, tuple) else default)
        resolved[name] = campaign.checks[name](f"params.{name}", value)
    return resolved


def build_plan(kind: str, params: Dict[str, Any],
               workers: int) -> ShardPlan:
    """Rebuild the deterministic shard plan for a resolved spec.

    Pure function of ``(kind, params, workers)`` — submit, execute, and
    restart-resume all derive the identical plan (and therefore the
    identical checkpoint fingerprint) from the persisted record.  The
    resolved parameter names are the kind's planner keywords; a spec
    persisted before a parameter existed takes the planner's default,
    which keeps the plan (and its fingerprint) unchanged.
    """
    return CAMPAIGN_KINDS[kind].plan(**params, jobs=workers)


# ---------------------------------------------------------------------------
# Job records
# ---------------------------------------------------------------------------

@dataclass
class JobRecord:
    """One job's full persisted state (the ``GET /jobs/<id>`` body)."""

    job_id: str
    tenant: str
    kind: str
    workers: int
    params: Dict[str, Any]
    status: str = "queued"
    created: float = 0.0
    started: Optional[float] = None
    finished: Optional[float] = None
    fingerprint: str = ""
    #: shard-level completion counters, updated live off the event bus
    progress: Dict[str, int] = field(default_factory=dict)
    result: Optional[Dict[str, Any]] = None
    error: Optional[Dict[str, Any]] = None
    cancel_requested: bool = False

    @property
    def terminal(self) -> bool:
        return self.status in ("done", "failed", "cancelled")

    def to_dict(self) -> Dict[str, Any]:
        return {
            "job_id": self.job_id, "tenant": self.tenant,
            "kind": self.kind, "workers": self.workers,
            "params": dict(self.params), "status": self.status,
            "created": self.created, "started": self.started,
            "finished": self.finished,
            "fingerprint": self.fingerprint,
            "progress": dict(self.progress), "result": self.result,
            "error": self.error,
            "cancel_requested": self.cancel_requested,
        }

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "JobRecord":
        return cls(
            job_id=data["job_id"], tenant=data["tenant"],
            kind=data["kind"], workers=data["workers"],
            params=dict(data["params"]), status=data["status"],
            created=data.get("created", 0.0),
            started=data.get("started"),
            finished=data.get("finished"),
            fingerprint=data.get("fingerprint", ""),
            progress=dict(data.get("progress", {})),
            result=data.get("result"), error=data.get("error"),
            cancel_requested=data.get("cancel_requested", False))


def new_record(job_id: str, tenant: str, kind: str, workers: int,
               params: Dict[str, Any], fingerprint: str,
               shards_total: int) -> JobRecord:
    return JobRecord(
        job_id=job_id, tenant=tenant, kind=kind, workers=workers,
        params=params, created=time.time(), fingerprint=fingerprint,
        progress={"shards_total": shards_total, "shards_done": 0,
                  "shards_restored": 0, "retries": 0})
