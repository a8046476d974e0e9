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

import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.errors import InvalidJobSpec
from repro.par.kinds import CAMPAIGN_KINDS
from repro.par.plan import ShardPlan
from repro.vm.machine import ENGINE_CHOICES, TEMPORAL_POLICIES

#: job lifecycle states (terminal: done / failed / cancelled)
JOB_STATUSES: Tuple[str, ...] = (
    "queued", "running", "done", "failed", "cancelled",
)

MAX_WORKERS_PER_JOB = 8


# ---------------------------------------------------------------------------
# Field checkers — each returns the normalized value or raises a typed
# InvalidJobSpec naming the offending field
# ---------------------------------------------------------------------------

def _require_int(name: str, value: Any, minimum: int,
                 maximum: Optional[int] = None) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise InvalidJobSpec(
            f"expected integer, got {type(value).__name__}", field=name)
    if value < minimum or (maximum is not None and value > maximum):
        bound = f">= {minimum}" if maximum is None \
            else f"in [{minimum}, {maximum}]"
        raise InvalidJobSpec(f"expected {bound}, got {value}",
                             field=name)
    return value


def _require_number(name: str, value: Any, minimum: float = 0.0,
                    nullable: bool = False) -> Optional[float]:
    if value is None and nullable:
        return None
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise InvalidJobSpec(
            f"expected number, got {type(value).__name__}", field=name)
    if value < minimum:
        raise InvalidJobSpec(f"expected >= {minimum:g}, got {value}",
                             field=name)
    return float(value)


def _require_bool(name: str, value: Any) -> bool:
    if not isinstance(value, bool):
        raise InvalidJobSpec(
            f"expected boolean, got {type(value).__name__}", field=name)
    return value


def _require_str(name: str, value: Any,
                 choices: Sequence[str] = ()) -> str:
    if not isinstance(value, str):
        raise InvalidJobSpec(
            f"expected string, got {type(value).__name__}", field=name)
    if choices and value not in choices:
        raise InvalidJobSpec(
            f"unknown value {value!r}; expected one of {tuple(choices)}",
            field=name)
    return value


def _require_str_list(name: str, value: Any,
                      choices: Sequence[str]) -> List[str]:
    if isinstance(value, str):
        value = [item.strip() for item in value.split(",")
                 if item.strip()]
    if not isinstance(value, list) or not value:
        raise InvalidJobSpec("expected a non-empty list of strings",
                             field=name)
    unknown = [item for item in value
               if not isinstance(item, str) or item not in choices]
    if unknown:
        raise InvalidJobSpec(
            f"unknown value(s) {unknown!r}; expected from "
            f"{tuple(choices)}", field=name)
    return list(value)


def _require_int_list(name: str, value: Any) -> List[int]:
    if not isinstance(value, list) or any(
            isinstance(item, bool) or not isinstance(item, int)
            for item in value):
        raise InvalidJobSpec("expected a list of integers", field=name)
    return list(value)


# ---------------------------------------------------------------------------
# Per-kind parameter schemas
# ---------------------------------------------------------------------------

def _fuzz_params(params: Dict[str, Any]) -> Dict[str, Any]:
    from repro.eval.configs import CONFIG_NAMES
    from repro.fuzz.driver import DEFAULT_CONFIGS
    return {
        "iterations": _require_int(
            "params.iterations", params.get("iterations", 20),
            1, 1_000_000),
        "seed": _require_int("params.seed", params.get("seed", 0), 0),
        "configs": _require_str_list(
            "params.configs",
            params.get("configs", list(DEFAULT_CONFIGS)), CONFIG_NAMES),
        "start": _require_int("params.start", params.get("start", 0), 0),
        "clean": _require_bool("params.clean",
                               params.get("clean", True)),
        "inject": _require_bool("params.inject",
                                params.get("inject", True)),
        "corpus_dir": _require_str("params.corpus_dir",
                                   params.get("corpus_dir", "corpus")),
        "minimize": _require_bool("params.minimize",
                                  params.get("minimize", True)),
        "max_attacks": _require_int(
            "params.max_attacks", params.get("max_attacks", 2), 0, 16),
        "plant_bug": _require_bool("params.plant_bug",
                                   params.get("plant_bug", False)),
        "timeout_seconds": _require_number(
            "params.timeout_seconds",
            params.get("timeout_seconds"), nullable=True),
        "retries": _require_int("params.retries",
                                params.get("retries", 2), 0, 16),
        "backoff_base": _require_number(
            "params.backoff_base", params.get("backoff_base", 0.1)),
        "engine": _require_str(
            "params.engine", params.get("engine", "auto"),
            ENGINE_CHOICES),
        "temporal": _require_str(
            "params.temporal", params.get("temporal", "off"),
            TEMPORAL_POLICIES),
        "shard_size": _require_int("params.shard_size",
                                   params.get("shard_size", 0), 0),
    }


def _resil_params(params: Dict[str, Any]) -> Dict[str, Any]:
    from repro.resil.faults import FAULT_CLASSES
    from repro.resil.matrix import DEFAULT_WORKLOADS, SCHEMES
    from repro.workloads import WORKLOADS
    return {
        "workloads": _require_str_list(
            "params.workloads",
            params.get("workloads", list(DEFAULT_WORKLOADS)),
            tuple(WORKLOADS)),
        "schemes": _require_str_list(
            "params.schemes", params.get("schemes", list(SCHEMES)),
            SCHEMES),
        "faults": _require_str_list(
            "params.faults", params.get("faults", list(FAULT_CLASSES)),
            FAULT_CLASSES),
        "seed": _require_int("params.seed", params.get("seed", 0), 0),
        "scale": _require_int("params.scale",
                              params.get("scale", 1), 1, 64),
        "timeout_seconds": _require_number(
            "params.timeout_seconds",
            params.get("timeout_seconds", 120.0), nullable=True),
        "strict": _require_bool("params.strict",
                                params.get("strict", False)),
        "shard_size": _require_int("params.shard_size",
                                   params.get("shard_size", 0), 0),
    }


def _juliet_params(params: Dict[str, Any]) -> Dict[str, Any]:
    return {
        "seed": _require_int("params.seed", params.get("seed", 0), 0),
        "allocator": _require_str(
            "params.allocator", params.get("allocator", "wrapped"),
            ("wrapped", "subheap")),
        "temporal": _require_str(
            "params.temporal", params.get("temporal", "off"),
            TEMPORAL_POLICIES),
        "shard_size": _require_int("params.shard_size",
                                   params.get("shard_size", 0), 0),
    }


def _bench_params(params: Dict[str, Any]) -> Dict[str, Any]:
    from repro.eval.configs import CONFIG_NAMES
    from repro.workloads import WORKLOADS
    return {
        "workloads": _require_str_list(
            "params.workloads",
            params.get("workloads", ["treeadd", "anagram"]),
            tuple(WORKLOADS)),
        "configs": _require_str_list(
            "params.configs",
            params.get("configs", ["baseline", "wrapped", "subheap"]),
            CONFIG_NAMES),
        "scale": _require_int("params.scale",
                              params.get("scale", 1), 1, 64),
        "timeout_seconds": _require_number(
            "params.timeout_seconds",
            params.get("timeout_seconds"), nullable=True),
        "seed": _require_int("params.seed", params.get("seed", 0), 0),
        "shard_size": _require_int("params.shard_size",
                                   params.get("shard_size", 0), 0),
    }


def _selftest_params(params: Dict[str, Any]) -> Dict[str, Any]:
    return {
        "total": _require_int("params.total",
                              params.get("total", 8), 1, 10_000),
        "seed": _require_int("params.seed", params.get("seed", 0), 0),
        "shards": _require_int("params.shards",
                               params.get("shards", 4), 1, 256),
        "sleep_seconds": _require_number(
            "params.sleep_seconds", params.get("sleep_seconds", 0.0)),
        "fail_shards": _require_int_list(
            "params.fail_shards", params.get("fail_shards", [])),
        "mode": _require_str(
            "params.mode", params.get("mode", "ok"),
            ("ok", "raise", "flaky", "crash", "hang", "marker")),
        "succeed_attempt": _require_int(
            "params.succeed_attempt",
            params.get("succeed_attempt", 1), 0, 16),
        "marker": _require_str("params.marker",
                               params.get("marker", "")),
    }


#: kind -> its ``_<kind>_params`` schema; a kind added to the campaign
#: table without a schema here fails at import
_PARAM_SCHEMAS = {kind: globals()[f"_{kind}_params"]
                  for kind in CAMPAIGN_KINDS}


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
    tenant = _require_str("tenant", body.get("tenant", ""))
    if not tenant or len(tenant) > 64 or not all(
            ch.isalnum() or ch in "-_." for ch in tenant):
        raise InvalidJobSpec(
            "expected 1-64 chars from [a-zA-Z0-9._-]", field="tenant")
    kind = _require_str("kind", body.get("kind", ""),
                        tuple(CAMPAIGN_KINDS))
    if kind not in allowed_kinds:
        raise InvalidJobSpec(
            f"kind {kind!r} is disabled on this service "
            f"(enabled: {tuple(allowed_kinds)})", field="kind")
    workers = _require_int("workers", body.get("workers", 1), 1,
                           MAX_WORKERS_PER_JOB)
    params = body.get("params", {})
    if not isinstance(params, dict):
        raise InvalidJobSpec(
            f"expected a JSON object, got {type(params).__name__}",
            field="params")
    known = _PARAM_SCHEMAS[kind](params)
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
