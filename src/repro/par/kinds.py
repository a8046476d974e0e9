"""Campaign kinds: the one table that says what each kind is.

Every campaign kind is one frozen :class:`CampaignKind` record in
:data:`CAMPAIGN_KINDS`:

* ``runner`` — the worker-side shard runner (:mod:`repro.par.campaigns`),
  by ``"module:function"`` reference;
* ``plan(**params, jobs=N)`` — the deterministic planner; its keyword
  names and defaults are the campaign service's job-spec parameters and
  their defaults;
* ``checks`` — parameter name -> its type, range and choices check,
  ``check(field, value)``, which returns the normalized value or raises
  a typed :class:`~repro.errors.InvalidJobSpec` naming ``field``; one
  entry per planner keyword but ``jobs``;
* ``merge(plan, outcome)`` — folds a :class:`~repro.par.pool.PlanResult`
  into the kind's sequential result (:mod:`repro.par.merge`);
* ``ok(merged)`` / ``summary(merged)`` — the campaign verdict and its
  human-readable report;
* ``document(plan, merged)`` — the schema-v2 metrics document, built
  from the plan alone (never from CLI args or job-spec params), so the
  batch CLIs and the campaign service write the same document for the
  same campaign.  ``None`` for a kind without one.

The executor, ``python -m repro.par``, the fuzz/resil CLIs and
:mod:`repro.serve` all read this table; none of them switches on a
kind.  Adding a kind means adding one record here, one shard runner and
one merge.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import partial
from typing import Any, Callable, Dict, List, Mapping, Optional, Sequence

from repro.errors import InvalidJobSpec
from repro.eval.configs import CONFIG_NAMES
from repro.fuzz.driver import DEFAULT_CONFIGS
from repro.obs.metrics import metrics_document
from repro.par.campaigns import bench_cells
from repro.par.merge import (
    merge_bench, merge_fuzz, merge_juliet, merge_resil, merge_selftest,
)
from repro.par.plan import (
    ShardPlan, default_shard_count, plan_indices, plan_range,
)
from repro.resil.faults import FAULT_CLASSES
from repro.resil.matrix import DEFAULT_WORKLOADS, SCHEMES
from repro.vm.machine import ENGINES, TEMPORAL_POLICIES
from repro.workloads import WORKLOADS


@dataclass(frozen=True)
class CampaignKind:
    """Everything the program knows about one campaign kind."""

    runner: str
    plan: Callable[..., ShardPlan]
    checks: Mapping[str, Callable[[str, Any], Any]]
    merge: Callable[[ShardPlan, Any], Any]
    ok: Callable[[Any], bool]
    summary: Callable[[Any], str]
    document: Optional[Callable[[ShardPlan, Any], Dict[str, Any]]]


# ---------------------------------------------------------------------------
# Parameter checks — each returns the normalized value or raises a typed
# InvalidJobSpec naming the offending field
# ---------------------------------------------------------------------------

def require_int(name: str, value: Any, minimum: int,
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


def require_number(name: str, value: Any, minimum: float = 0.0,
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


def require_bool(name: str, value: Any) -> bool:
    if not isinstance(value, bool):
        raise InvalidJobSpec(
            f"expected boolean, got {type(value).__name__}", field=name)
    return value


def require_str(name: str, value: Any,
                choices: Sequence[str] = ()) -> str:
    if not isinstance(value, str):
        raise InvalidJobSpec(
            f"expected string, got {type(value).__name__}", field=name)
    if choices and value not in choices:
        raise InvalidJobSpec(
            f"unknown value {value!r}; expected one of {tuple(choices)}",
            field=name)
    return value


def require_str_list(name: str, value: Any, choices: Sequence[str],
                     noun: str = "value(s)") -> List[str]:
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
            f"unknown {noun} {unknown!r}; expected from "
            f"{tuple(choices)}", field=name)
    return list(value)


def require_int_list(name: str, value: Any) -> List[int]:
    if not isinstance(value, list) or any(
            isinstance(item, bool) or not isinstance(item, int)
            for item in value):
        raise InvalidJobSpec("expected a list of integers", field=name)
    return list(value)


_NATURAL = partial(require_int, minimum=0)
_SCALE = partial(require_int, minimum=1, maximum=64)
_TIMEOUT = partial(require_number, nullable=True)
_ENGINE = partial(require_str, choices=ENGINES)
_TEMPORAL = partial(require_str, choices=TEMPORAL_POLICIES)
_WORKLOADS = partial(require_str_list, choices=tuple(WORKLOADS),
                     noun="workload(s)")
_CONFIGS = partial(require_str_list, choices=CONFIG_NAMES,
                   noun="configuration(s)")


def _armed_temporal(plan: ShardPlan) -> Dict[str, str]:
    """The temporal policy label for a document's config — present only
    when armed, which is what marks a lifetime campaign."""
    temporal = plan.params.get("temporal", "off")
    return {} if temporal == "off" else {"temporal": temporal}


# ---------------------------------------------------------------------------
# fuzz
# ---------------------------------------------------------------------------

def plan_fuzz(iterations: int = 20, seed: int = 0, *,
              configs: Sequence[str] = DEFAULT_CONFIGS, start: int = 0,
              clean: bool = True, inject: bool = True,
              corpus_dir: str = "corpus", minimize: bool = True,
              max_attacks: int = 2, plant_bug: bool = False,
              timeout_seconds: Optional[float] = None, retries: int = 2,
              backoff_base: float = 0.1, engine: str = "auto",
              temporal: str = "off", shard_size: int = 0,
              jobs: int = 1) -> ShardPlan:
    """Plan a fuzzing campaign as contiguous iteration-range shards.

    The shards partition ``range(start, start + iterations)``; the
    planner resolves ``plant_bug`` down to the one shard containing the
    campaign's first iteration so the sharded run plants exactly where
    the sequential driver would.
    """
    params = {
        "seed": seed, "configs": list(configs), "clean": clean,
        "inject": inject, "corpus_dir": corpus_dir,
        "minimize": minimize, "max_attacks": max_attacks,
        "plant_bug": False, "timeout_seconds": timeout_seconds,
        "retries": retries, "backoff_base": backoff_base,
        "engine": engine,
    }
    # Only record the temporal policy when armed: a plan built with the
    # default stays byte-identical to pre-temporal plans, so checkpoint
    # fingerprints of old manifests keep verifying.
    if temporal != "off":
        params["temporal"] = temporal
    shards = default_shard_count(iterations, jobs, shard_size)
    plan = plan_range("fuzz", seed, iterations, params=params,
                      shards=shards,
                      shard_params=[{"plant_bug": plant_bug}])
    # plan_range items are relative to 0; shift to the campaign start
    for shard in plan.shards:
        shard.items[0] += start
    plan.params["start"] = start
    plan.params["iterations"] = iterations
    return plan


_FUZZ_CHECKS = {
    "iterations": partial(require_int, minimum=1, maximum=1_000_000),
    "seed": _NATURAL, "configs": _CONFIGS, "start": _NATURAL,
    "clean": require_bool, "inject": require_bool,
    "corpus_dir": require_str, "minimize": require_bool,
    "max_attacks": partial(require_int, minimum=0, maximum=16),
    "plant_bug": require_bool, "timeout_seconds": _TIMEOUT,
    "retries": partial(require_int, minimum=0, maximum=16),
    "backoff_base": require_number, "engine": _ENGINE,
    "temporal": _TEMPORAL, "shard_size": _NATURAL,
}


def _fuzz_document(plan: ShardPlan, stats) -> Dict[str, Any]:
    # Neither jobs nor pool accounting: a --jobs N document must compare
    # equal to the --jobs 1 one for the same seed.
    return metrics_document(
        "fuzz",
        {"seed": plan.seed, "iterations": plan.params["iterations"],
         "configs": ",".join(plan.params["configs"]),
         **_armed_temporal(plan)},
        stats.metrics())


# ---------------------------------------------------------------------------
# resil
# ---------------------------------------------------------------------------

def plan_resil(*, workloads: Sequence[str] = DEFAULT_WORKLOADS,
               schemes: Sequence[str] = SCHEMES,
               faults: Sequence[str] = FAULT_CLASSES, seed: int = 0,
               scale: int = 1, timeout_seconds: Optional[float] = 120.0,
               strict: bool = False, shard_size: int = 0,
               engine: str = "auto", jobs: int = 1) -> ShardPlan:
    """Plan a resilience campaign as contiguous slices of the global
    cell order (:func:`repro.resil.matrix.enumerate_cells`)."""
    total = len(workloads) * len(schemes) * len(faults)
    params = {
        "workloads": list(workloads), "schemes": list(schemes),
        "faults": list(faults), "seed": seed, "scale": scale,
        "timeout_seconds": timeout_seconds, "strict": strict,
        "engine": engine,
    }
    shards = default_shard_count(total, jobs, shard_size)
    return plan_indices("resil", seed, list(range(total)),
                        params=params, shards=shards)


_RESIL_CHECKS = {
    "workloads": _WORKLOADS,
    "schemes": partial(require_str_list, choices=SCHEMES,
                       noun="scheme(s)"),
    "faults": partial(require_str_list, choices=FAULT_CLASSES,
                      noun="fault class(es)"),
    "seed": _NATURAL, "scale": _SCALE, "timeout_seconds": _TIMEOUT,
    "strict": require_bool, "shard_size": _NATURAL, "engine": _ENGINE,
}


def _resil_document(plan: ShardPlan, campaign) -> Dict[str, Any]:
    params = plan.params
    return metrics_document(
        "resil",
        {"seed": plan.seed, "scale": params["scale"],
         "policy": campaign.policy_name,
         "workloads": ",".join(params["workloads"]),
         "schemes": ",".join(params["schemes"]),
         "faults": ",".join(params["faults"])},
        campaign.metrics())


# ---------------------------------------------------------------------------
# juliet
# ---------------------------------------------------------------------------

def plan_juliet(*, seed: int = 0, allocator: str = "wrapped",
                temporal: str = "off", shard_size: int = 0,
                jobs: int = 1) -> ShardPlan:
    """Plan the Juliet-style suite as contiguous case-index slices.

    With ``temporal`` armed the case list additionally includes the
    CWE-415/CWE-416 lifetime families
    (:func:`repro.juliet.cases.generate_temporal_cases`) and every
    machine runs with the lock-and-key policy; the parameter is only
    recorded in the plan when non-default, so fingerprints of
    pre-temporal manifests keep verifying.
    """
    from repro.juliet.cases import generate_cases, generate_temporal_cases
    total = len(generate_cases())
    if temporal != "off":
        total += len(generate_temporal_cases())
    params = {"allocator": allocator}
    if temporal != "off":
        params["temporal"] = temporal
    shards = default_shard_count(total, jobs, shard_size)
    return plan_indices("juliet", seed, list(range(total)),
                        params=params, shards=shards)


_JULIET_CHECKS = {
    "seed": _NATURAL,
    "allocator": partial(require_str, choices=("wrapped", "subheap")),
    "temporal": _TEMPORAL, "shard_size": _NATURAL,
}


def _juliet_document(plan: ShardPlan, report) -> Dict[str, Any]:
    return metrics_document(
        "juliet_parallel",
        {"seed": plan.seed, "allocator": plan.params["allocator"],
         **_armed_temporal(plan)},
        {"total": report.total, "detected": report.detected,
         "bad_total": report.bad_total,
         "false_positives": report.false_positives,
         "good_total": report.good_total,
         "by_cwe": {cwe: dict(row)
                    for cwe, row in report.by_cwe().items()}})


# ---------------------------------------------------------------------------
# bench
# ---------------------------------------------------------------------------

#: the workloads and configurations an ad-hoc sweep runs by default
BENCH_WORKLOADS = ("treeadd", "anagram")
BENCH_CONFIGS = ("baseline", "wrapped", "subheap")


def plan_bench(*, workloads: Sequence[str] = BENCH_WORKLOADS,
               configs: Sequence[str] = BENCH_CONFIGS, scale: int = 1,
               timeout_seconds: Optional[float] = None, seed: int = 0,
               shard_size: int = 0, engine: str = "auto",
               jobs: int = 1) -> ShardPlan:
    """Plan an ad-hoc ``(workload, config)`` sweep as contiguous slices
    of :func:`repro.par.campaigns.bench_cells` order."""
    total = len(bench_cells(tuple(workloads), tuple(configs)))
    params = {
        "workloads": list(workloads), "configs": list(configs),
        "scale": scale, "timeout_seconds": timeout_seconds,
        "engine": engine,
    }
    shards = default_shard_count(total, jobs, shard_size)
    return plan_indices("bench", seed, list(range(total)),
                        params=params, shards=shards)


_BENCH_CHECKS = {
    "workloads": _WORKLOADS, "configs": _CONFIGS, "scale": _SCALE,
    "timeout_seconds": _TIMEOUT, "seed": _NATURAL,
    "shard_size": _NATURAL, "engine": _ENGINE,
}


def _bench_summary(cells: Dict[str, Any]) -> str:
    return "\n".join(f"  {key:30s} instructions="
                     f"{metrics.get('total_instructions', 0)}"
                     for key, metrics in cells.items())


def _bench_document(plan: ShardPlan, cells) -> Dict[str, Any]:
    params = plan.params
    return metrics_document(
        "bench_sweep",
        {"workloads": ",".join(params["workloads"]),
         "configs": ",".join(params["configs"]),
         "scale": params["scale"]},
        {"cells": cells})


# ---------------------------------------------------------------------------
# selftest: deterministic toy campaign with scriptable failure modes
# (tests, the service latency benchmark)
# ---------------------------------------------------------------------------

def plan_selftest(*, total: int = 8, seed: int = 0, shards: int = 4,
                  sleep_seconds: float = 0.0,
                  fail_shards: Sequence[int] = (), mode: str = "ok",
                  succeed_attempt: int = 1, marker: str = "",
                  jobs: int = 1) -> ShardPlan:
    """Plan ``total`` toy items as exactly ``shards`` shards (``jobs``
    does not shape the plan); the remaining parameters script
    :func:`~repro.par.campaigns.run_selftest_shard`'s failures."""
    del jobs
    return plan_indices(
        "selftest", seed, list(range(total)),
        params={"sleep_seconds": sleep_seconds,
                "fail_shards": list(fail_shards), "mode": mode,
                "succeed_attempt": succeed_attempt, "marker": marker},
        shards=shards)


_SELFTEST_CHECKS = {
    "total": partial(require_int, minimum=1, maximum=10_000),
    "seed": _NATURAL,
    "shards": partial(require_int, minimum=1, maximum=256),
    "sleep_seconds": require_number, "fail_shards": require_int_list,
    "mode": partial(require_str, choices=(
        "ok", "raise", "flaky", "crash", "hang", "marker")),
    "succeed_attempt": partial(require_int, minimum=0, maximum=16),
    "marker": require_str,
}


# ---------------------------------------------------------------------------
# the table
# ---------------------------------------------------------------------------

#: campaign kind -> its one definition
CAMPAIGN_KINDS: Dict[str, CampaignKind] = {
    "fuzz": CampaignKind(
        runner="repro.par.campaigns:run_fuzz_shard",
        plan=plan_fuzz, checks=_FUZZ_CHECKS, merge=merge_fuzz,
        ok=lambda stats: stats.ok,
        summary=lambda stats: stats.summary(),
        document=_fuzz_document),
    "resil": CampaignKind(
        runner="repro.par.campaigns:run_resil_shard",
        plan=plan_resil, checks=_RESIL_CHECKS, merge=merge_resil,
        ok=lambda campaign: campaign.ok,
        summary=lambda campaign: campaign.render(),
        document=_resil_document),
    "juliet": CampaignKind(
        runner="repro.par.campaigns:run_juliet_shard",
        plan=plan_juliet, checks=_JULIET_CHECKS, merge=merge_juliet,
        ok=lambda report: report.all_passed,
        summary=lambda report: report.summary(),
        document=_juliet_document),
    "bench": CampaignKind(
        runner="repro.par.campaigns:run_bench_shard",
        plan=plan_bench, checks=_BENCH_CHECKS, merge=merge_bench,
        ok=lambda cells: True,
        summary=_bench_summary,
        document=_bench_document),
    "selftest": CampaignKind(
        runner="repro.par.campaigns:run_selftest_shard",
        plan=plan_selftest, checks=_SELFTEST_CHECKS, merge=merge_selftest,
        ok=lambda values: True,
        summary=json.dumps,
        document=None),
}


def campaign_kind(name: str) -> CampaignKind:
    """The table record for ``name``; ``ValueError`` for an unknown
    kind."""
    try:
        return CAMPAIGN_KINDS[name]
    except KeyError:
        raise ValueError(f"unknown campaign kind {name!r}; expected one "
                         f"of {tuple(CAMPAIGN_KINDS)}") from None
