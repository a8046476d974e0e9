"""Folding per-shard results back into sequential-identical outputs.

The determinism contract: for every campaign kind, merging the shard
results *in shard order* produces the same artifact a one-process run
of the same seed would have produced — same corpus entries, same
resilience cells in the same order, same counters.  The only fields
that can legitimately differ are wall-clock derived (elapsed seconds,
throughput rates, timestamps, per-worker utilization); those are
enumerated in :data:`TIMING_KEYS`/:data:`TIMING_SUFFIXES` and excluded
by :func:`canonical_metrics`, which is what
``python -m repro.par diff`` and the CI determinism gates compare.
"""

from __future__ import annotations

import copy
from collections import Counter
from typing import TYPE_CHECKING, Any, Dict, List, Optional

if TYPE_CHECKING:
    from repro.par.plan import ShardPlan
    from repro.par.pool import PlanResult

#: metric/document keys that measure wall-clock, not campaign content
TIMING_KEYS = frozenset({
    "timestamp", "elapsed", "elapsed_seconds", "wall_seconds",
    "busy_seconds", "utilization", "throughput",
})
#: key suffixes that denote rates derived from wall-clock
TIMING_SUFFIXES = ("_per_second", "_seconds")


def _is_timing_key(key: str) -> bool:
    return key in TIMING_KEYS \
        or any(key.endswith(suffix) for suffix in TIMING_SUFFIXES)


def canonical_metrics(doc: Any) -> Any:
    """Deep-copy ``doc`` with every wall-clock-derived key removed, at
    any nesting depth.  Two runs of the same campaign seed must be
    *equal* under this projection regardless of ``--jobs``."""
    if isinstance(doc, dict):
        return {key: canonical_metrics(value)
                for key, value in doc.items()
                if not (isinstance(key, str) and _is_timing_key(key))}
    if isinstance(doc, list):
        return [canonical_metrics(item) for item in doc]
    return copy.deepcopy(doc)


def diff_documents(a: Any, b: Any, *, ignore_timing: bool = True,
                   path: str = "$") -> List[str]:
    """Structural diff of two JSON documents; returns human-readable
    difference lines (empty = equal).  Timing keys are projected out
    first unless ``ignore_timing=False``."""
    if ignore_timing:
        return diff_documents(canonical_metrics(a),
                              canonical_metrics(b),
                              ignore_timing=False, path=path)
    differences: List[str] = []
    if isinstance(a, dict) and isinstance(b, dict):
        for key in sorted(set(a) | set(b)):
            if key not in a:
                differences.append(f"{path}.{key}: only in second")
            elif key not in b:
                differences.append(f"{path}.{key}: only in first")
            else:
                differences.extend(diff_documents(
                    a[key], b[key], ignore_timing=False,
                    path=f"{path}.{key}"))
        return differences
    if isinstance(a, list) and isinstance(b, list):
        if len(a) != len(b):
            differences.append(
                f"{path}: length {len(a)} != {len(b)}")
            return differences
        for index, (left, right) in enumerate(zip(a, b)):
            differences.extend(diff_documents(
                left, right, ignore_timing=False,
                path=f"{path}[{index}]"))
        return differences
    if a != b or type(a) is not type(b):
        differences.append(f"{path}: {a!r} != {b!r}")
    return differences


# ---------------------------------------------------------------------------
# Per-kind merges: ``merge_<kind>(plan, outcome)`` folds a pool run's
# shard results, in shard order, into the kind's sequential result.
# ``None`` entries (shards that exhausted their retry budget or were
# quarantined) are skipped; the pool reports them as typed failures.
# ---------------------------------------------------------------------------

def merge_fuzz(plan: ShardPlan, outcome: PlanResult) -> "FuzzStats":
    """Fold per-shard ``FuzzStats.to_dict()`` payloads into one
    :class:`~repro.fuzz.driver.FuzzStats`.

    Counters sum, trap histograms sum, and failure records concatenate
    — shard order *is* iteration order because the plan splits the
    iteration range contiguously, so the merged failure list matches a
    sequential run record-for-record.
    """
    from repro.fuzz.driver import FuzzStats

    merged = FuzzStats(seed=plan.seed, configs=list(plan.params["configs"]),
                       temporal=plan.params.get("temporal", "off"))
    histogram: Counter = Counter()
    for payload in outcome.ordered_results(plan):
        if payload is None:
            continue
        shard = FuzzStats.from_dict(payload)
        merged.iterations += shard.iterations
        merged.programs += shard.programs
        merged.executions += shard.executions
        merged.clean_runs += shard.clean_runs
        merged.attack_runs += shard.attack_runs
        merged.attacks_injected += shard.attacks_injected
        merged.attacks_detectable += shard.attacks_detectable
        merged.attacks_detected += shard.attacks_detected
        merged.expected_evasions += shard.expected_evasions
        merged.evasions_confirmed += shard.evasions_confirmed
        merged.reseed_retries += shard.reseed_retries
        merged.timeouts += shard.timeouts
        histogram.update(shard.trap_histogram)
        merged.failures.extend(shard.failures)
    merged.trap_histogram = histogram
    merged.elapsed = outcome.wall_seconds
    return merged


def merge_resil(plan: ShardPlan, outcome: PlanResult) -> "CampaignResult":
    """Fold per-shard cell lists into one
    :class:`~repro.resil.matrix.CampaignResult`.

    Shards carry contiguous slices of the
    :func:`~repro.resil.matrix.enumerate_cells` order, so plain
    concatenation reproduces the sequential cell order exactly.
    """
    from repro.resil.matrix import CampaignResult, CellResult
    from repro.resil.policy import DEFAULT_POLICY, STRICT_POLICY

    params = plan.params
    policy = STRICT_POLICY if params["strict"] else DEFAULT_POLICY
    campaign = CampaignResult(
        seed=plan.seed, policy_name=policy.name,
        workloads=list(params["workloads"]),
        schemes=list(params["schemes"]), faults=list(params["faults"]))
    for payload in outcome.ordered_results(plan):
        if payload is None:
            continue
        campaign.cells.extend(CellResult.from_dict(cell)
                              for cell in payload["cells"])
    return campaign


def merge_juliet(plan: ShardPlan, outcome: PlanResult) -> "JulietReport":
    """Fold per-shard case verdicts into one
    :class:`~repro.juliet.runner.JulietReport`.

    Cases are regenerated deterministically on the merge side (they are
    a pure function of nothing but the generator code), so shard
    payloads only carry ``(case_index, trapped, trap)`` triples.  An
    armed plan's case list additionally contains the CWE-415/CWE-416
    lifetime families.
    """
    from repro.juliet.cases import generate_cases, generate_temporal_cases
    from repro.juliet.runner import CaseResult, JulietReport

    cases = generate_cases()
    if plan.params.get("temporal", "off") != "off":
        cases = cases + generate_temporal_cases()
    report = JulietReport()
    for payload in outcome.ordered_results(plan):
        if payload is None:
            continue
        for row in payload["cases"]:
            case = cases[row["case_index"]]
            report.results.append(CaseResult(
                case=case, trapped=row["trapped"], trap=row["trap"]))
    return report


def merge_bench(plan: ShardPlan, outcome: PlanResult) -> Dict[str, Any]:
    """Fold per-shard ``{cell_key: metrics}`` maps into one metrics
    mapping keyed ``<workload>/<config>``."""
    merged: Dict[str, Any] = {}
    for payload in outcome.ordered_results(plan):
        if payload is not None:
            merged.update(payload["cells"])
    return dict(sorted(merged.items()))


def merge_selftest(plan: ShardPlan, outcome: PlanResult
                   ) -> List[Optional[int]]:
    """The toy campaign's per-shard values in shard order."""
    return [payload["value"] if payload else None
            for payload in outcome.ordered_results(plan)]
