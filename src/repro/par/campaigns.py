"""Shard runners: the worker-side half of every campaign kind.

Each runner is a module-level function ``runner(shard_dict, attempt)``
→ JSON-able dict, referenced by ``"module:function"`` string from its
kind's :data:`~repro.par.kinds.CAMPAIGN_KINDS` record so worker
processes import it fresh (fork *and* spawn safe).  Runners must be
pure functions of the shard spec: the merge layer's byte-identical
guarantee assumes re-running a shard (crash recovery, checkpoint
resume) reproduces the same payload.  The ``attempt`` argument exists
for runners with *internal* non-determinism to reseed — the production
campaign runners deliberately ignore it (see
:mod:`repro.par.pool`); only the ``selftest`` runner uses it, to model
flaky work in the crash-recovery tests.
"""

from __future__ import annotations

import functools
import os
import time
from typing import Any, Dict, Optional, Tuple

from repro.par.seeds import derive_seed, splitmix64


# ---------------------------------------------------------------------------
# fuzz: a contiguous range of fuzzing iterations
# ---------------------------------------------------------------------------

def run_fuzz_shard(shard: Dict[str, Any], attempt: int
                   ) -> Dict[str, Any]:
    """Run iterations ``[start, start + count)`` of a fuzzing campaign.

    All seed derivation is *global* — the program of iteration *i* is a
    pure function of ``(campaign seed, i)`` — so the shard simply runs
    the existing sequential driver over its slice.  ``plant_bug`` is
    pre-resolved by the planner: only the shard containing the
    campaign's first iteration plants, matching the sequential driver's
    "first iteration only" rule.
    """
    del attempt     # determinism: a re-run must reproduce byte-for-byte
    from repro.fuzz.driver import run_fuzz

    params = shard["params"]
    start, count = shard["items"]
    stats = run_fuzz(
        count, seed=params["seed"], configs=params["configs"],
        start=start, clean=params["clean"], inject=params["inject"],
        corpus_dir=params["corpus_dir"], minimize=params["minimize"],
        max_attacks_per_program=params["max_attacks"],
        plant_bug=params["plant_bug"],
        log=lambda message: None,
        timeout_seconds=params["timeout_seconds"],
        retries=params["retries"],
        backoff_base=params["backoff_base"],
        engine=params.get("engine", "auto"),
        trace=shard.get("trace"),
        # planners record the policy only when armed
        temporal=params.get("temporal", "off"))
    return stats.to_dict()


# ---------------------------------------------------------------------------
# resil: a slice of the fault class x scheme x workload cell order
# ---------------------------------------------------------------------------

@functools.lru_cache(maxsize=1)
def _resil_runner(scale: int, timeout_seconds: Optional[float],
                  strict: bool, engine: str):
    """One :class:`~repro.resil.matrix.CampaignRunner` per worker
    process and runner parameters, so every shard a worker runs reuses
    its compiled programs and fault-free references — exactly what the
    sequential :meth:`~repro.resil.matrix.CampaignRunner.run` loop
    does across all of its cells."""
    from repro.resil.matrix import CampaignRunner
    from repro.resil.policy import DEFAULT_POLICY, STRICT_POLICY
    return CampaignRunner(
        scale=scale, timeout_seconds=timeout_seconds,
        policy=STRICT_POLICY if strict else DEFAULT_POLICY,
        engine=engine)


def run_resil_shard(shard: Dict[str, Any], attempt: int
                    ) -> Dict[str, Any]:
    """Run the resilience-matrix cells whose *global* indices are in
    ``shard['items']``.

    Cell *i*'s fault seed is ``derive_seed(campaign_seed, i + 1)`` —
    the exact expression of the sequential
    :meth:`~repro.resil.matrix.CampaignRunner.run` loop — so a cell's
    outcome is independent of how the campaign was sharded.
    """
    del attempt
    from repro.resil.matrix import enumerate_cells
    from repro.workloads import get as get_workload

    params = shard["params"]
    cells = enumerate_cells(tuple(params["faults"]),
                            tuple(params["schemes"]),
                            tuple(params["workloads"]))
    runner = _resil_runner(params["scale"], params["timeout_seconds"],
                           params["strict"], params.get("engine", "auto"))
    results = []
    for index in shard["items"]:
        fault, scheme, name = cells[index]
        cell = runner.run_cell(
            get_workload(name), scheme, fault,
            derive_seed(params["seed"], index + 1))
        results.append(cell.to_dict())
    return {"cells": results}


# ---------------------------------------------------------------------------
# juliet: a slice of the generated case list
# ---------------------------------------------------------------------------

def run_juliet_shard(shard: Dict[str, Any], attempt: int
                     ) -> Dict[str, Any]:
    """Run the Juliet-style cases whose indices are in
    ``shard['items']`` under the configured allocator."""
    del attempt
    from repro.compiler import CompilerOptions
    from repro.juliet.cases import generate_cases, generate_temporal_cases
    from repro.juliet.runner import run_case

    params = shard["params"]
    options = CompilerOptions.subheap() \
        if params.get("allocator") == "subheap" \
        else CompilerOptions.wrapped()
    # planners record the policy only when armed
    temporal = params.get("temporal", "off")
    cases = generate_cases()
    if temporal != "off":
        cases = cases + generate_temporal_cases()
    results = []
    for index in shard["items"]:
        verdict = run_case(cases[index], options, temporal=temporal)
        results.append({"case_index": index,
                        "trapped": verdict.trapped,
                        "trap": verdict.trap})
    return {"cases": results}


# ---------------------------------------------------------------------------
# bench: a slice of the (workload x config) product
# ---------------------------------------------------------------------------

def bench_cells(workloads: Tuple[str, ...],
                configs: Tuple[str, ...]) -> Tuple[Tuple[str, str], ...]:
    """The bench sweep's cell order (workload outer, config inner)."""
    return tuple((workload, config)
                 for workload in workloads
                 for config in configs)


def run_bench_shard(shard: Dict[str, Any], attempt: int
                    ) -> Dict[str, Any]:
    """Run the ``(workload, config)`` sweep cells whose indices are in
    ``shard['items']``; returns per-cell RunStats metrics keyed
    ``<workload>/<config>``."""
    del attempt
    from repro.eval.harness import run_workload
    from repro.obs.metrics import stats_to_dict
    from repro.workloads import get as get_workload

    params = shard["params"]
    cells = bench_cells(tuple(params["workloads"]),
                        tuple(params["configs"]))
    results: Dict[str, Any] = {}
    for index in shard["items"]:
        workload_name, config = cells[index]
        run = run_workload(get_workload(workload_name), config,
                           scale=params["scale"],
                           timeout_seconds=params["timeout_seconds"],
                           engine=params.get("engine", "auto"))
        results[f"{workload_name}/{config}"] = stats_to_dict(run.stats)
    return {"cells": results}


# ---------------------------------------------------------------------------
# selftest: deterministic work with scriptable failure modes (tests)
# ---------------------------------------------------------------------------

def run_selftest_shard(shard: Dict[str, Any], attempt: int
                       ) -> Dict[str, Any]:
    """Deterministic toy work plus scriptable failure modes.

    ``params['fail_shards']`` selects which shards misbehave, and
    ``params['mode']`` selects how:

    * ``raise`` — raise every attempt (→ typed failure after retries);
    * ``flaky`` — raise on attempts before ``succeed_attempt``;
    * ``crash`` — ``os._exit`` mid-shard (worker death, no traceback);
    * ``hang``  — sleep ``hang_seconds`` (wall-clock budget breach);
    * ``marker`` — raise while ``params['marker']`` exists on disk
      (models a transient environmental failure; lets resume tests
      fail a first run and succeed a second with an identical plan).

    ``params['sleep_seconds']`` (every shard, any mode) slows the work
    down without touching its value — the knob the drain and
    kill-mid-campaign tests use to land a signal between shards.
    """
    params = shard["params"]
    shard_id = shard["shard_id"]
    if params.get("sleep_seconds"):
        time.sleep(params["sleep_seconds"])
    if shard_id in params.get("fail_shards", []):
        mode = params.get("mode", "ok")
        if mode == "raise":
            raise RuntimeError(f"selftest shard {shard_id} raising "
                               f"(attempt {attempt})")
        if mode == "flaky" and attempt < params.get("succeed_attempt", 1):
            raise RuntimeError(f"selftest shard {shard_id} flaky "
                               f"(attempt {attempt})")
        if mode == "crash":
            os._exit(13)
        if mode == "hang":
            time.sleep(params.get("hang_seconds", 60.0))
        if mode == "marker" and os.path.exists(params["marker"]):
            raise RuntimeError(f"selftest shard {shard_id} marker "
                               f"present")
    value = 0
    for item in shard["items"]:
        value ^= splitmix64(shard["seed"] + item)
    return {"shard_id": shard_id, "value": value,
            "items": list(shard["items"]), "attempt": attempt}
