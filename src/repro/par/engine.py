"""High-level entry points: execute a plan, merge it, resume a
checkpoint — the same calls for every campaign kind, which they look
up in :data:`repro.par.kinds.CAMPAIGN_KINDS`.  Every run of
``python -m repro.fuzz``, ``python -m repro.resil`` and
``python -m repro.par`` (through :mod:`repro.par.cli`), and every
campaign-service job, delegates to them.
"""

from __future__ import annotations

import json
import os
from typing import Any, Callable, Optional, Tuple

from repro.obs.events import EventBus, TraceContext
from repro.par.checkpoint import Checkpoint
from repro.par.kinds import campaign_kind
from repro.par.plan import ShardPlan
from repro.par.pool import PlanResult, run_plan


def _events_sink(path: str) -> Tuple[Callable, Callable]:
    """An obs-bus sink appending one JSON line per shard/steal event;
    returns ``(sink, close)``."""
    handle = open(path, "a")

    def sink(event) -> None:
        handle.write(json.dumps(event.to_dict(), sort_keys=True) + "\n")
        handle.flush()
    return sink, handle.close


def execute_plan(plan: ShardPlan, *, jobs: int,
                 checkpoint_dir: Optional[str] = None,
                 shard_timeout: Optional[float] = None,
                 shard_retries: int = 2, backoff_base: float = 0.05,
                 log=None, events_out: Optional[str] = None,
                 bus: Optional[EventBus] = None,
                 stop=None,
                 context: Optional[TraceContext] = None,
                 quarantine: bool = False, chaos=None) -> PlanResult:
    """Run one plan through the pool with checkpoint + event plumbing.

    The plan's parameters pass its kind's checks
    (:attr:`~repro.par.kinds.CampaignKind.checks`) before any worker
    starts, so a plan a checkpoint recorded or a planner built with a
    value the checks reject fails once, with the typed
    :class:`~repro.errors.InvalidJobSpec` naming the parameter.
    ``bus`` (when given) receives the shard/steal event stream in
    addition to the on-disk ``events.jsonl`` — the campaign service
    subscribes live progress counters this way.  ``stop`` requests a
    graceful drain; ``quarantine``/``chaos`` configure poison-shard
    dead-lettering and host-fault injection (see
    :func:`repro.par.pool.run_plan`).
    """
    kind = campaign_kind(plan.kind)
    for name, value in plan.params.items():
        check = kind.checks.get(name)
        if check is not None:
            check(name, value)
    checkpoint = Checkpoint(checkpoint_dir) if checkpoint_dir else None
    bus = bus if bus is not None else EventBus()
    events_path = events_out or (checkpoint.events_path
                                 if checkpoint else None)
    close = None
    if events_path:
        os.makedirs(os.path.dirname(events_path) or ".", exist_ok=True)
        sink, close = _events_sink(events_path)
        bus.subscribe(sink)
    try:
        return run_plan(plan, kind.runner,
                        jobs=jobs, shard_timeout=shard_timeout,
                        retries=shard_retries, backoff_base=backoff_base,
                        checkpoint=checkpoint, bus=bus, log=log,
                        stop=stop, context=context,
                        quarantine=quarantine, chaos=chaos)
    finally:
        if close is not None:
            close()


def run_campaign_plan(plan: ShardPlan, *, jobs: int = 1,
                      **options) -> Tuple[Any, PlanResult]:
    """Execute any campaign plan and merge it with its kind's
    ``merge``; returns ``(merged, plan_result)``.  ``options`` are
    :func:`execute_plan`'s."""
    outcome = execute_plan(plan, jobs=jobs, **options)
    return campaign_kind(plan.kind).merge(plan, outcome), outcome


def resume_checkpoint(checkpoint_dir: str, *, jobs: int, **options
                      ) -> Tuple[ShardPlan, Any, PlanResult]:
    """Resume any checkpointed campaign from its manifest.

    Returns ``(plan, merged_result, plan_result)`` where the merged
    result's type depends on the campaign kind.  Completed shards are
    restored from disk; pending/failed ones re-run.  ``options`` are
    :func:`execute_plan`'s.
    """
    checkpoint = Checkpoint(checkpoint_dir)
    if not checkpoint.exists():
        raise FileNotFoundError(
            f"no checkpoint manifest in {checkpoint_dir}")
    plan = checkpoint.load_plan()
    merged, outcome = run_campaign_plan(
        plan, jobs=jobs, checkpoint_dir=checkpoint_dir, **options)
    return plan, merged, outcome
