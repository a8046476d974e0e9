"""The multiprocessing worker pool behind every ``--jobs N`` flag.

Execution model
===============

There is one: every plan, at every ``jobs`` >= 1, runs in ``jobs``
worker processes, so a one-worker run gets the same wall-clock budgets
and crash recovery as a wide one.  The parent resolves the runner
reference before the first spawn, so a bad one is a typed
:class:`ShardRunnerError`.

The parent owns the schedule: it dispatches one shard at a time into
each worker's private task queue, so shard ownership is a parent-side
fact established at dispatch — never inferred from worker messages a
dying process could fail to send.  Each worker answers on its own
result pipe, which the parent waits on with
:func:`multiprocessing.connection.wait`.  No lock or channel is shared
between workers, so a worker killed mid-message (SIGKILL, OOM-kill)
can damage only its own channels, and both are replaced with it.

The plan assigns each shard a *preferred* worker slot (round-robin,
so a perfectly balanced plan maps onto static assignment), but any
idle worker is handed the next pending shard; when that worker is not the preferred slot the pool
emits a :class:`~repro.obs.events.StealEvent`.  Fast workers therefore
drain slow workers' backlogs automatically.

Crash recovery
==============

Three failure modes mark a shard *failed-retryable*:

* the runner **raises** — the worker reports the exception and stays
  alive;
* the worker **dies** (``os._exit``, segfault, OOM-kill) — detected by
  process liveness polling, and a replacement worker is spawned;
* the shard **exceeds its wall-clock budget** — the parent terminates
  the worker, spawns a replacement, and requeues.

A failed-retryable shard re-enters the queue up to ``retries`` times
with the deterministic exponential backoff shared with
:mod:`repro.resil.retry`, de-synchronized per shard by seeded jitter
(:func:`repro.par.seeds.jittered_backoff` keyed on the shard's derived
seed — fully replayable, never simultaneous).  Backoff is *scheduled*,
not slept: the parent keeps draining other shards while a requeued
shard waits out its delay.  A shard that exhausts its budget is
recorded as a typed :class:`ShardFailure` in ``PlanResult.failures``
instead of sinking the campaign — or, under ``quarantine=True`` (the
campaign service's setting), dead-lettered into
``PlanResult.quarantined``: the poison shard is excluded from the
merge, the rest of the campaign completes, and ``PlanResult.ok`` stays
true.

Host-fault posture
==================

Checkpoint writes are best-effort under real or injected IO failure
(ENOSPC, EIO): a failed persistence call is counted and logged, the
in-memory result survives, and the campaign completes — the checkpoint
merely goes stale, so a later resume re-runs the affected shard
deterministically.  A ``chaos`` injector
(:class:`repro.resil.chaos.HostFaultInjector`) can additionally kill
workers at seeded dispatch indices; the ordinary crash-recovery path
(respawn + requeue) absorbs those too.

Retries re-execute the *same* shard spec (same seed): a shard's output
must stay a pure function of its spec or the merge layer's
byte-identical guarantee dies.  Seed *derivation* on retry only happens
one level down, inside runners that own a cooperative timeout (the fuzz
driver's per-iteration watchdog) — never at the shard level.
"""

from __future__ import annotations

import importlib
import os
import queue
import signal
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Set, Tuple

from repro.obs.events import (
    ChaosEvent, EventBus, QuarantineEvent, ShardDoneEvent,
    ShardRetryEvent, ShardStartEvent, StealEvent, TraceContext,
)
from repro.par.checkpoint import Checkpoint
from repro.par.plan import ShardPlan, ShardSpec
from repro.par.seeds import jittered_backoff

#: how long the parent blocks on the result pipes per scheduling turn
_POLL_SECONDS = 0.05
#: how often an idle worker checks that its parent is still alive
_ORPHAN_POLL_SECONDS = 1.0


class ShardRunnerError(RuntimeError):
    """A shard runner reference could not be resolved."""


def install_drain_handler(stop, *, log: Optional[Callable[[str], None]]
                          = None) -> Callable[[], None]:
    """Install SIGTERM/SIGINT handlers that request a graceful drain.

    The first signal sets ``stop`` (any object with ``set()`` /
    ``is_set()``, typically a :class:`threading.Event`): the pool stops
    dispatching new shards, lets in-flight shards finish and
    checkpoint, and returns a :class:`PlanResult` with ``drained``
    set — instead of a ``KeyboardInterrupt`` killing a shard mid-write.
    A second signal falls through to ``KeyboardInterrupt`` for users
    who really mean *now*.

    Returns a zero-argument function restoring the previous handlers.
    Only callable from the main thread (a CPython ``signal``
    restriction); services running pools off-thread wire their own
    signal plumbing to the same ``stop`` event.
    """
    def handler(signum, frame):
        if stop.is_set():
            raise KeyboardInterrupt
        stop.set()
        if log is not None:
            log(f"[repro.par] drain requested "
                f"(signal {signal.Signals(signum).name}): finishing "
                f"in-flight shards and checkpointing; signal again to "
                f"abort immediately")

    previous = {signum: signal.signal(signum, handler)
                for signum in (signal.SIGINT, signal.SIGTERM)}

    def restore() -> None:
        for signum, old in previous.items():
            signal.signal(signum, old)
    return restore


def resolve_runner(runner_ref: str) -> Callable[[Dict[str, Any], int],
                                                Dict[str, Any]]:
    """Resolve a ``"module:function"`` reference to the callable.

    Runners are passed by reference, not by value, so worker processes
    (including ``spawn``-start ones) can import them — the only
    pickling a task needs is its JSON-scalar shard dict.
    """
    module_name, _, func_name = runner_ref.partition(":")
    if not module_name or not func_name:
        raise ShardRunnerError(
            f"runner reference {runner_ref!r} is not 'module:function'")
    try:
        module = importlib.import_module(module_name)
        return getattr(module, func_name)
    except (ImportError, AttributeError) as exc:
        raise ShardRunnerError(
            f"cannot resolve runner {runner_ref!r}: {exc}") from exc


@dataclass
class ShardFailure:
    """A shard that exhausted its retry budget — a typed campaign
    result, not an exception: the rest of the campaign still merges.

    Which list of :class:`PlanResult` holds the record is the verdict:
    ``failures`` sink the campaign; ``quarantined`` (poison shards
    dead-lettered under ``quarantine=True``, persisted as
    ``quarantine-<id>.json`` in the checkpoint and never re-run on
    resume) do not."""

    shard_id: int
    reason: str          #: 'error' | 'timeout' | 'crash'
    attempts: int
    detail: str = ""

    def to_dict(self) -> Dict[str, Any]:
        return {"shard_id": self.shard_id, "reason": self.reason,
                "attempts": self.attempts, "detail": self.detail}

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "ShardFailure":
        return cls(shard_id=data["shard_id"], reason=data["reason"],
                   attempts=data["attempts"],
                   detail=data.get("detail", ""))


@dataclass
class WorkerStats:
    """Per-worker-slot utilization accounting."""

    worker: int
    shards_done: int = 0
    steals: int = 0
    busy_seconds: float = 0.0
    respawns: int = 0


@dataclass
class PlanResult:
    """Everything one pool run produced."""

    results: Dict[int, Dict[str, Any]] = field(default_factory=dict)
    failures: List[ShardFailure] = field(default_factory=list)
    #: poison shards dead-lettered under ``quarantine=True`` — typed
    #: verdicts, excluded from the merge, not failures
    quarantined: List[ShardFailure] = field(default_factory=list)
    workers: List[WorkerStats] = field(default_factory=list)
    wall_seconds: float = 0.0
    executed: List[int] = field(default_factory=list)
    restored: List[int] = field(default_factory=list)
    retries: int = 0
    steals: int = 0
    #: checkpoint writes that failed on host IO errors (ENOSPC, EIO)
    #: and were degraded to in-memory-only results
    io_errors: int = 0
    #: the run stopped early on a drain request; unfinished shards
    #: stay pending in the checkpoint and re-run on resume
    drained: bool = False

    @property
    def ok(self) -> bool:
        return not self.failures

    def ordered_results(self, plan: ShardPlan
                        ) -> List[Optional[Dict[str, Any]]]:
        """Shard results in ``shard_id`` order (None for failed shards)
        — the input shape the merge layer expects."""
        return [self.results.get(shard.shard_id)
                for shard in plan.shards]

    def utilization_metrics(self) -> Dict[str, Any]:
        """Schema-v2 metrics fragment describing pool efficiency."""
        wall = self.wall_seconds or 1e-9
        return {
            "shards_executed": len(self.executed),
            "shards_restored": len(self.restored),
            "shard_failures": len(self.failures),
            "shards_quarantined": len(self.quarantined),
            "shard_retries": self.retries,
            "steals": self.steals,
            "io_errors": self.io_errors,
            "drained": int(self.drained),
            "wall_seconds": self.wall_seconds,
            "workers": {
                str(w.worker): {
                    "shards_done": w.shards_done,
                    "steals": w.steals,
                    "busy_seconds": w.busy_seconds,
                    "utilization": w.busy_seconds / wall,
                    "respawns": w.respawns,
                }
                for w in self.workers},
        }

    def summary(self) -> str:
        lines = [f"repro.par: {len(self.executed)} shards executed, "
                 f"{len(self.restored)} restored from checkpoint, "
                 f"{self.retries} retries, {self.steals} steals, "
                 f"{len(self.failures)} failed"
                 + (f", {len(self.quarantined)} quarantined"
                    if self.quarantined else "")
                 + (f", {self.io_errors} degraded checkpoint writes"
                    if self.io_errors else "")
                 + f" ({self.wall_seconds:.1f}s)"
                 + (" [drained: remaining shards left pending]"
                    if self.drained else "")]
        wall = self.wall_seconds or 1e-9
        for w in self.workers:
            lines.append(
                f"  worker {w.worker}: {w.shards_done} shards, "
                f"busy {w.busy_seconds:.1f}s "
                f"({100.0 * w.busy_seconds / wall:.0f}%), "
                f"{w.steals} steals"
                + (f", {w.respawns} respawns" if w.respawns else ""))
        for failure in self.failures:
            lines.append(f"  FAILED shard {failure.shard_id} "
                         f"({failure.reason} after {failure.attempts} "
                         f"attempts): {failure.detail}")
        for q in self.quarantined:
            lines.append(f"  QUARANTINED shard {q.shard_id} "
                         f"({q.reason} after {q.attempts} attempts): "
                         f"{q.detail}")
        return "\n".join(lines)


# ---------------------------------------------------------------------------
# Worker side
# ---------------------------------------------------------------------------

def _worker_main(worker_id: int, runner_ref: str, task_queue,
                 result_pipe, parent: int) -> None:
    """Worker loop: execute dispatched tasks until the ``None``
    sentinel.

    Scheduling is entirely parent-side: each worker has a private task
    queue the parent dispatches into one shard at a time, so ownership
    is known at dispatch — a worker that dies can never take a claimed
    shard's identity with it (there is no claim message to lose).  A
    runner that raises is reported as an ``error`` message and the
    worker lives on to take the next task.  A worker whose parent (pid
    ``parent``) was killed (SIGKILL, OOM-kill) exits instead of waiting
    forever.

    A forked worker inherits its parent's signal wakeup fd (asyncio's
    self-pipe in the campaign service) and Python signal handlers (a
    CLI's drain handler).  Both are reset, so the SIGTERM that ends a
    timed-out worker kills it at once and never reaches the parent's
    event loop.  SIGINT is ignored: a terminal's Ctrl-C drains the
    parent, and in-flight shards run to completion.
    """
    signal.set_wakeup_fd(-1)
    signal.signal(signal.SIGTERM, signal.SIG_DFL)
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    runner = resolve_runner(runner_ref)
    while True:
        try:
            task = task_queue.get(timeout=_ORPHAN_POLL_SECONDS)
        except queue.Empty:
            if os.getppid() != parent:
                return
            continue
        if task is None:
            return
        shard_dict, attempt = task
        shard_id = shard_dict["shard_id"]
        try:
            message = ("done", shard_id, worker_id, attempt,
                       runner(shard_dict, attempt))
        except BaseException as exc:  # noqa: BLE001 — reported, retried
            message = ("error", shard_id, worker_id, attempt,
                       f"{type(exc).__name__}: {exc}")
        result_pipe.send(message)


# ---------------------------------------------------------------------------
# Parent side
# ---------------------------------------------------------------------------

@dataclass
class _Running:
    shard: ShardSpec
    attempt: int
    worker: int
    started: float


class _Pool:
    """One pool run: parent-side scheduling state."""

    def __init__(self, plan: ShardPlan, runner_ref: str, *, jobs: int,
                 shard_timeout: Optional[float], retries: int,
                 backoff_base: float, checkpoint: Optional[Checkpoint],
                 bus: Optional[EventBus],
                 log: Optional[Callable[[str], None]],
                 stop=None, context: Optional[TraceContext] = None,
                 quarantine: bool = False, chaos=None):
        self.plan = plan
        self.runner_ref = runner_ref
        self.jobs = max(1, jobs)
        self.shard_timeout = shard_timeout
        self.retries = max(0, retries)
        self.backoff_base = backoff_base
        self.checkpoint = checkpoint
        self.bus = bus
        self.log = log or (lambda message: None)
        self.stop = stop
        self.context = context
        self.quarantine = quarantine
        self.chaos = chaos
        self.preferred: Dict[int, int] = {}
        self.result = PlanResult(
            workers=[WorkerStats(worker=i) for i in range(self.jobs)])

    # -- events -------------------------------------------------------------

    def _emit(self, event) -> None:
        if self.bus is not None:
            self.bus.emit(event)

    def _ctx(self, shard: ShardSpec) -> Optional[TraceContext]:
        """Shard-level correlation: the job-level context refined with
        this shard's id and derived seed."""
        if self.context is None:
            return None
        return self.context.with_shard(shard.shard_id, shard.seed)

    def _task_dict(self, shard: ShardSpec) -> Dict[str, Any]:
        """The dict handed to the runner.  Correlation rides along as a
        ``trace`` key injected at dispatch time — never stored in the
        plan, so fingerprints and checkpoints stay context-free."""
        task = shard.to_dict()
        ctx = self._ctx(shard)
        if ctx is not None:
            task["trace"] = ctx.to_dict()
        return task

    def _now(self) -> float:
        return time.monotonic() - self._t0

    def _persist(self, action: Callable[[], Any], what: str) -> None:
        """Best-effort checkpoint write.

        A host IO failure (real or injected ENOSPC/EIO) degrades
        persistence, never the campaign: the in-memory result
        survives, the write is counted and logged, and the checkpoint
        merely goes stale — a later resume re-runs the affected shard
        deterministically.  Non-IO failures (a torn-write crash, a
        manifest mismatch) still propagate: those mean the process is
        supposed to die.
        """
        try:
            action()
        except OSError as exc:
            self.result.io_errors += 1
            self.log(f"[repro.par] checkpoint write degraded ({what}): "
                     f"{type(exc).__name__}: {exc}; result kept "
                     f"in memory")

    def _chaos_kill(self, shard: ShardSpec, worker: int) -> bool:
        """Consult the chaos injector at dispatch; emits a
        :class:`ChaosEvent` when the schedule fires."""
        if self.chaos is None:
            return False
        injection = self.chaos.fire(
            "worker_kill", op="dispatch",
            detail=f"shard {shard.shard_id} on worker {worker}")
        if injection is None:
            return False
        self._emit(ChaosEvent(site=None, fault=injection.fault,
                              op=injection.op, index=injection.index,
                              detail=injection.detail,
                              ctx=self._ctx(shard)))
        return True

    # -- outcome handling ---------------------------------------------------

    def _complete(self, shard: ShardSpec, attempt: int, worker: int,
                  seconds: float, payload: Dict[str, Any]) -> None:
        sid = shard.shard_id
        self.result.results[sid] = payload
        self.result.executed.append(sid)
        stats = self.result.workers[worker]
        stats.shards_done += 1
        stats.busy_seconds += seconds
        self._emit(ShardDoneEvent(site=None, shard_id=sid,
                                  worker=worker, attempt=attempt,
                                  t=self._now(), status="ok",
                                  seconds=seconds,
                                  ctx=self._ctx(shard)))
        if self.checkpoint is not None:
            self._persist(
                lambda: self.checkpoint.record_result(
                    sid, attempt + 1, payload),
                f"record_result shard {sid}")

    def _fail(self, shard: ShardSpec, attempt: int, worker: int,
              reason: str, detail: str, seconds: float) -> None:
        """Terminal failure: retries exhausted.  Under
        ``quarantine=True`` the record is dead-lettered into
        ``quarantined`` instead, which the campaign carries without
        failing."""
        sid = shard.shard_id
        self.result.workers[worker].busy_seconds += seconds
        self._emit(ShardDoneEvent(site=None, shard_id=sid,
                                  worker=worker, attempt=attempt,
                                  t=self._now(), status=reason,
                                  seconds=seconds,
                                  ctx=self._ctx(shard)))
        record = ShardFailure(shard_id=sid, reason=reason,
                              attempts=attempt + 1, detail=detail)
        if self.quarantine:
            self.result.quarantined.append(record)
            self._emit(QuarantineEvent(site=None, shard_id=sid,
                                       attempts=attempt + 1,
                                       reason=reason, t=self._now(),
                                       detail=detail,
                                       ctx=self._ctx(shard)))
            if self.checkpoint is not None:
                self._persist(
                    lambda: self.checkpoint.record_quarantine(
                        sid, attempt + 1, reason, detail),
                    f"record_quarantine shard {sid}")
            self.log(f"[repro.par] shard {sid} QUARANTINED ({reason}) "
                     f"after {attempt + 1} attempts: {detail}")
            return
        self.result.failures.append(record)
        if self.checkpoint is not None:
            self._persist(
                lambda: self.checkpoint.record_failure(
                    sid, attempt + 1, reason, detail),
                f"record_failure shard {sid}")
        self.log(f"[repro.par] shard {sid} FAILED ({reason}) after "
                 f"{attempt + 1} attempts: {detail}")

    def _started(self, shard: ShardSpec, attempt: int,
                 worker: int) -> None:
        sid = shard.shard_id
        self._emit(ShardStartEvent(site=None, shard_id=sid,
                                   worker=worker, attempt=attempt,
                                   t=self._now(), ctx=self._ctx(shard)))
        preferred = self.preferred.get(sid, worker)
        if worker != preferred:
            self.result.steals += 1
            self.result.workers[worker].steals += 1
            self._emit(StealEvent(site=None, shard_id=sid,
                                  worker=worker, preferred=preferred,
                                  t=self._now(), ctx=self._ctx(shard)))
        if self.checkpoint is not None:
            self._persist(
                lambda: self.checkpoint.mark_running(sid, attempt),
                f"mark_running shard {sid}")

    # -- execution -----------------------------------------------------------

    def run(self) -> PlanResult:
        """Parent-side scheduling: each worker has a private task queue
        the parent dispatches into one shard at a time.

        Ownership is therefore known at dispatch, never inferred from
        worker messages — a worker that dies (``os._exit``, segfault,
        OOM-kill) cannot silently lose a claimed shard, because there is
        no claim message to lose.  Work stealing falls out of the
        scheduler: an idle worker is handed the next pending shard even
        when its preferred slot is busy.
        """
        import multiprocessing as mp
        from multiprocessing.connection import wait
        todo = self._plan_order()
        if not todo:        # every shard was settled by the checkpoint
            return self.result
        # A bad reference fails here, typed, instead of as one crash per
        # worker; forked workers also inherit the runner's imports.
        resolve_runner(self.runner_ref)
        method = "fork" if "fork" in mp.get_all_start_methods() \
            else "spawn"
        ctx = mp.get_context(method)
        self._t0 = time.monotonic()

        task_queues: List[Any] = [None] * self.jobs
        #: the parent's read end of each worker's result pipe; None
        #: once it reported end-of-file, until the worker is respawned
        result_pipes: List[Any] = [None] * self.jobs
        workers: List[Any] = [None] * self.jobs

        def spawn(worker_id: int) -> None:
            # A fresh task queue and result pipe per (re)spawn: a
            # killed worker may have died holding the old queue's lock
            # or part-way through a message on the old pipe.
            task_queues[worker_id] = ctx.Queue()
            if result_pipes[worker_id] is not None:
                result_pipes[worker_id].close()
            reader, writer = ctx.Pipe(duplex=False)
            process = ctx.Process(
                target=_worker_main,
                args=(worker_id, self.runner_ref,
                      task_queues[worker_id], writer, os.getpid()),
                daemon=True)
            process.start()
            writer.close()   # the worker holds the write end
            result_pipes[worker_id] = reader
            workers[worker_id] = process

        total = len(todo)
        pending: List[Tuple[ShardSpec, int]] = [(s, 0) for s in todo]
        #: shards waiting out a backoff delay: (ready_time, shard, attempt)
        delayed: List[Tuple[float, ShardSpec, int]] = []
        running: Dict[int, _Running] = {}       # worker_id -> in flight
        idle: List[int] = list(range(self.jobs))
        resolved: Set[int] = set()
        current_attempt: Dict[int, int] = {s.shard_id: 0 for s in todo}

        for worker_id in range(self.jobs):
            spawn(worker_id)

        def dispatch() -> None:
            while pending and idle:
                shard, attempt = pending.pop(0)
                preferred = self.preferred.get(shard.shard_id, idle[0])
                worker = preferred if preferred in idle else idle[0]
                idle.remove(worker)
                current_attempt[shard.shard_id] = attempt
                running[worker] = _Running(
                    shard=shard, attempt=attempt, worker=worker,
                    started=time.monotonic())
                task_queues[worker].put((self._task_dict(shard),
                                         attempt))
                self._started(shard, attempt, worker)
                if self._chaos_kill(shard, worker):
                    # SIGKILL the worker right after dispatch: the
                    # ordinary dead-worker sweep detects it, counts a
                    # crash, respawns the slot, and requeues the
                    # shard — the chaos fault rides the normal
                    # crash-recovery path.
                    workers[worker].kill()

        def retry_or_fail(shard: ShardSpec, attempt: int, worker: int,
                          reason: str, detail: str,
                          seconds: float) -> None:
            if attempt >= self.retries:
                self._fail(shard, attempt, worker, reason, detail,
                           seconds)
                resolved.add(shard.shard_id)
                return
            delay = jittered_backoff(self.backoff_base, attempt,
                                     shard.seed)
            self.result.retries += 1
            # Invalidate in-flight messages from the failed attempt
            # *now* (not at re-dispatch time): a "done" racing with a
            # terminate must not double-complete the shard.
            current_attempt[shard.shard_id] = attempt + 1
            self.result.workers[worker].busy_seconds += seconds
            self._emit(ShardRetryEvent(
                site=None, shard_id=shard.shard_id, worker=worker,
                attempt=attempt, t=self._now(), reason=reason,
                delay=delay, ctx=self._ctx(shard)))
            self.log(f"[repro.par] shard {shard.shard_id} {reason} "
                     f"(attempt {attempt + 1}); requeued after "
                     f"{delay:.2f}s backoff")
            delayed.append((time.monotonic() + delay, shard,
                            attempt + 1))

        def respawn(worker_id: int) -> None:
            self.result.workers[worker_id].respawns += 1
            spawn(worker_id)
            if worker_id not in idle:
                idle.append(worker_id)

        try:
            while len(resolved) < total:
                # a drain request stops dispatch; in-flight shards run
                # to completion (and checkpoint), then the loop exits
                # with the remainder left pending for a resume
                stopping = self.stop is not None and self.stop.is_set()
                if stopping and not running:
                    self.result.drained = True
                    break
                if not stopping:
                    # release shards whose backoff elapsed, then hand
                    # work to every idle worker
                    now = time.monotonic()
                    for item in [d for d in delayed if d[0] <= now]:
                        delayed.remove(item)
                        pending.append((item[1], item[2]))
                    dispatch()

                # drain every worker's pending message
                for reader in wait([r for r in result_pipes
                                    if r is not None],
                                   timeout=_POLL_SECONDS):
                    try:
                        message = reader.recv()
                    except (EOFError, OSError):
                        # the worker died; the liveness sweep below
                        # respawns it with a fresh pipe
                        result_pipes[result_pipes.index(reader)] = None
                        reader.close()
                        continue
                    tag, sid, worker, attempt, payload = message
                    run = running.get(worker)
                    live = (run is not None
                            and run.shard.shard_id == sid
                            and run.attempt == attempt
                            and sid not in resolved
                            and attempt == current_attempt.get(sid))
                    # A stale message (from an attempt already timed
                    # out and re-dispatched) must not touch idle
                    # state: its worker was respawned by the handler
                    # that invalidated it.
                    if live:
                        running.pop(worker)
                        idle.append(worker)
                        seconds = time.monotonic() - run.started
                        if tag == "done":
                            self._complete(run.shard, attempt, worker,
                                           seconds, payload)
                            resolved.add(sid)
                        else:   # "error": runner raised, worker lives
                            retry_or_fail(run.shard, attempt, worker,
                                          "error", payload, seconds)

                # enforce wall-clock budgets
                if self.shard_timeout is not None:
                    now = time.monotonic()
                    for worker_id in [
                            w for w, r in running.items()
                            if now - r.started > self.shard_timeout]:
                        run = running.pop(worker_id)
                        process = workers[worker_id]
                        process.terminate()
                        process.join(5.0)
                        if process.is_alive():
                            process.kill()
                            process.join(5.0)
                        retry_or_fail(
                            run.shard, run.attempt, worker_id,
                            "timeout",
                            f"exceeded {self.shard_timeout:g}s shard "
                            f"budget", now - run.started)
                        respawn(worker_id)

                # detect dead workers (crashed mid-shard)
                for worker_id, process in enumerate(workers):
                    if process.is_alive():
                        continue
                    run = running.pop(worker_id, None)
                    if run is not None:
                        retry_or_fail(
                            run.shard, run.attempt, worker_id, "crash",
                            f"worker {worker_id} died "
                            f"(exitcode {process.exitcode})",
                            time.monotonic() - run.started)
                    respawn(worker_id)
        finally:
            for worker_id, process in enumerate(workers):
                try:
                    task_queues[worker_id].put(None)
                except (ValueError, OSError):
                    pass
            for process in workers:
                process.join(2.0)
                if process.is_alive():
                    process.terminate()
                    process.join(2.0)
            for task_queue in task_queues:
                task_queue.close()
            for reader in result_pipes:
                if reader is not None:
                    reader.close()

        self.result.wall_seconds = time.monotonic() - self._t0
        return self.result

    # -- helpers ------------------------------------------------------------

    def _plan_order(self) -> List[ShardSpec]:
        """Shards still to execute, with round-robin preferred slots.

        Restored results and previously quarantined shards are both
        settled: a dead-lettered poison shard is a recorded verdict a
        resume must not re-run.
        """
        settled = set(self.result.results)
        settled.update(q.shard_id for q in self.result.quarantined)
        todo = [shard for shard in self.plan.shards
                if shard.shard_id not in settled]
        for position, shard in enumerate(todo):
            self.preferred[shard.shard_id] = position % self.jobs
        return todo


def run_plan(plan: ShardPlan, runner_ref: str, *, jobs: int = 1,
             shard_timeout: Optional[float] = None, retries: int = 2,
             backoff_base: float = 0.05,
             checkpoint: Optional[Checkpoint] = None,
             bus: Optional[EventBus] = None,
             log: Optional[Callable[[str], None]] = None,
             stop=None,
             context: Optional[TraceContext] = None,
             quarantine: bool = False, chaos=None) -> PlanResult:
    """Execute ``plan`` in ``max(1, jobs)`` worker processes (see the
    module docstring); returns a :class:`PlanResult`.  An unresolvable
    ``runner_ref`` raises :class:`ShardRunnerError`.

    ``checkpoint`` (when given) is opened against the plan: shards it
    already holds results for are *restored* instead of re-run, and
    every completion/failure is persisted as it happens, so the run can
    be killed and resumed at shard granularity.

    ``quarantine=True`` dead-letters poison shards (retry budget
    exhausted) into ``PlanResult.quarantined`` instead of
    ``failures``: ``PlanResult.ok`` stays true and the merge excludes
    them.  ``chaos`` (a
    :class:`repro.resil.chaos.HostFaultInjector`) arms seeded host
    faults — worker kills at dispatch plus whatever the injector does
    to persistence writes.

    ``stop`` (a :class:`threading.Event` or anything with ``is_set``)
    requests a graceful drain: no new shards are dispatched, in-flight
    shards finish and checkpoint, and the result comes back with
    ``drained=True`` — pair with :func:`install_drain_handler` for
    clean SIGTERM/SIGINT behaviour.

    ``context`` (a :class:`~repro.obs.events.TraceContext`, typically
    minted by :mod:`repro.serve`) makes every shard event carry
    (tenant, job, shard, seed) correlation ids and rides into each
    runner as a dispatch-time ``trace`` key on the shard dict.  It is
    execution-time only: plans, fingerprints, and checkpoints never see
    it, so a correlated run resumes against an uncorrelated
    checkpoint (and vice versa) byte-identically.
    """
    pool = _Pool(plan, runner_ref, jobs=jobs,
                 shard_timeout=shard_timeout, retries=retries,
                 backoff_base=backoff_base, checkpoint=checkpoint,
                 bus=bus, log=log, stop=stop, context=context,
                 quarantine=quarantine, chaos=chaos)
    if checkpoint is not None:
        for shard_id in sorted(checkpoint.open(plan)):
            pool.result.results[shard_id] = \
                checkpoint.load_result(shard_id)
            pool.result.restored.append(shard_id)
        for record in checkpoint.quarantined():
            pool.result.quarantined.append(
                ShardFailure.from_dict(record))
    return pool.run()
