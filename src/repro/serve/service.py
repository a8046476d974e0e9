"""The campaign service core: admission, scheduling, execution,
recovery.

Threading model
===============

The core is synchronous and lock-protected; asyncio exists only in the
HTTP front end (:mod:`repro.serve.server`), which pushes each request
into this layer via an executor.  One ``RLock`` guards all scheduler
and record state; campaign execution happens on a
``ThreadPoolExecutor`` (one thread per worker of the budget, since a
running job holds at least one worker), each thread driving
:func:`repro.par.engine.run_campaign_plan` with the job's checkpoint
directory, a per-job stop event, and a progress sink on the event bus.

Determinism under restart
=========================

A job's plan is a pure function of its persisted (fully resolved) spec,
so a restarted service rebuilds the identical plan — identical
fingerprint — and reuses the job's checkpoint directory.  Completed
shards restore from disk, the remainder re-runs, and the merge layer's
shard-order contract makes the final result byte-identical (timing
aside) to an uninterrupted run: killing the service mid-campaign is
indistinguishable from a slow campaign.

Shutdown is a drain, not an abort: the service-wide stop event flows
into every running pool, in-flight shards finish and checkpoint, and
interrupted jobs are parked back in ``queued`` so the next start
resumes them.
"""

from __future__ import annotations

import threading
import time
from collections import deque
from concurrent.futures import ThreadPoolExecutor
from typing import Any, Deque, Dict, List, Optional

from repro.errors import (
    CircuitOpen, JobNotCancellable, QueueFull, ReproError,
    ServiceUnavailable, UnknownJob,
)
from repro.obs.events import (
    BreakerEvent, Event, EventBus, JobEvent, QuarantineEvent,
    QueueRejectEvent, ShardDoneEvent, ShardRetryEvent, TraceContext,
)
from repro.obs.metrics import metrics_document
from repro.par.engine import run_campaign_plan
from repro.par.kinds import CAMPAIGN_KINDS
from repro.par.plan import ShardPlan
from repro.par.pool import PlanResult
from repro.serve.breaker import BreakerBoard
from repro.serve.jobs import (
    JOB_STATUSES, JobRecord, build_plan, new_record, validate_spec,
)
from repro.serve.scheduler import WeightedFairScheduler
from repro.serve.store import JobStore
from repro.serve.tenants import TenantQuota


class CampaignService:
    """Multi-tenant campaign execution over one shared worker budget."""

    def __init__(self, store_dir: str, *, workers_total: int = 2,
                 default_quota: Optional[TenantQuota] = None,
                 quotas: Optional[Dict[str, TenantQuota]] = None,
                 kinds: Optional[List[str]] = None,
                 bus: Optional[EventBus] = None, log=None,
                 events_tail: int = 4096,
                 breaker_cooldown: float = 2.0,
                 shard_timeout: Optional[float] = None):
        self.store = JobStore(store_dir)
        self.scheduler = WeightedFairScheduler(
            default_quota=default_quota, quotas=quotas)
        self.breakers = BreakerBoard(
            base_cooldown=breaker_cooldown,
            on_transition=self._on_breaker)
        self.workers_total = max(1, workers_total)
        #: wall-clock budget per shard attempt of every job (None: no
        #: budget); a deployment setting, not a job-spec parameter
        self.shard_timeout = shard_timeout
        self.allowed_kinds = tuple(kinds or CAMPAIGN_KINDS)
        self.bus = bus if bus is not None else EventBus()
        self.log = log or (lambda message: None)
        self._lock = threading.RLock()
        # a job marked running holds a worker, so one thread per worker
        # lets every running job execute at once
        self._executor = ThreadPoolExecutor(
            max_workers=self.workers_total,
            thread_name_prefix="repro-serve-job")
        self._records: Dict[str, JobRecord] = {}
        self._stops: Dict[str, threading.Event] = {}
        self._granted: Dict[str, int] = {}
        #: per-job correlated event ring (the ``GET /jobs/{id}/events``
        #: stream); each entry is an event dict with a monotonically
        #: increasing ``seq`` so bounded rings keep cursors valid
        self._events_tail = max(1, events_tail)
        self._job_events: Dict[str, Deque[Dict[str, Any]]] = {}
        self._job_seq: Dict[str, int] = {}
        self._free_workers = self.workers_total
        self._draining = False
        self._t0 = time.monotonic()
        self._recover()

    # -- events -------------------------------------------------------------

    def _now(self) -> float:
        return time.monotonic() - self._t0

    def _job_ctx(self, record: JobRecord) -> TraceContext:
        return TraceContext(tenant=record.tenant,
                            job_id=record.job_id)

    def _record_event(self, job_id: str, event: Event) -> None:
        with self._lock:
            ring = self._job_events.setdefault(
                job_id, deque(maxlen=self._events_tail))
            seq = self._job_seq.get(job_id, 0) + 1
            self._job_seq[job_id] = seq
            entry = event.to_dict()
            entry["seq"] = seq
            ring.append(entry)
            try:
                # spill beside the ring so cursors survive both ring
                # eviction and service restarts
                self.store.append_event(job_id, entry)
            except OSError as exc:
                self.log(f"[repro.serve] event spill degraded "
                         f"({job_id}): {exc}")

    def _on_breaker(self, tenant: str, state: str, reason: str) -> None:
        """BreakerBoard transition hook → typed observability event."""
        self.log(f"[repro.serve] breaker for tenant {tenant!r} -> "
                 f"{state}: {reason}")
        self.bus.emit(BreakerEvent(site=None, tenant=tenant,
                                   state=state, reason=reason,
                                   t=self._now(),
                                   ctx=TraceContext(tenant=tenant)))

    def _save(self, record: JobRecord, what: str) -> None:
        """Best-effort record persistence: a host IO failure (real or
        injected ENOSPC/EIO) degrades durability, never the job — the
        in-memory record stays authoritative and the write is logged."""
        try:
            self.store.save(record)
        except OSError as exc:
            self.log(f"[repro.serve] job record write degraded "
                     f"({what}, {record.job_id}): "
                     f"{type(exc).__name__}: {exc}")

    def _emit_job(self, record: JobRecord, status: str) -> None:
        event = JobEvent(
            site=None, job_id=record.job_id, tenant=record.tenant,
            campaign=record.kind, status=status, t=self._now(),
            ctx=self._job_ctx(record))
        self._record_event(record.job_id, event)
        self.bus.emit(event)

    # -- recovery -----------------------------------------------------------

    def _recover(self) -> None:
        """Re-admit every non-terminal persisted job on startup.

        ``running`` jobs from a killed instance demote to ``queued``;
        their checkpoints hold every shard completed before the kill,
        so re-execution resumes rather than restarts.  Recovery
        re-admission bypasses queue bounds — these jobs were admitted
        before the restart.
        """
        for record in sorted(self.store.load_all(),
                             key=lambda r: r.job_id):
            self._records[record.job_id] = record
            # resume per-job event numbering after the spill's high
            # water mark so restart never reissues a seq a client saw
            spilled_seq = self.store.last_event_seq(record.job_id)
            if spilled_seq:
                self._job_seq[record.job_id] = spilled_seq
            if record.terminal:
                continue
            if record.status != "queued" or record.cancel_requested:
                record.status = "queued"
                record.cancel_requested = False
                self._save(record, "recover")
            self.scheduler.submit(record, force=True)
            self._emit_job(record, "requeued")
            self.log(f"[repro.serve] recovered {record.job_id} "
                     f"({record.kind}, tenant {record.tenant}); "
                     f"resuming from checkpoint")
        with self._lock:
            self._pump()

    # -- admission ----------------------------------------------------------

    def submit(self, body: Any) -> JobRecord:
        """Validate and admit one job; returns the queued record.

        Raises typed :class:`~repro.errors.ServiceError` subclasses on
        every rejection path: bad spec (400), draining (503), tenant
        queue full (429 + Retry-After), circuit breaker open
        (429 + Retry-After).
        """
        tenant, kind, workers, params = validate_spec(
            body, allowed_kinds=self.allowed_kinds)
        plan = build_plan(kind, params, workers)
        with self._lock:
            if self._draining:
                self.bus.emit(QueueRejectEvent(
                    site=None, tenant=tenant, reason="draining",
                    t=self._now(), ctx=TraceContext(tenant=tenant)))
                raise ServiceUnavailable()
            try:
                self.breakers.admit(tenant)
            except CircuitOpen:
                self.bus.emit(QueueRejectEvent(
                    site=None, tenant=tenant, reason="breaker",
                    t=self._now(), ctx=TraceContext(tenant=tenant)))
                raise
            record = new_record(
                self.store.next_job_id(), tenant, kind, workers,
                params, plan.fingerprint(), len(plan.shards))
            try:
                self.scheduler.submit(record)
            except QueueFull:
                self.bus.emit(QueueRejectEvent(
                    site=None, tenant=tenant, reason="queue_full",
                    t=self._now(), ctx=TraceContext(tenant=tenant)))
                raise
            self._records[record.job_id] = record
            self._save(record, "submit")
            self._emit_job(record, "queued")
            self._pump()
        return record

    # -- dispatch -----------------------------------------------------------

    def _pump(self) -> None:
        """Hand queued jobs to the executor while worker budget lasts.
        Caller holds the lock."""
        while not self._draining and self._free_workers >= 1:
            record = self.scheduler.next_job()
            if record is None:
                return
            granted = min(record.workers, self._free_workers)
            self._free_workers -= granted
            self._granted[record.job_id] = granted
            self._stops[record.job_id] = threading.Event()
            record.status = "running"
            record.started = time.time()
            self._save(record, "dispatch")
            self._emit_job(record, "running")
            self._executor.submit(self._run_job, record, granted)

    def _progress_bus(self, record: JobRecord) -> EventBus:
        """A per-job bus whose sink folds shard events into the
        record's live progress counters and the job's correlated
        event ring (the ``GET /jobs/{id}/events`` stream)."""
        bus = EventBus()

        def sink(event) -> None:
            self._record_event(record.job_id, event)
            if isinstance(event, ShardDoneEvent) \
                    and event.status == "ok":
                record.progress["shards_done"] = \
                    record.progress.get("shards_done", 0) + 1
            elif isinstance(event, ShardRetryEvent):
                record.progress["retries"] = \
                    record.progress.get("retries", 0) + 1
            elif isinstance(event, QuarantineEvent):
                record.progress["quarantined"] = \
                    record.progress.get("quarantined", 0) + 1
            else:
                return
            with self._lock:
                self._save(record, "progress")
        bus.subscribe(sink)
        return bus

    def _run_job(self, record: JobRecord, granted: int) -> None:
        """Executor thread: run one campaign to a terminal (or
        drained) state."""
        stop = self._stops[record.job_id]
        try:
            plan = build_plan(record.kind, record.params,
                              record.workers)
            merged, outcome = run_campaign_plan(
                plan, jobs=granted,
                checkpoint_dir=self.store.checkpoint_dir(
                    record.job_id),
                shard_timeout=self.shard_timeout,
                bus=self._progress_bus(record), stop=stop,
                log=self.log, context=self._job_ctx(record),
                quarantine=True)
        except BaseException as exc:  # noqa: BLE001 — typed to client
            error = exc.to_dict() if isinstance(exc, ReproError) else {
                "type": type(exc).__name__, "message": str(exc),
                "fields": {}}
            self.breakers.record_failure(record.tenant, error["type"])
            self._finish(record, granted, status="failed", error=error)
            return
        self._on_executed(record, granted, plan, merged, outcome)

    def _on_executed(self, record: JobRecord, granted: int,
                     plan: ShardPlan, merged: Any,
                     outcome: PlanResult) -> None:
        record.progress["shards_done"] = \
            len(outcome.executed) + len(outcome.restored)
        record.progress["shards_restored"] = len(outcome.restored)
        if outcome.drained:
            if record.cancel_requested:
                self._finish(record, granted, status="cancelled")
            else:
                # Parked, not failed: the record goes back to queued so
                # the next service start resumes it from checkpoint.
                self._finish(record, granted, status="queued",
                             event="requeued")
            return
        # The body is read off the campaign table: the embedded
        # metrics document is the one the batch CLI writes for the same
        # plan, so it compares equal under the timing-insensitive
        # projection even across a kill and restart.  Pool accounting
        # and correlation ids ride beside it, never in it.
        kind = CAMPAIGN_KINDS[plan.kind]
        result: Dict[str, Any] = {
            "ok": kind.ok(merged) and outcome.ok,
            "summary": kind.summary(merged),
            "pool": outcome.utilization_metrics(),
            "correlation": self._job_ctx(record).to_dict(),
        }
        if kind.document is not None:
            result["metrics_document"] = kind.document(plan, merged)
        else:
            # a kind without a metrics document reports its merged
            # result as-is
            result["values"] = merged
        if outcome.quarantined:
            # poison shards are typed result records, not job failures:
            # the campaign completed around them — but the tenant's
            # breaker trips, because a quarantine means a full retry
            # budget proved the submitted work hostile
            result["quarantined"] = [q.to_dict()
                                     for q in outcome.quarantined]
            self.breakers.record_quarantine(
                record.tenant,
                f"{record.job_id} shard "
                f"{outcome.quarantined[0].shard_id}")
        if result["ok"]:
            if not outcome.quarantined:
                self.breakers.record_success(record.tenant)
            self._finish(record, granted, status="done",
                         result=result)
        else:
            error = None
            if outcome.failures:
                error = {"type": "ShardFailure",
                         "message": f"{len(outcome.failures)} shard(s) "
                                    f"exhausted their retry budget",
                         "fields": {"failures": [
                             failure.to_dict()
                             for failure in outcome.failures]}}
                self.breakers.record_failure(record.tenant,
                                             "ShardFailure")
            else:
                self.breakers.record_failure(record.tenant,
                                             "campaign not ok")
            self._finish(record, granted, status="failed",
                         result=result, error=error)

    def _finish(self, record: JobRecord, granted: int, *, status: str,
                result: Optional[Dict[str, Any]] = None,
                error: Optional[Dict[str, Any]] = None,
                event: Optional[str] = None) -> None:
        with self._lock:
            record.status = status
            record.result = result
            record.error = error
            if record.terminal:
                record.finished = time.time()
            self.scheduler.release(
                record.tenant,
                status if record.terminal else "requeued")
            self._free_workers += granted
            self._granted.pop(record.job_id, None)
            self._stops.pop(record.job_id, None)
            self._save(record, "finish")
            self._emit_job(record, event or status)
            self._pump()

    # -- queries ------------------------------------------------------------

    def get(self, job_id: str) -> JobRecord:
        with self._lock:
            record = self._records.get(job_id)
        if record is None:
            raise UnknownJob(job_id)
        return record

    def job_events(self, job_id: str,
                   after: int = 0) -> List[Dict[str, Any]]:
        """The job's correlated event stream (dicts with ``seq``,
        ``kind``, and ``ctx`` correlation ids), oldest first.

        ``after`` is a resume cursor: only events with ``seq > after``
        are returned, so a client polling the NDJSON endpoint sees each
        event exactly once.  The ring is bounded (``events_tail``), and
        every entry is also spilled to
        ``<store>/events/<job_id>.jsonl`` as it is recorded — a cursor
        older than the ring's oldest entry (ring eviction, or a service
        restart that emptied the ring) is served transparently from the
        spill, so clients never see artificial ``seq`` gaps.
        """
        self.get(job_id)    # raises UnknownJob for unknown ids
        with self._lock:
            ring = list(self._job_events.get(job_id, ()))
        entries = [entry for entry in ring if entry["seq"] > after]
        oldest = ring[0]["seq"] if ring else None
        if oldest is None or oldest > after + 1:
            spilled = self.store.load_events(job_id, after)
            if oldest is not None:
                spilled = [entry for entry in spilled
                           if entry["seq"] < oldest]
            entries = spilled + entries
        return entries

    def list_jobs(self, tenant: Optional[str] = None) -> List[JobRecord]:
        with self._lock:
            records = sorted(self._records.values(),
                             key=lambda r: r.job_id)
        if tenant is not None:
            records = [r for r in records if r.tenant == tenant]
        return records

    def cancel(self, job_id: str) -> JobRecord:
        """Cancel a queued job immediately, or request a running job's
        pool to drain (it lands in ``cancelled`` once in-flight shards
        finish)."""
        with self._lock:
            record = self._records.get(job_id)
            if record is None:
                raise UnknownJob(job_id)
            if record.terminal:
                raise JobNotCancellable(job_id, record.status)
            if record.status == "queued":
                self.scheduler.cancel_queued(job_id)
                record.status = "cancelled"
                record.finished = time.time()
                self._save(record, "cancel")
                self._emit_job(record, "cancelled")
                return record
            record.cancel_requested = True
            self._save(record, "cancel")
            stop = self._stops.get(job_id)
            if stop is not None:
                stop.set()
            return record

    def wait(self, job_id: str, timeout: float = 60.0) -> JobRecord:
        """Block until a job leaves ``running``/dispatch (tests and the
        smoke CLI); returns the record in whatever state it reached."""
        deadline = time.monotonic() + timeout
        while time.monotonic() < deadline:
            record = self.get(job_id)
            if record.terminal:
                return record
            time.sleep(0.02)
        return self.get(job_id)

    # -- health & metrics ---------------------------------------------------

    def healthz(self) -> Dict[str, Any]:
        """Service health: ``ok`` | ``degraded`` | ``draining``.

        ``degraded`` means the service is up but some tenant's circuit
        breaker is not closed; the ``breakers`` block carries the
        per-tenant detail (state, trip count, cooldown, reason) so a
        prober can tell *whose* work is being rejected.
        """
        with self._lock:
            counts = {status: 0 for status in JOB_STATUSES}
            for record in self._records.values():
                counts[record.status] = counts.get(record.status, 0) + 1
            if self._draining:
                status = "draining"
            elif self.breakers.degraded():
                status = "degraded"
            else:
                status = "ok"
            return {
                "status": status,
                "uptime_seconds": self._now(),
                "workers_total": self.workers_total,
                "workers_free": self._free_workers,
                "jobs": counts,
                "breakers": self.breakers.open_breakers(),
            }

    def metrics(self) -> Dict[str, Any]:
        """One schema-v2 metrics document describing the service.

        Besides the service-wide gauges, ``per_shard`` rolls the
        correlated event rings up per job and shard — event, retry, and
        completion counts keyed by the same (job, shard) ids every
        event stream and forensics bundle carries — so a scrape can be
        joined against ``GET /jobs/{id}/events`` without replaying it.
        """
        with self._lock:
            counts = {status: 0 for status in JOB_STATUSES}
            shards_done = 0
            for record in self._records.values():
                counts[record.status] = counts.get(record.status, 0) + 1
                shards_done += record.progress.get("shards_done", 0)
            per_shard: Dict[str, Any] = {}
            for job_id, ring in self._job_events.items():
                rollup: Dict[str, Dict[str, int]] = {}
                for entry in ring:
                    ctx = entry.get("ctx") or {}
                    shard_id = ctx.get("shard_id")
                    if shard_id is None:
                        continue
                    cell = rollup.setdefault(
                        str(shard_id),
                        {"events": 0, "done": 0, "retries": 0})
                    cell["events"] += 1
                    if entry["kind"] == "shard_done" \
                            and entry.get("status") == "ok":
                        cell["done"] += 1
                    elif entry["kind"] == "shard_retry":
                        cell["retries"] += 1
                if rollup:
                    per_shard[job_id] = rollup
            payload = {
                "uptime_seconds": self._now(),
                "draining": int(self._draining),
                "workers": {"total": self.workers_total,
                            "free": self._free_workers},
                "jobs": counts,
                "queue_depth": self.scheduler.depth(),
                "breakers_open": len(self.breakers.open_breakers()),
                "shards_done": shards_done,
                "tenants": self.scheduler.snapshot(),
                "per_shard": per_shard,
            }
        return metrics_document("serve", {"store": self.store.root},
                                payload,
                                labels={"component": "repro.serve"})

    # -- shutdown -----------------------------------------------------------

    def drain(self, wait: bool = True) -> None:
        """Stop admitting, drain running pools, park unfinished jobs.

        In-flight shards finish and checkpoint; running jobs whose
        pools drained go back to ``queued`` for the next start.  With
        ``wait=True`` (the default) this blocks until every executor
        thread has returned.
        """
        with self._lock:
            if self._draining:
                return
            self._draining = True
            for stop in self._stops.values():
                stop.set()
        self.log("[repro.serve] draining: in-flight shards finishing "
                 "and checkpointing")
        self._executor.shutdown(wait=wait)

