"""Multi-tenant campaign service: ``repro.serve``.

A long-running, stdlib-only HTTP service that accepts campaign job
specs of every kind in :data:`repro.par.kinds.CAMPAIGN_KINDS`,
validates them into deterministic
:class:`~repro.par.plan.ShardPlan`\\ s, and multiplexes them onto
one shared shard-worker budget with per-tenant quotas, weighted-fair
scheduling, and bounded-queue backpressure.  Jobs persist
through the fingerprinted checkpoint store: a killed service resumes
in-flight campaigns on restart, and the resumed results are
byte-identical (timing aside) to an uninterrupted run.

==============  ======================================================
module          role
==============  ======================================================
`jobs`          job specs: validation, defaults resolution, plan
                construction, the persisted :class:`JobRecord`
`tenants`       :class:`TenantQuota` / per-tenant runtime accounting
`scheduler`     stride-based weighted-fair dispatch + bounded-queue
                backpressure (:class:`~repro.errors.QueueFull`)
`store`         atomic on-disk job records + per-job checkpoint dirs
`service`       :class:`CampaignService` — admission, dispatch,
                execution threads, drain, crash recovery
`api`           transport-independent request routing; typed
                :class:`~repro.errors.ServiceError` -> HTTP mapping
`server`        the asyncio HTTP/1.1 front end
==============  ======================================================
"""

from repro.serve.jobs import (
    JOB_STATUSES, JobRecord, build_plan, validate_spec,
)
from repro.serve.tenants import TenantQuota, TenantState
from repro.serve.scheduler import STRIDE, WeightedFairScheduler
from repro.serve.store import JobStore
from repro.serve.service import CampaignService
from repro.serve.api import dispatch
from repro.serve.server import BackgroundServer, CampaignServer

__all__ = [
    "JOB_STATUSES", "JobRecord", "build_plan", "validate_spec",
    "TenantQuota", "TenantState",
    "STRIDE", "WeightedFairScheduler",
    "JobStore",
    "CampaignService",
    "dispatch",
    "BackgroundServer", "CampaignServer",
]
