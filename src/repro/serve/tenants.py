"""Per-tenant quotas and runtime accounting for the campaign service.

A tenant is an admission-control identity, not an authentication one:
the service trusts the ``tenant`` field of the job spec and uses it to
bound how much of the shared shard pool any one submitter can consume —
a bounded submission queue (backpressure), a cap on concurrently
running jobs, and a weight that sets its share of the scheduler's
weighted-fair rotation.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Any, Deque, Dict


@dataclass(frozen=True)
class TenantQuota:
    """Admission limits for one tenant.

    ``weight`` is the stride-scheduling share: a weight-2 tenant is
    dispatched twice as often as a weight-1 tenant under contention.
    ``retry_after`` is the hint (seconds) a 429 response carries.
    """

    weight: int = 1
    max_queued: int = 8
    max_running: int = 2
    retry_after: float = 1.0

    def __post_init__(self) -> None:
        if self.weight < 1:
            raise ValueError(f"weight must be >= 1, got {self.weight}")
        if self.max_queued < 1 or self.max_running < 1:
            raise ValueError("max_queued and max_running must be >= 1")


class TenantState:
    """One tenant's live scheduler state plus lifetime counters."""

    __slots__ = ("name", "quota", "queue", "running", "pass_value",
                 "submitted", "rejected", "completed", "failed",
                 "cancelled")

    def __init__(self, name: str, quota: TenantQuota):
        self.name = name
        self.quota = quota
        self.queue: Deque[Any] = deque()
        self.running = 0
        #: stride-scheduling virtual time; the eligible tenant with the
        #: lowest pass value dispatches next
        self.pass_value = 0.0
        self.submitted = 0
        self.rejected = 0
        self.completed = 0
        self.failed = 0
        self.cancelled = 0

    @property
    def queue_full(self) -> bool:
        return len(self.queue) >= self.quota.max_queued

    @property
    def eligible(self) -> bool:
        """Has queued work and headroom to run more."""
        return bool(self.queue) and self.running < self.quota.max_running

    def counters(self) -> Dict[str, float]:
        """Schema-v2 numeric fragment for the /metrics document."""
        return {
            "queued": len(self.queue),
            "running": self.running,
            "submitted": self.submitted,
            "rejected": self.rejected,
            "completed": self.completed,
            "failed": self.failed,
            "cancelled": self.cancelled,
            "weight": self.quota.weight,
            "pass_value": self.pass_value,
        }
