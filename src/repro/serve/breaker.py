"""Per-tenant circuit breakers for the campaign service.

A tenant whose jobs keep failing — or whose campaign just dead-lettered
a poison shard — stops being allowed to hammer the queue: its breaker
opens, submissions bounce with a typed
:class:`~repro.errors.CircuitOpen` (HTTP 429 + ``Retry-After``), and
``/healthz`` reports the service ``degraded`` until the breaker closes
again.  The state machine is the classic three-state one:

* ``closed`` — normal operation; consecutive job failures are counted,
  and hitting :data:`FAILURE_THRESHOLD` (or a single quarantine, which
  is a stronger signal: the shard *already* exhausted a retry budget)
  opens the breaker;
* ``open`` — submissions rejected until the cooldown elapses; the
  cooldown doubles on every consecutive trip (capped at
  :data:`MAX_COOLDOWN`) so a persistently poisonous tenant backs off
  exponentially;
* ``half_open`` — after cooldown, exactly one probe job is admitted;
  its success closes the breaker, its failure re-opens it with a
  doubled cooldown.

Time is ``time.monotonic``; nothing here sleeps or threads.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional

from repro.errors import CircuitOpen

#: breaker states, healthiest first
BREAKER_STATES = ("closed", "open", "half_open")
#: consecutive job failures that open a closed breaker
FAILURE_THRESHOLD = 3
#: cap on the doubling cooldown, seconds
MAX_COOLDOWN = 120.0


@dataclass
class TenantBreaker:
    """One tenant's breaker state."""

    tenant: str
    state: str = "closed"
    failures: int = 0           #: consecutive failures while closed
    trips: int = 0              #: consecutive opens (drives cooldown)
    opened_at: float = 0.0
    cooldown: float = 0.0
    reason: str = ""
    probing: bool = False       #: the half-open probe is in flight

    def to_dict(self) -> Dict[str, object]:
        return {"tenant": self.tenant, "state": self.state,
                "failures": self.failures, "trips": self.trips,
                "cooldown": self.cooldown, "reason": self.reason}


class BreakerBoard:
    """All tenants' breakers plus the transition log hook.

    ``on_transition(tenant, state, reason)`` fires on every state
    change — the service turns these into
    :class:`~repro.obs.events.BreakerEvent` records.
    """

    def __init__(self, *, base_cooldown: float = 2.0,
                 on_transition: Optional[
                     Callable[[str, str, str], None]] = None):
        self.base_cooldown = base_cooldown
        self.on_transition = on_transition
        self._tenants: Dict[str, TenantBreaker] = {}

    def _breaker(self, tenant: str) -> TenantBreaker:
        if tenant not in self._tenants:
            self._tenants[tenant] = TenantBreaker(tenant=tenant)
        return self._tenants[tenant]

    def _transition(self, breaker: TenantBreaker, state: str,
                    reason: str) -> None:
        breaker.state = state
        breaker.reason = reason
        if self.on_transition is not None:
            self.on_transition(breaker.tenant, state, reason)

    def _trip(self, breaker: TenantBreaker, reason: str) -> None:
        breaker.trips += 1
        breaker.cooldown = min(
            MAX_COOLDOWN, self.base_cooldown * (2 ** (breaker.trips - 1)))
        breaker.opened_at = time.monotonic()
        breaker.failures = 0
        breaker.probing = False
        self._transition(breaker, "open", reason)

    # -- admission -----------------------------------------------------------

    def admit(self, tenant: str) -> None:
        """Gate one submission; raises :class:`CircuitOpen` when the
        tenant's breaker is open (or half-open with the probe already
        taken).  An elapsed cooldown moves open → half_open and admits
        the caller as the probe."""
        breaker = self._breaker(tenant)
        if breaker.state == "closed":
            return
        now = time.monotonic()
        if breaker.state == "open":
            remaining = breaker.opened_at + breaker.cooldown - now
            if remaining > 0:
                raise CircuitOpen(tenant, retry_after=max(0.1, remaining),
                                  reason=breaker.reason)
            self._transition(breaker, "half_open",
                             "cooldown elapsed; probing")
        # half_open: exactly one probe at a time
        if breaker.probing:
            raise CircuitOpen(tenant, retry_after=max(
                0.1, breaker.cooldown), reason="probe in flight")
        breaker.probing = True

    # -- outcomes ------------------------------------------------------------

    def record_success(self, tenant: str) -> None:
        breaker = self._breaker(tenant)
        breaker.failures = 0
        breaker.probing = False
        if breaker.state != "closed":
            breaker.trips = 0
            self._transition(breaker, "closed", "probe succeeded")

    def record_failure(self, tenant: str, reason: str = "") -> None:
        breaker = self._breaker(tenant)
        if breaker.state == "half_open":
            self._trip(breaker, f"probe failed: {reason}"
                       if reason else "probe failed")
            return
        if breaker.state == "open":
            return
        breaker.failures += 1
        if breaker.failures >= FAILURE_THRESHOLD:
            self._trip(breaker,
                       f"{breaker.failures} consecutive failures"
                       + (f": {reason}" if reason else ""))

    def record_quarantine(self, tenant: str, detail: str = "") -> None:
        """A quarantined shard trips immediately: the pool already
        burned a full retry budget proving the work is poison."""
        breaker = self._breaker(tenant)
        if breaker.state == "open":
            return
        self._trip(breaker, "shard quarantined"
                   + (f": {detail}" if detail else ""))

    # -- introspection --------------------------------------------------------

    def state(self, tenant: str) -> str:
        breaker = self._tenants.get(tenant)
        return breaker.state if breaker is not None else "closed"

    def open_breakers(self) -> List[Dict[str, object]]:
        """Every tenant not in ``closed`` — the detail block
        ``/healthz`` exposes while degraded."""
        return [breaker.to_dict()
                for tenant, breaker in sorted(self._tenants.items())
                if breaker.state != "closed"]

    def degraded(self) -> bool:
        return any(breaker.state != "closed"
                   for breaker in self._tenants.values())
