"""Deterministic retry with exponential backoff.

Transient harness failures — above all :class:`WorkloadTimeout` — are
retried a bounded number of times.  Two properties matter for a
reproduction harness:

* **Determinism**: a retried attempt must not silently re-run the same
  seed (a genuinely deterministic hang would just hang again) nor draw
  from global randomness (the campaign would stop being replayable).
  :func:`repro.par.seeds.derive_seed` (re-exported here) folds the
  attempt number into the base seed with the splitmix64 finalizer, so
  attempt *k* of seed *s* is a pure function of ``(s, k)``.
* **Bounded, predictable backoff**: delays grow as
  ``base_delay * 2**attempt`` (:func:`repro.par.seeds.backoff_delay`).
  Passing ``jitter_seed`` de-synchronizes concurrent retry loops with
  *seeded* jitter (:func:`repro.par.seeds.jittered_backoff`): the
  delay becomes a pure function of ``(jitter_seed, attempt)``, so two
  campaigns retrying in lockstep spread out while each one stays
  exactly replayable.  Jitter only moves when a retry runs, never what
  it computes.

Seed derivation and the backoff schedule live in
:mod:`repro.par.seeds` so the parallel campaign engine shares the
exact same sequences; this module keeps its historical names as
re-exports.
"""

from __future__ import annotations

import time
from typing import Callable, Optional

from repro.errors import WorkloadTimeout
from repro.par.seeds import backoff_delay, derive_seed, jittered_backoff

__all__ = ["backoff_delay", "call_with_retry", "derive_seed",
           "jittered_backoff"]


def call_with_retry(fn: Callable[[int], object], *,
                    attempts: int = 3,
                    base_delay: float = 0.1,
                    sleep: Optional[Callable[[float], None]] = None,
                    jitter_seed: Optional[int] = None,
                    on_retry: Optional[
                        Callable[[int, BaseException, float], None]] = None):
    """Call ``fn(attempt)`` until it succeeds or attempts are exhausted.

    ``fn`` receives the 0-based attempt number (so it can re-derive its
    seed via :func:`derive_seed`).  Only a transient failure, a
    :class:`~repro.errors.WorkloadTimeout`, is retried; everything else
    propagates immediately.  After the last attempt the final timeout
    propagates.

    ``jitter_seed`` (when given) draws each delay from
    :func:`jittered_backoff` instead of the plain schedule — the
    caller's seed keeps the jitter deterministic per call site.

    ``sleep`` is injectable for tests (defaults to :func:`time.sleep`);
    ``on_retry(attempt, exc, delay)`` observes each retry decision.
    """
    if attempts < 1:
        raise ValueError(f"attempts must be >= 1, got {attempts}")
    do_sleep = time.sleep if sleep is None else sleep
    for attempt in range(attempts):
        try:
            return fn(attempt)
        except WorkloadTimeout as exc:
            if attempt == attempts - 1:
                raise
            if jitter_seed is None:
                delay = backoff_delay(base_delay, attempt)
            else:
                delay = jittered_backoff(base_delay, attempt,
                                         jitter_seed)
            if on_retry is not None:
                on_retry(attempt, exc, delay)
            if delay > 0:
                do_sleep(delay)
    raise AssertionError("unreachable")
