"""Host-level chaos harness: seeded crash/IO fault schedules with
self-healing campaigns.

Where :mod:`repro.resil.faults` perturbs the *guest* (pointer tags,
metadata records, MAC bits), this module perturbs the *host* the
harness itself runs on: worker processes die at seeded dispatch
indices, atomic JSON writes raise ENOSPC/EIO or tear between the tmp
write and the rename, stale ``.tmp`` debris appears, and persisted
shard results rot on disk.  The campaign's claim is the same one the
guest-fault matrix makes, one level up: **no silent divergence**.
Every chaos cell either

* **converges** — after bounded crash/resume rounds the run's shard
  payloads are byte-identical (timing aside) to a fault-free reference
  run of the same plan;
* **quarantines** — a shard the chaos schedule hounded past its retry
  budget is dead-lettered as a typed
  :class:`~repro.par.pool.ShardFailure` record in
  ``PlanResult.quarantined`` and every other shard still matches the
  reference; or
* **fails typed** — the run ends in a :class:`~repro.errors.ReproError`
  / :class:`OSError` the harness *reports* rather than absorbs.

A cell that completes with silently different payloads is **diverged**
— the one verdict the gate (``python -m repro.resil chaos --check``)
refuses.

Determinism
===========

A :class:`ChaosSchedule` is a pure function: fault class ``f`` fires at
its ``index``-th opportunity iff
``splitmix64((seed ^ salt(f)) + (index + 1) * GOLDEN_GAMMA)`` lands on
the schedule's period.  The :class:`HostFaultInjector` keeps one
monotonic opportunity counter per fault class **across resume rounds**,
and each class stops firing after ``max_injections`` — so a campaign
under chaos is (a) replayable from its seed and (b) guaranteed to run
out of faults, which is what makes the crash/resume loop self-healing
rather than livelocked.

The injector plugs into two seams:

* :func:`repro.hostio.atomic_write_json` consults it on every
  persistence write (``before_write`` / ``torn_write`` /
  ``after_write``) — arm with :func:`repro.hostio.inject_faults`;
* the :mod:`repro.par` pool consults it at shard dispatch
  (``worker_kill``) — arm with ``run_plan(..., chaos=injector)``.
"""

from __future__ import annotations

import errno as errno_mod
import os
from collections import Counter
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.errors import InjectedIOFault, ReproError
from repro.hostio import TMP_SUFFIX, inject_faults
from repro.par.seeds import GOLDEN_GAMMA, derive_seed, splitmix64

_MASK64 = (1 << 64) - 1

#: every host fault class the harness can inject
HOST_FAULT_CLASSES: Tuple[str, ...] = (
    "worker_kill",      # SIGKILL a worker right after shard dispatch
    "torn_write",       # crash between tmp write and os.replace
    "enospc",           # ENOSPC raised from the atomic-write open
    "eio",              # EIO raised from the atomic-write open
    "stale_tmp",        # drop .tmp debris beside a persisted file
    "corrupt_result",   # bit-flip a persisted shard result payload
)

#: cell verdicts, in decreasing order of health
CELL_VERDICTS = ("converged", "quarantined", "typed_failure", "diverged")


def _fault_salt(fault: str) -> int:
    """Per-fault-class salt: fold the class name through splitmix64 so
    distinct classes sample independent fire sequences from one seed."""
    salt = len(fault)
    for byte in fault.encode("utf-8"):
        salt = splitmix64((salt ^ (byte * GOLDEN_GAMMA)) & _MASK64)
    return salt


@dataclass(frozen=True)
class ChaosSchedule:
    """A pure, seeded description of *when* each fault class fires.

    ``fires(fault, index)`` is a function of nothing but
    ``(seed, fault, index)``: the ``index``-th opportunity for ``fault``
    fires iff the derived splitmix64 word is ``0 mod period`` — on
    average one injection per ``period`` opportunities, at
    seed-reproducible positions.  ``max_injections`` bounds firings
    *per fault class* (enforced by the injector, which owns the
    counters); the schedule itself stays stateless.
    """

    seed: int
    faults: Tuple[str, ...] = HOST_FAULT_CLASSES
    period: int = 3
    max_injections: int = 2

    def __post_init__(self) -> None:
        unknown = [f for f in self.faults if f not in HOST_FAULT_CLASSES]
        if unknown:
            raise ValueError(
                f"unknown host fault class(es): {', '.join(unknown)}; "
                f"expected a subset of {HOST_FAULT_CLASSES}")
        if self.period < 1:
            raise ValueError(f"period must be >= 1, got {self.period}")
        if self.max_injections < 0:
            raise ValueError(f"max_injections must be >= 0, got "
                             f"{self.max_injections}")

    def fires(self, fault: str, index: int) -> bool:
        if fault not in self.faults:
            return False
        word = splitmix64(
            ((self.seed ^ _fault_salt(fault))
             + (index + 1) * GOLDEN_GAMMA) & _MASK64)
        return word % self.period == 0

    def to_config(self) -> Dict[str, Any]:
        """Flat, string/number-only rendering for metrics-document
        config blocks."""
        return {"seed": self.seed, "faults": ",".join(self.faults),
                "period": self.period,
                "max_injections": self.max_injections}


@dataclass(frozen=True)
class Injection:
    """One fault that actually fired."""

    fault: str
    op: str         #: persistence op tag or 'dispatch'
    index: int      #: the opportunity index it fired at
    detail: str


class HostFaultInjector:
    """Stateful executor of a :class:`ChaosSchedule`.

    One injector spans *all* resume rounds of a chaos cell: opportunity
    counters and fired counts are never reset, so the bounded injection
    budget is global to the cell and the crash/resume loop provably
    drains it.  Implements the :mod:`repro.hostio` seam
    (``before_write`` / ``torn_write`` / ``after_write``) and the
    pool's ``fire('worker_kill', ...)`` probe.
    """

    def __init__(self, schedule: ChaosSchedule):
        self.schedule = schedule
        self._indices: Counter = Counter()
        self._fired: Counter = Counter()
        self.injections: List[Injection] = []

    def fire(self, fault: str, *, op: str = "",
             detail: str = "") -> Optional[Injection]:
        """Consume one opportunity for ``fault``; returns the
        :class:`Injection` iff the schedule fires and budget remains."""
        index = self._indices[fault]
        self._indices[fault] += 1
        if self._fired[fault] >= self.schedule.max_injections:
            return None
        if not self.schedule.fires(fault, index):
            return None
        self._fired[fault] += 1
        injection = Injection(fault=fault, op=op, index=index,
                              detail=detail)
        self.injections.append(injection)
        return injection

    def counts(self) -> Dict[str, int]:
        """Fired injections per fault class (zero-count classes
        included, so matrices stay shape-stable)."""
        return {fault: self._fired.get(fault, 0)
                for fault in self.schedule.faults}

    def exhausted(self) -> bool:
        """True once every scheduled fault class hit its budget."""
        return all(self._fired.get(fault, 0)
                   >= self.schedule.max_injections
                   for fault in self.schedule.faults)

    # -- repro.hostio seam ---------------------------------------------------

    def before_write(self, op: str, path: str) -> None:
        if self.fire("enospc", op=op, detail=path) is not None:
            raise InjectedIOFault(
                f"chaos: ENOSPC writing {path}", fault="enospc", op=op,
                path=path, errno_code=errno_mod.ENOSPC)
        if self.fire("eio", op=op, detail=path) is not None:
            raise InjectedIOFault(
                f"chaos: EIO writing {path}", fault="eio", op=op,
                path=path, errno_code=errno_mod.EIO)

    def torn_write(self, op: str, path: str) -> bool:
        return self.fire("torn_write", op=op, detail=path) is not None

    def after_write(self, op: str, path: str) -> None:
        if self.fire("stale_tmp", op=op, detail=path) is not None:
            # Debris from "some other" interrupted write: must end in
            # .tmp (so sweeps collect it) but must not collide with the
            # live tmp name a concurrent atomic write would use.
            with open(path + ".stale" + TMP_SUFFIX, "w") as handle:
                handle.write('{"torn": ')
        if op == "shard_result" \
                and self.fire("corrupt_result", op=op,
                              detail=path) is not None:
            with open(path, "r+b") as handle:
                data = handle.read()
                mid = len(data) // 2
                handle.seek(mid)
                handle.write(bytes([data[mid] ^ 0x01]))


# ---------------------------------------------------------------------------
# Chaos campaign: plan cells, run each under a schedule, gate on
# convergence
# ---------------------------------------------------------------------------

#: campaign kinds a chaos cell can exercise (the poison cell is always
#: appended — it proves quarantine keeps a hostile shard typed)
CHAOS_KINDS = ("fuzz", "juliet", "selftest")
DEFAULT_KINDS = ("fuzz", "juliet")

FUZZ_CONFIGS = ("baseline", "wrapped")
POISON_SHARD = 3


def _plan_for_cell(kind: str, seed: int, work_dir: str,
                   tag: str) -> "ShardPlan":
    """The (small, CI-sized) campaign plan one chaos cell runs.  A pure
    function of ``(kind, seed)`` modulo the scratch directories."""
    from repro.par.kinds import plan_fuzz, plan_juliet, plan_selftest

    if kind == "fuzz":
        return plan_fuzz(6, seed, configs=list(FUZZ_CONFIGS),
                         corpus_dir=os.path.join(work_dir,
                                                 f"corpus-{tag}"),
                         plant_bug=False, jobs=2, shard_size=2)
    if kind == "juliet":
        return plan_juliet(seed=seed, jobs=2, shard_size=0)
    if kind == "selftest":
        # the poison cell: one shard raises on every attempt
        return plan_selftest(total=8, seed=seed, shards=8,
                             fail_shards=[POISON_SHARD], mode="raise")
    raise ValueError(f"no chaos cell for campaign kind {kind!r}")


@dataclass
class CellOutcome:
    """Everything one chaos cell produced."""

    name: str
    verdict: str                #: one of CELL_VERDICTS
    rounds: int = 0             #: chaos-run rounds (1 = no crash)
    crashes: int = 0            #: rounds ended by a typed crash
    io_errors: int = 0          #: degraded checkpoint writes (final round)
    restored: int = 0           #: shards restored on the final resume
    swept_tmp: int = 0          #: stale .tmp files swept across rounds
    quarantined: List[Dict[str, Any]] = field(default_factory=list)
    injections: Dict[str, int] = field(default_factory=dict)
    diffs: List[str] = field(default_factory=list)
    failure: str = ""           #: typed failure detail, if any

    def metrics(self) -> Dict[str, Any]:
        """Numbers-only fragment for the chaos matrix payload."""
        row: Dict[str, Any] = {v: int(self.verdict == v)
                               for v in CELL_VERDICTS}
        row.update({
            "rounds": self.rounds, "crashes": self.crashes,
            "io_errors": self.io_errors, "restored": self.restored,
            "swept_tmp": self.swept_tmp,
            "quarantined_shards": len(self.quarantined),
            "diff_lines": len(self.diffs),
            "injections": dict(self.injections),
            "injections_total": sum(self.injections.values()),
        })
        return row


def _masked(payloads: List[Optional[Dict[str, Any]]],
            mask: set) -> List[Optional[Dict[str, Any]]]:
    return [None if index in mask else payload
            for index, payload in enumerate(payloads)]


def _comparable(kind: str, payloads: List[Optional[Dict[str, Any]]]
                ) -> List[Optional[Dict[str, Any]]]:
    """Project shard payloads down to their content for comparison.

    The selftest runner deliberately records which ``attempt`` it
    succeeded on (the flaky-mode crash-recovery tests read it), and a
    chaos worker kill retries an innocent shard — making that field
    scheduling-dependent, like wall-clock.  Its content is ``value``;
    drop ``attempt`` the way :func:`canonical_metrics` drops timing.
    """
    if kind != "selftest":
        return payloads
    return [None if payload is None
            else {key: value for key, value in payload.items()
                  if key != "attempt"}
            for payload in payloads]


def run_chaos_cell(kind: str, seed: int, *, work_dir: str,
                   schedule: ChaosSchedule, jobs: int = 2,
                   retries: int = 2,
                   log: Callable[[str], None] = lambda m: None
                   ) -> CellOutcome:
    """Run one chaos cell: fault-free reference, then the same plan
    under ``schedule`` with bounded crash/resume rounds, then classify.

    The resume loop is the self-healing claim made executable: a round
    that dies of an injected crash (a torn write, an unguarded injected
    IO error during checkpoint open) simply resumes
    against the same checkpoint; because the injector's budget spans
    rounds, the schedule eventually runs dry and a round completes.
    """
    from repro.hostio import sweep_stale_tmp
    from repro.par.checkpoint import Checkpoint
    from repro.par.kinds import campaign_kind
    from repro.par.merge import diff_documents
    from repro.par.pool import run_plan

    name = f"{kind}-poison" if kind == "selftest" else kind
    runner = campaign_kind(kind).runner

    # -- fault-free reference ------------------------------------------------
    ref_plan = _plan_for_cell(kind, seed, work_dir, f"{name}-ref")
    reference = run_plan(ref_plan, runner, jobs=jobs, retries=retries,
                         backoff_base=0.0, quarantine=True)
    ref_payloads = reference.ordered_results(ref_plan)
    ref_quarantined = {q.shard_id for q in reference.quarantined}

    # -- chaos-armed run with bounded resume rounds ---------------------------
    plan = _plan_for_cell(kind, seed, work_dir, name)
    ckpt_dir = os.path.join(work_dir, f"ckpt-{name}")
    injector = HostFaultInjector(schedule)
    outcome = CellOutcome(name=name, verdict="typed_failure")
    # every crash round consumes at least the injection that caused it,
    # so the budget bounds the loop; +2 covers the first and the final
    # clean round
    max_rounds = (len(schedule.faults) * schedule.max_injections) + 2
    result = None
    for round_index in range(max_rounds):
        outcome.rounds = round_index + 1
        outcome.swept_tmp += sweep_stale_tmp(ckpt_dir)
        try:
            with inject_faults(injector):
                result = run_plan(
                    plan, runner, jobs=jobs, retries=retries,
                    backoff_base=0.0,
                    checkpoint=Checkpoint(ckpt_dir),
                    quarantine=True, chaos=injector)
        except (ReproError, OSError) as exc:
            outcome.crashes += 1
            outcome.failure = f"{type(exc).__name__}: {exc}"
            log(f"[repro.chaos] {name}: round {round_index + 1} "
                f"crashed typed ({outcome.failure}); resuming")
            result = None
            continue
        break
    outcome.injections = injector.counts()

    if result is None:
        # injections bounded ==> unreachable unless a real bug keeps
        # crashing the run; surface it typed rather than diverged
        log(f"[repro.chaos] {name}: no clean round in {max_rounds} "
            f"attempts; last failure: {outcome.failure}")
        return outcome

    outcome.io_errors = result.io_errors
    outcome.restored = len(result.restored)
    outcome.quarantined = [q.to_dict() for q in result.quarantined]
    outcome.failure = ""

    # -- classification -------------------------------------------------------
    ref_payloads = _comparable(kind, ref_payloads)
    chaos_payloads = _comparable(kind, result.ordered_results(plan))
    diffs = diff_documents(ref_payloads, chaos_payloads)
    if not diffs and {q.shard_id for q in result.quarantined} \
            == ref_quarantined:
        outcome.verdict = "converged"
        return outcome
    # tolerate *typed* quarantine divergence: shards the schedule
    # hounded past their retry budget may be dead-lettered — every
    # other shard must still match the reference byte-for-byte
    extra = {q.shard_id for q in result.quarantined} - ref_quarantined
    masked_diffs = diff_documents(_masked(ref_payloads, extra),
                                  chaos_payloads)
    if extra and not masked_diffs:
        outcome.verdict = "quarantined"
        return outcome
    outcome.verdict = "diverged"
    outcome.diffs = diffs[:20]
    return outcome


def run_chaos_campaign(*, seed: int = 0,
                       kinds: Tuple[str, ...] = DEFAULT_KINDS,
                       faults: Tuple[str, ...] = HOST_FAULT_CLASSES,
                       period: int = 3, max_injections: int = 2,
                       jobs: int = 2, work_dir: str = "chaos-work",
                       log: Callable[[str], None] = lambda m: None
                       ) -> Dict[str, Any]:
    """Run the chaos matrix: one cell per campaign kind plus the
    selftest poison cell; returns the schema-v2 chaos matrix document.

    The matrix's ``ok`` criterion — zero ``diverged`` cells — is the
    whole harness's contract: under seeded host faults every campaign
    either converges to its fault-free reference or surfaces a typed
    failure/quarantine.
    """
    from repro.obs.metrics import metrics_document

    os.makedirs(work_dir, exist_ok=True)
    cells = list(kinds) + ["selftest"]
    outcomes: List[CellOutcome] = []
    for index, kind in enumerate(cells):
        cell_seed = derive_seed(seed, index + 1)
        schedule = ChaosSchedule(seed=derive_seed(cell_seed, 1),
                                 faults=tuple(faults), period=period,
                                 max_injections=max_injections)
        log(f"[repro.chaos] cell {kind} (seed {cell_seed:#x}): "
            f"running reference + chaos rounds")
        outcome = run_chaos_cell(kind, cell_seed, work_dir=work_dir,
                                 schedule=schedule, jobs=jobs, log=log)
        log(f"[repro.chaos] cell {outcome.name}: {outcome.verdict} "
            f"after {outcome.rounds} round(s), "
            f"{sum(outcome.injections.values())} injection(s), "
            f"{outcome.crashes} crash(es)")
        outcomes.append(outcome)

    totals = {verdict: sum(1 for o in outcomes if o.verdict == verdict)
              for verdict in CELL_VERDICTS}
    payload: Dict[str, Any] = {
        "cells": {o.name: o.metrics() for o in outcomes},
        "totals": {
            **totals,
            "cells": len(outcomes),
            "rounds": sum(o.rounds for o in outcomes),
            "crashes": sum(o.crashes for o in outcomes),
            "injections": sum(sum(o.injections.values())
                              for o in outcomes),
            "quarantined_shards": sum(len(o.quarantined)
                                      for o in outcomes),
        },
    }
    config = {"seed": seed, "kinds": ",".join(cells), "jobs": jobs,
              "faults": ",".join(faults), "period": period,
              "max_injections": max_injections}
    return metrics_document("chaos", config, payload)


def check_matrix(doc: Dict[str, Any]) -> List[str]:
    """The chaos gate: return violations (empty = pass).

    * no cell diverged (zero silent divergence);
    * every cell carries exactly one verdict;
    * totals are consistent with the cells.
    """
    violations: List[str] = []
    metrics = doc.get("metrics", {})
    cells = metrics.get("cells", {})
    totals = metrics.get("totals", {})
    for name, row in sorted(cells.items()):
        flags = [v for v in CELL_VERDICTS if row.get(v)]
        if len(flags) > 1:
            violations.append(f"{name}: multiple verdicts {flags}")
        if not flags:
            violations.append(f"{name}: no verdict recorded")
        if row.get("diverged"):
            violations.append(
                f"{name}: DIVERGED — {row.get('diff_lines', 0)} "
                f"difference(s) vs the fault-free reference")
    for verdict in CELL_VERDICTS:
        recomputed = sum(1 for row in cells.values()
                         if row.get(verdict))
        if totals.get(verdict) != recomputed:
            violations.append(
                f"totals.{verdict}: {totals.get(verdict)} != "
                f"recomputed {recomputed}")
    if totals.get("cells") != len(cells):
        violations.append(f"totals.cells: {totals.get('cells')} != "
                          f"{len(cells)}")
    return violations


# ---------------------------------------------------------------------------
# CLI: python -m repro.resil chaos
# ---------------------------------------------------------------------------

def main(argv=None) -> int:
    import argparse

    parser = argparse.ArgumentParser(
        prog="python -m repro.resil chaos",
        description="Host-fault chaos campaign: run small campaigns "
                    "under seeded crash/IO fault schedules and gate on "
                    "convergence with a fault-free reference.")
    parser.add_argument("--seed", "-s", type=int, default=0,
                        help="campaign master seed (default 0)")
    parser.add_argument("--kinds", type=str,
                        default=",".join(DEFAULT_KINDS),
                        help="comma-separated campaign kinds "
                             f"(available: {', '.join(DEFAULT_KINDS)}; "
                             "a selftest poison cell is always added)")
    parser.add_argument("--faults", type=str,
                        default=",".join(HOST_FAULT_CLASSES),
                        help="comma-separated host fault classes "
                             f"(available: "
                             f"{', '.join(HOST_FAULT_CLASSES)})")
    parser.add_argument("--jobs", "-j", type=int, default=2,
                        help="worker processes per cell (default 2)")
    parser.add_argument("--period", type=int, default=3,
                        help="average opportunities between injections "
                             "(default 3)")
    parser.add_argument("--max-injections", type=int, default=2,
                        help="injection budget per fault class "
                             "(default 2)")
    parser.add_argument("--work-dir", type=str, default="chaos-work",
                        metavar="DIR",
                        help="scratch directory for checkpoints and "
                             "corpora (default chaos-work)")
    parser.add_argument("--out", type=str, metavar="JSON",
                        help="write the chaos matrix as a repro.obs "
                             "metrics document")
    parser.add_argument("--check", action="store_true",
                        help="enforce the gate: exit non-zero unless "
                             "every cell converged or surfaced a typed "
                             "failure/quarantine")
    parser.add_argument("--quiet", "-q", action="store_true",
                        help="suppress per-cell progress lines")
    args = parser.parse_args(argv)

    kinds = tuple(k.strip() for k in args.kinds.split(",") if k.strip())
    unknown = [k for k in kinds if k not in DEFAULT_KINDS]
    if unknown:
        parser.error(f"unknown campaign kind(s): {', '.join(unknown)}")
    faults = tuple(f.strip() for f in args.faults.split(",")
                   if f.strip())
    unknown = [f for f in faults if f not in HOST_FAULT_CLASSES]
    if unknown:
        parser.error(f"unknown host fault class(es): "
                     f"{', '.join(unknown)}")

    log = (lambda message: None) if args.quiet else print
    doc = run_chaos_campaign(
        seed=args.seed, kinds=kinds, faults=faults, period=args.period,
        max_injections=args.max_injections, jobs=args.jobs,
        work_dir=args.work_dir, log=log)

    totals = doc["metrics"]["totals"]
    print(f"repro.chaos: {totals['cells']} cells — "
          f"{totals['converged']} converged, "
          f"{totals['quarantined']} quarantined, "
          f"{totals['typed_failure']} typed failures, "
          f"{totals['diverged']} diverged "
          f"({totals['injections']} injections, "
          f"{totals['crashes']} crash/resume rounds)")

    if args.out:
        from repro.obs.metrics import write_metrics
        path = write_metrics(args.out, doc)
        print(f"chaos matrix written to {path}")

    violations = check_matrix(doc)
    if violations:
        for violation in violations:
            print(f"repro.chaos: GATE: {violation}")
        return 1
    if args.check:
        print("repro.chaos: gate passed — zero silent divergence")
    return 0


if __name__ == "__main__":
    import sys
    sys.exit(main())
