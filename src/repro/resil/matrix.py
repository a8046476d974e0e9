"""The resilience campaign: fault class × scheme → outcome matrix.

For every (workload, scheme, fault class) cell the campaign runs the
workload with a seeded :class:`~repro.resil.faults.FaultPlan` armed and
classifies the run against a fault-free reference execution of the same
(workload, scheme):

==================  =====================================================
outcome             meaning
==================  =====================================================
detected_by_mac     the 48-bit metadata MAC rejected corrupted metadata
                    (``mac_failures`` grew over the reference)
detected_by_bounds  a :class:`PoisonTrap`/:class:`BoundsTrap` fired —
                    the tag/bounds machinery caught the fault
degraded            the run completed with the right answer but some
                    allocations were downgraded (legacy fallback) or
                    metadata lookups failed soft
trapped             some other trap ended the run (e.g. a NULL-deref
                    after an injected malloc failure, or
                    ``ResourceExhausted`` under the strict policy)
timeout             the wall-clock watchdog killed the run
silent_corruption   the run completed with a *different answer* and no
                    detection — the outcome the defense must prevent
                    for MAC-protected metadata faults
unaffected          output and counters match the reference
==================  =====================================================

The headline acceptance property: for the MAC-protected fault classes
(``metadata_corrupt``, ``mac_corrupt``) on the MAC-carrying schemes
(``local_offset``, ``subheap``) the ``silent_corruption`` count must be
zero — corrupted metadata is either caught or harmless, never silently
trusted (paper Section 3.3.2).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.compiler import CompilerOptions, compile_source
from repro.errors import (
    BoundsTrap, PoisonTrap, SimTrap, TemporalViolation, WorkloadTimeout,
)
from repro.ifp.config import IFPConfig
from repro.resil.faults import FAULT_CLASSES, FaultInjector, FaultPlan
from repro.resil.policy import (
    DEFAULT_POLICY, STRICT_POLICY, DegradationPolicy,
)
from repro.resil.retry import derive_seed
from repro.vm import Machine, MachineConfig
from repro.workloads import Workload, get as get_workload

OUTCOMES: Tuple[str, ...] = (
    "detected_by_mac", "detected_by_bounds", "detected_by_temporal",
    "degraded", "trapped", "timeout", "silent_corruption", "unaffected",
)

#: metadata schemes the campaign exercises, and how: compiler options
#: plus the IFPConfig restriction that funnels allocations there
SCHEMES: Tuple[str, ...] = ("local_offset", "subheap", "global_table")

#: fault classes × schemes whose silent_corruption count must be zero
#: (metadata under MAC protection)
MAC_PROTECTED_CELLS: Tuple[Tuple[str, str], ...] = tuple(
    (fault, scheme)
    for fault in ("metadata_corrupt", "mac_corrupt")
    for scheme in ("local_offset", "subheap"))

#: per-class default FaultSpec arguments (periods are primes so the
#: injection pattern does not phase-lock with loop bodies)
DEFAULT_SPECS: Dict[str, dict] = {
    "tag_bit_flip": {"period": 997, "bits": 1},
    "metadata_corrupt": {"period": 503, "bits": 1},
    "mac_corrupt": {"period": 251, "bits": 1},
    "layout_corrupt": {"period": 31, "bits": 1},
    "global_table_exhaust": {"payload": 0},
    "subheap_register_pressure": {"payload": 0},
    "alloc_oom": {"start": 64, "period": 1},
    "temporal_lock_corrupt": {"start": 2, "period": 7},
}

#: fault classes that need the lock-and-key policy armed on the faulted
#: machine (the reference run stays policy-off; the policy is output-
#: transparent, so the comparison is still apples-to-apples)
_TEMPORAL_FAULTS = ("temporal_lock_corrupt",)

#: fast workloads covering the three schemes' interesting paths —
#: ``health`` is the one that exercises subobject narrowing (so
#: ``layout_corrupt`` has layout-table fetches to corrupt)
DEFAULT_WORKLOADS: Tuple[str, ...] = ("treeadd", "anagram", "ks",
                                      "health")


def scheme_setup(scheme: str) -> Tuple[CompilerOptions, IFPConfig]:
    """(compiler options, IFP config) that funnel heap objects into
    ``scheme``."""
    if scheme == "local_offset":
        return (CompilerOptions.wrapped(),
                IFPConfig(schemes_enabled=("local_offset",
                                           "global_table")))
    if scheme == "subheap":
        return (CompilerOptions.subheap(),
                IFPConfig(schemes_enabled=("local_offset", "subheap",
                                           "global_table")))
    if scheme == "global_table":
        # Wrapped allocator with local_offset disabled: every heap
        # object takes the global-table fallback path.
        return (CompilerOptions.wrapped(),
                IFPConfig(schemes_enabled=("global_table",)))
    raise ValueError(f"unknown scheme {scheme!r}; expected one of "
                     f"{SCHEMES}")


@dataclass
class CellResult:
    """One (workload, scheme, fault) execution, classified."""

    workload: str
    scheme: str
    fault: str
    outcome: str
    detail: str = ""
    injections: int = 0
    seed: int = 0

    def row(self) -> str:
        return (f"{self.workload:10s} {self.scheme:13s} "
                f"{self.fault:25s} {self.outcome:18s} "
                f"inj={self.injections:<4d} {self.detail}")

    def to_dict(self) -> dict:
        return {
            "workload": self.workload, "scheme": self.scheme,
            "fault": self.fault, "outcome": self.outcome,
            "detail": self.detail, "injections": self.injections,
            "seed": self.seed,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "CellResult":
        return cls(workload=data["workload"], scheme=data["scheme"],
                   fault=data["fault"], outcome=data["outcome"],
                   detail=data.get("detail", ""),
                   injections=data.get("injections", 0),
                   seed=data.get("seed", 0))


@dataclass
class _Reference:
    """Fault-free execution of one (workload, scheme)."""

    output: str
    exit_code: Optional[int]
    mac_failures: int
    degraded_allocs: int
    metadata_invalid: int
    narrow_walk_failures: int


@dataclass
class CampaignResult:
    """All cells of one campaign plus the aggregated matrix."""

    seed: int
    policy_name: str
    workloads: List[str]
    schemes: List[str]
    faults: List[str]
    cells: List[CellResult] = field(default_factory=list)

    @property
    def matrix(self) -> Dict[str, Dict[str, Dict[str, int]]]:
        """fault -> scheme -> outcome -> count (over workloads)."""
        table: Dict[str, Dict[str, Dict[str, int]]] = {}
        for cell in self.cells:
            by_scheme = table.setdefault(cell.fault, {})
            by_outcome = by_scheme.setdefault(cell.scheme, {})
            by_outcome[cell.outcome] = by_outcome.get(cell.outcome, 0) + 1
        return table

    def outcome_totals(self) -> Dict[str, int]:
        totals = {outcome: 0 for outcome in OUTCOMES}
        for cell in self.cells:
            totals[cell.outcome] += 1
        return totals

    def mac_protected_silent_corruptions(self) -> List[CellResult]:
        """Cells violating the zero-silent-corruption property."""
        return [cell for cell in self.cells
                if (cell.fault, cell.scheme) in MAC_PROTECTED_CELLS
                and cell.outcome == "silent_corruption"]

    def temporal_silent_corruptions(self) -> List[CellResult]:
        """Lock-corruption cells that diverged silently — the outcome
        the lock-and-key gate forbids: a flipped lock generation must
        surface as a typed TemporalViolation or be harmless."""
        return [cell for cell in self.cells
                if cell.fault in _TEMPORAL_FAULTS
                and cell.outcome == "silent_corruption"]

    @property
    def ok(self) -> bool:
        return not self.mac_protected_silent_corruptions() \
            and not self.temporal_silent_corruptions()

    def metrics(self) -> dict:
        """Schema-v2 ``metrics`` payload (numbers / nested dicts only)."""
        totals = self.outcome_totals()
        return {
            "cells": len(self.cells),
            "workloads": len(self.workloads),
            "schemes": len(self.schemes),
            "fault_classes": len(self.faults),
            "injections_total": sum(c.injections for c in self.cells),
            "mac_protected_silent_corruption":
                len(self.mac_protected_silent_corruptions()),
            "temporal_silent_corruption":
                len(self.temporal_silent_corruptions()),
            "outcomes": totals,
            "matrix": {
                fault: {scheme: dict(outcomes)
                        for scheme, outcomes in by_scheme.items()}
                for fault, by_scheme in self.matrix.items()},
        }

    def to_dict(self) -> dict:
        return {
            "seed": self.seed, "policy_name": self.policy_name,
            "workloads": list(self.workloads),
            "schemes": list(self.schemes),
            "faults": list(self.faults),
            "cells": [cell.to_dict() for cell in self.cells],
        }

    @classmethod
    def from_dict(cls, data: dict) -> "CampaignResult":
        return cls(seed=data["seed"], policy_name=data["policy_name"],
                   workloads=list(data["workloads"]),
                   schemes=list(data["schemes"]),
                   faults=list(data["faults"]),
                   cells=[CellResult.from_dict(cell)
                          for cell in data["cells"]])

    def render(self) -> str:
        """Human-readable matrix + per-cell rows."""
        lines = [
            f"repro.resil: {len(self.cells)} cells, seed {self.seed}, "
            f"policy {self.policy_name}",
            f"  workloads: {', '.join(self.workloads)}",
            "",
            f"  {'fault class':25s} " + " ".join(
                f"{scheme:>22s}" for scheme in self.schemes),
        ]
        matrix = self.matrix
        for fault in self.faults:
            row = [f"  {fault:25s}"]
            for scheme in self.schemes:
                outcomes = matrix.get(fault, {}).get(scheme, {})
                compact = ",".join(
                    f"{_ABBREV[outcome]}x{count}"
                    for outcome, count in sorted(outcomes.items()))
                row.append(f"{compact or '-':>22s}")
            lines.append(" ".join(row))
        lines.append("")
        lines.append("  legend: " + ", ".join(
            f"{_ABBREV[outcome]}={outcome}" for outcome in OUTCOMES))
        totals = self.outcome_totals()
        lines.append("  totals: " + ", ".join(
            f"{outcome}={count}" for outcome, count in totals.items()
            if count))
        violations = self.mac_protected_silent_corruptions()
        if violations:
            lines.append("  MAC-PROTECTED SILENT CORRUPTION:")
            for cell in violations:
                lines.append("    " + cell.row())
        else:
            lines.append("  MAC-protected metadata faults: "
                         "zero silent corruption ✓")
        temporal_violations = self.temporal_silent_corruptions()
        if temporal_violations:
            lines.append("  TEMPORAL-LOCK SILENT CORRUPTION:")
            for cell in temporal_violations:
                lines.append("    " + cell.row())
        elif any(fault in _TEMPORAL_FAULTS for fault in self.faults):
            lines.append("  temporal lock corruption: "
                         "zero silent corruption ✓")
        return "\n".join(lines)


_ABBREV = {
    "detected_by_mac": "mac",
    "detected_by_bounds": "bnd",
    "detected_by_temporal": "tmp",
    "degraded": "deg",
    "trapped": "trp",
    "timeout": "tmo",
    "silent_corruption": "SIL",
    "unaffected": "ok",
}


def enumerate_cells(faults: Tuple[str, ...],
                    schemes: Tuple[str, ...],
                    workload_names: Tuple[str, ...]
                    ) -> List[Tuple[str, str, str]]:
    """The campaign's cell order: ``(fault, scheme, workload)`` tuples
    with fault outermost.  Cell *i* always runs with seed
    ``derive_seed(campaign_seed, i + 1)`` — the sequential loop and the
    ``repro.par`` shard runners both index into this list, which is
    what makes a sharded campaign byte-identical to a sequential one.
    """
    return [(fault, scheme, name)
            for fault in faults
            for scheme in schemes
            for name in workload_names]


class CampaignRunner:
    """Executes campaign cells with per-(workload, scheme) compile and
    reference-run caches."""

    def __init__(self, scale: int = 1,
                 timeout_seconds: Optional[float] = 120.0,
                 policy: DegradationPolicy = DEFAULT_POLICY,
                 engine: str = "auto"):
        self.scale = scale
        self.timeout_seconds = timeout_seconds
        self.policy = policy
        #: execution engine for every run.  The default "auto" runs
        #: both the clean reference runs and the faulted runs on the
        #: fastpath; an injector does not arm a translation (only an
        #: attached observer does, ``machine.obs is not None``).
        #: "reference" forces the slow path everywhere.
        self.engine = engine
        self._programs: Dict[Tuple[str, str], object] = {}
        self._references: Dict[Tuple[str, str], _Reference] = {}

    # -- plumbing -------------------------------------------------------------

    def _program(self, workload: Workload, scheme: str):
        key = (workload.name, scheme)
        if key not in self._programs:
            options, _ifp = scheme_setup(scheme)
            self._programs[key] = compile_source(
                workload.source(self.scale), options)
        return self._programs[key]

    def _machine(self, workload: Workload, scheme: str,
                 temporal: str = "off") -> Machine:
        _options, ifp = scheme_setup(scheme)
        config = MachineConfig(ifp=ifp, policy=self.policy,
                               engine=self.engine, temporal=temporal)
        return Machine(self._program(workload, scheme), config)

    def _reference(self, workload: Workload, scheme: str) -> _Reference:
        key = (workload.name, scheme)
        if key not in self._references:
            machine = self._machine(workload, scheme)
            result = machine.run(timeout_seconds=self.timeout_seconds)
            if result.trap is not None:
                raise SimTrap(
                    f"reference run {workload.name}/{scheme} trapped: "
                    f"{result.trap}")
            stats = result.stats
            self._references[key] = _Reference(
                output=result.output, exit_code=result.exit_code,
                mac_failures=stats.ifp.mac_failures,
                degraded_allocs=stats.degraded_allocs,
                metadata_invalid=stats.ifp.promotes_metadata_invalid,
                narrow_walk_failures=stats.ifp.narrow_walk_failures)
        return self._references[key]

    # -- one cell -------------------------------------------------------------

    def run_cell(self, workload: Workload, scheme: str, fault: str,
                 seed: int) -> CellResult:
        reference = self._reference(workload, scheme)
        plan = FaultPlan.single(fault, seed,
                                **DEFAULT_SPECS.get(fault, {}))
        machine = self._machine(
            workload, scheme,
            temporal="check" if fault in _TEMPORAL_FAULTS else "off")
        injector = FaultInjector(plan)
        injector.arm(machine)
        cell = CellResult(workload=workload.name, scheme=scheme,
                          fault=fault, outcome="unaffected", seed=seed)
        try:
            result = machine.run(timeout_seconds=self.timeout_seconds)
        except WorkloadTimeout as exc:
            cell.outcome = "timeout"
            cell.detail = f"{exc.seconds:g}s budget"
            cell.injections = len(injector.injections)
            return cell
        cell.injections = len(injector.injections)
        stats = result.stats
        mac_hits = stats.ifp.mac_failures - reference.mac_failures
        degraded = (
            (stats.degraded_allocs - reference.degraded_allocs)
            + (stats.ifp.promotes_metadata_invalid
               - reference.metadata_invalid)
            + (stats.ifp.narrow_walk_failures
               - reference.narrow_walk_failures))
        if result.trap is not None:
            trap_name = type(result.trap).__name__
            cell.detail = f"{trap_name}: {result.trap}"
            if mac_hits > 0:
                cell.outcome = "detected_by_mac"
            elif isinstance(result.trap, TemporalViolation):
                cell.outcome = "detected_by_temporal"
            elif isinstance(result.trap, (PoisonTrap, BoundsTrap)):
                cell.outcome = "detected_by_bounds"
            else:
                cell.outcome = "trapped"
            return cell
        if (result.output, result.exit_code) != (reference.output,
                                                 reference.exit_code):
            # Completed with the wrong answer.  If the MAC flagged the
            # corruption it is still a detection miss at the output
            # level — classify by the worse verdict.
            cell.outcome = "silent_corruption"
            cell.detail = (f"exit {result.exit_code} vs "
                           f"{reference.exit_code}, output "
                           f"{'differs' if result.output != reference.output else 'same'}")
            return cell
        if mac_hits > 0:
            cell.outcome = "detected_by_mac"
            cell.detail = f"{mac_hits} MAC rejections, output intact"
        elif degraded > 0:
            cell.outcome = "degraded"
            cell.detail = (f"{stats.degraded_allocs} degraded allocs, "
                           f"output intact")
        return cell

    # -- the whole campaign ---------------------------------------------------

    def run(self, workload_names: Tuple[str, ...] = DEFAULT_WORKLOADS,
            schemes: Tuple[str, ...] = SCHEMES,
            faults: Tuple[str, ...] = FAULT_CLASSES,
            seed: int = 0) -> CampaignResult:
        """The whole campaign in one process: the reference the sharded
        runs (:func:`repro.par.campaigns.run_resil_shard`) are compared
        against."""
        campaign = CampaignResult(
            seed=seed, policy_name=self.policy.name,
            workloads=list(workload_names), schemes=list(schemes),
            faults=list(faults))
        cells = enumerate_cells(faults, schemes, workload_names)
        for index, (fault, scheme, name) in enumerate(cells):
            cell_seed = derive_seed(seed, index + 1)
            campaign.cells.append(self.run_cell(
                get_workload(name), scheme, fault, cell_seed))
        return campaign


def run_campaign(workloads: Tuple[str, ...] = DEFAULT_WORKLOADS,
                 schemes: Tuple[str, ...] = SCHEMES,
                 faults: Tuple[str, ...] = FAULT_CLASSES,
                 seed: int = 0, scale: int = 1,
                 timeout_seconds: Optional[float] = 120.0,
                 strict: bool = False,
                 engine: str = "auto") -> CampaignResult:
    """Run a whole campaign sequentially, in this process, with one
    :class:`CampaignRunner` (see :meth:`CampaignRunner.run`)."""
    runner = CampaignRunner(
        scale=scale, timeout_seconds=timeout_seconds,
        policy=STRICT_POLICY if strict else DEFAULT_POLICY,
        engine=engine)
    return runner.run(workloads, schemes, faults, seed=seed)
