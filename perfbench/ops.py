"""The benchmark's workloads as lists of ops.

An op is one workload cell run along the whole user path: mini-C source
-> ``repro.lang`` parse/sema -> ``repro.compiler`` -> ``Machine(...)``
load -> ``Machine.run`` (translate + execute) -> verdict.  Every op
returns a JSON-able verdict whose digest is checked against
``goldens.json``.  The simulated inputs of an op never depend on the
benchmark seed; the seed only permutes the order the ops run in.
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass, fields
from typing import Callable, Dict, List

# Imported here, not on first use, so that every lazy import of the op
# path (the fastpath compiler above all) is paid in set-up, not in op 1.
import repro.temporal  # noqa: F401
import repro.vm.fastpath  # noqa: F401
from repro import workloads as registry
from repro.compiler.compile import compile_source
from repro.eval.configs import build_machine_config, build_options
from repro.ifp.unit import _CACHE_COUNTER_FIELDS, IFPUnitStats
from repro.juliet.cases import generate_cases, generate_temporal_cases
from repro.resil.faults import FAULT_CLASSES
from repro.resil.matrix import SCHEMES, CampaignRunner, enumerate_cells
from repro.resil.retry import derive_seed
from repro.vm import Machine, MachineConfig, RunStats

WORKLOADS = ("sweep-ptrchase", "sweep-compute", "juliet-suite",
             "campaign-resil")

#: pointer-chasing apps, where the IFP unit and allocators carry the time
PTRCHASE = ("treeadd", "perimeter", "bisort", "health", "mst", "em3d", "ft")
#: compute-bound apps, each running only a few hundred promotes
COMPUTE = ("coremark", "bzip2", "wolfcrypt-dh", "sjeng")
#: the resil campaign's apps: two of the CLI's four, the two with the
#: shortest cells, so that a run measures several passes
RESIL = ("anagram", "ks")
#: the ``python -m repro.resil`` watchdog
RESIL_TIMEOUT_S = 120.0


class VerdictError(Exception):
    """A Juliet case trapped when it should not have, or the reverse."""


@dataclass(frozen=True)
class Op:
    key: str
    run: Callable[[], dict]


@dataclass
class Suite:
    """One workload's ops in canonical order; the first is the warm-up."""

    name: str
    ops: List[Op]

    def ordered(self, seed: int) -> List[Op]:
        ops = list(self.ops)
        random.Random(seed).shuffle(ops)
        return ops


def digest(verdict: dict) -> str:
    text = json.dumps(verdict, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()[:16]


_RUN_FIELDS = tuple(f.name for f in fields(RunStats) if f.name != "ifp")
# Host-cache counters may move under a host-only change; they are
# reported as per-layer counts instead of being pinned here.
_IFP_FIELDS = tuple(f.name for f in fields(IFPUnitStats)
                    if f.name not in _CACHE_COUNTER_FIELDS)


def _stats_verdict(result) -> dict:
    stats = result.stats
    return {
        "exit": result.exit_code,
        "output": result.output,
        "trap": type(result.trap).__name__ if result.trap else None,
        "stats": {name: getattr(stats, name) for name in _RUN_FIELDS},
        "ifp": {name: getattr(stats.ifp, name) for name in _IFP_FIELDS},
    }


def _sweep(name: str, programs, configs, scale: int, engine: str) -> Suite:
    def op(program: str, config: str) -> Op:
        source = registry.get(program).source(scale)
        options = build_options(config)
        machine_config = build_machine_config(config, engine=engine)

        def run() -> dict:
            program_ir = compile_source(source, options)
            return _stats_verdict(Machine(program_ir, machine_config).run())
        return Op(f"{program}/{config}", run)
    return Suite(name, [op(p, c) for p in programs for c in configs])


def _juliet(engine: str) -> Suite:
    def op(case, config: str) -> Op:
        options = build_options(config)
        machine_config = MachineConfig(max_instructions=2_000_000,
                                       temporal="check", engine=engine)

        def run() -> dict:
            program_ir = compile_source(case.source, options)
            result = Machine(program_ir, machine_config).run()
            trapped = result.trap is not None
            if trapped != case.is_bad:
                raise VerdictError(
                    f"{case.name}/{config}: trapped={trapped}, "
                    f"expected {case.is_bad}")
            return {"trapped": trapped,
                    "trap": type(result.trap).__name__ if trapped else None}
        return Op(f"{case.name}/{config}", run)
    cases = generate_cases() + generate_temporal_cases()
    return Suite("juliet-suite", [op(case, config) for case in cases
                                  for config in ("wrapped", "subheap")])


def _resil(engine: str) -> Suite:
    """One op per campaign cell, each with a fresh runner, so an op
    compiles its program and makes its own fault-free reference run."""
    def op(index: int, fault: str, scheme: str, program: str) -> Op:
        seed = derive_seed(0, index + 1)

        def run() -> dict:
            runner = CampaignRunner(timeout_seconds=RESIL_TIMEOUT_S,
                                    engine=engine)
            return runner.run_cell(registry.get(program), scheme, fault,
                                   seed).to_dict()
        return Op(f"{fault}/{scheme}/{program}", run)
    cells = enumerate_cells(FAULT_CLASSES, SCHEMES, RESIL)
    return Suite("campaign-resil", [op(index, *cell)
                                    for index, cell in enumerate(cells)])


def build(workload: str, engine: str = "auto") -> Suite:
    """The op list of ``workload``, in canonical order."""
    if workload == "sweep-ptrchase":
        return _sweep(workload, PTRCHASE, ("subheap", "wrapped"), 1, engine)
    if workload == "sweep-compute":
        return _sweep(workload, COMPUTE, ("baseline", "subheap"), 2, engine)
    if workload == "juliet-suite":
        return _juliet(engine)
    if workload == "campaign-resil":
        return _resil(engine)
    raise ValueError(f"unknown workload {workload!r}; expected one of "
                     f"{', '.join(WORKLOADS)}")


def verdicts(suite: Suite) -> Dict[str, str]:
    """Run every op of ``suite`` once, in canonical order; key -> digest."""
    return {op.key: digest(op.run()) for op in suite.ops}
