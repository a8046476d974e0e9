"""Run benchmarks under evaluation configurations and cache results.

A :class:`Sweep` memoises (workload, config, scale) runs so the table and
figure generators — and the pytest-benchmark harnesses — can share one
set of executions.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Tuple

from repro.compiler import compile_source
from repro.errors import (
    OutputDivergence, UnexpectedOutput, WorkloadTimeout, WorkloadTrapped,
)
from repro.eval.configs import (
    CONFIG_NAMES, build_machine_config, build_options,
)
from repro.vm import Machine, RunStats
from repro.workloads import Workload, all_workloads


@dataclass
class WorkloadRun:
    """One (workload, configuration) execution."""

    workload: str
    config: str
    scale: int
    stats: RunStats
    output: str
    exit_code: Optional[int]
    #: attached when the run executed under ``observe=True``
    observer: Optional[object] = None

    @property
    def instructions(self) -> int:
        return self.stats.total_instructions

    @property
    def cycles(self) -> int:
        return self.stats.cycles

    @property
    def memory(self) -> int:
        return self.stats.peak_mapped_bytes


def run_workload(workload: Workload, config: str, scale: int = 1,
                 max_instructions: Optional[int] = None,
                 observe: bool = False,
                 forensics_dir: Optional[str] = None,
                 timeout_seconds: Optional[float] = None,
                 engine: str = "auto",
                 temporal: str = "off") -> WorkloadRun:
    """Compile and execute one workload under one configuration.

    Raises :class:`repro.errors.WorkloadTrapped` when the run traps and
    :class:`repro.errors.UnexpectedOutput` when the workload's output
    sanity check fails, so callers (the sweep, the fuzzing oracle) can
    tell the two apart.  Both errors carry a compact ``RunStats``
    snapshot in their message.

    ``observe=True`` attaches a :class:`repro.obs.Observer` (hot-site
    profiling + trap forensics); on a trap, the forensics report is
    written into ``forensics_dir`` (when given) and its path included
    in the raised error.

    ``timeout_seconds`` arms the wall-clock watchdog: a run that fails
    to finish raises :class:`repro.errors.WorkloadTimeout` (tagged with
    workload/config identity) instead of hanging the harness.

    ``engine`` selects the execution engine ("auto" or "reference");
    "auto" always runs the fastpath — under an observer (and the tracer it
    carries) the closure compiler translates one armed variant of each
    function with the emits inline, and fault injectors need no variant.
    Both engines are byte-identical in every simulated observable
    (including the emitted event stream), so results never depend on
    this knob.

    ``temporal`` arms the lock-and-key use-after-free policy
    (off/check/quarantine) on the machine; a well-behaved workload must
    be transparent under every setting.
    """
    options = build_options(config)
    program = compile_source(workload.source(scale), options)
    machine = Machine(program, build_machine_config(
        config,
        **({} if max_instructions is None
           else {"max_instructions": max_instructions}),
        engine=engine, temporal=temporal))
    observer = None
    if observe:
        from repro.obs import attach_observer
        observer = attach_observer(machine, profile=True, forensics=True)
    try:
        result = machine.run(timeout_seconds=timeout_seconds)
    except WorkloadTimeout as exc:
        raise exc.with_context(workload.name, config) from None
    if result.trap is not None:
        forensics_path = ""
        if observer is not None and observer.last_report is not None \
                and forensics_dir:
            os.makedirs(forensics_dir, exist_ok=True)
            forensics_path = observer.last_report.write(os.path.join(
                forensics_dir,
                f"{workload.name}-{config}.forensics.txt"))
        raise WorkloadTrapped(workload.name, config, result.trap,
                              stats=result.stats,
                              forensics_path=forensics_path)
    if workload.expected_output \
            and workload.expected_output not in result.output:
        raise UnexpectedOutput(workload.name, config, result.output,
                               workload.expected_output,
                               stats=result.stats)
    return WorkloadRun(workload.name, config, scale, result.stats,
                       result.output, result.exit_code,
                       observer=observer)


def verify_runs_agree(runs: Iterable[WorkloadRun]) -> None:
    """Assert a group of runs of *one* program computed the same answer.

    Compares both stdout and exit code across every run; raises
    :class:`repro.errors.OutputDivergence` naming the disagreeing
    configurations (with each run's compact stats snapshot).  Shared by
    :meth:`Sweep.verify_outputs_agree` and the fuzzing oracle
    (:mod:`repro.fuzz.oracle`).
    """
    runs = list(runs)
    by_config = {run.config: (run.output, run.exit_code) for run in runs}
    if len(set(by_config.values())) > 1:
        names = {run.workload for run in runs}
        raise OutputDivergence(
            "/".join(sorted(names)) or "<program>", by_config,
            stats={run.config: run.stats for run in runs})


class Sweep:
    """Memoising runner over (workload, config) pairs."""

    def __init__(self, scale: int = 1,
                 workloads: Optional[List[Workload]] = None):
        self.scale = scale
        self.workloads = workloads if workloads is not None \
            else all_workloads()
        self._cache: Dict[Tuple[str, str], WorkloadRun] = {}

    def run(self, workload: Workload, config: str) -> WorkloadRun:
        key = (workload.name, config)
        if key not in self._cache:
            self._cache[key] = run_workload(workload, config, self.scale)
        return self._cache[key]

    def baseline(self, workload: Workload) -> WorkloadRun:
        return self.run(workload, "baseline")

    def all_runs(self, configs: Iterable[str] = CONFIG_NAMES
                 ) -> List[WorkloadRun]:
        return [self.run(w, c) for w in self.workloads for c in configs]

    def configs_run(self, workload: Workload) -> List[str]:
        """Configurations already executed (cached) for ``workload``."""
        return [config for (name, config) in self._cache
                if name == workload.name]

    def verify_outputs_agree(
            self, configs: Optional[Iterable[str]] = None) -> None:
        """Assert every configuration computes the same answer.

        With ``configs=None`` each workload is checked across whatever
        configurations have actually been run on it (running the three
        standard builds when nothing has); pass an explicit iterable to
        pin the set and force any missing runs.
        """
        pinned = list(configs) if configs is not None else None
        for workload in self.workloads:
            names = pinned if pinned is not None \
                else (self.configs_run(workload)
                      or ["baseline", "subheap", "wrapped"])
            verify_runs_agree(self.run(workload, c) for c in names)


def run_sweep(scale: int = 1,
              configs: Iterable[str] = CONFIG_NAMES,
              workloads: Optional[List[Workload]] = None) -> Sweep:
    """Convenience: build a sweep and execute everything eagerly."""
    sweep = Sweep(scale, workloads)
    sweep.all_runs(configs)
    return sweep
