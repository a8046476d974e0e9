"""The simulated machine and its run harness."""

from __future__ import annotations

import sys
from dataclasses import dataclass
from typing import List, Optional

from repro.cache import HierarchyConfig
from repro.compiler.ir import IRProgram
from repro.errors import GuestExit, ReproError, SimTrap, WorkloadTimeout
from repro.ifp.config import IFPConfig, DEFAULT_CONFIG
from repro.ifp.unit import IFPUnit
from repro.mem import Memory
from repro.mem.layout import DEFAULT_LAYOUT, AddressSpaceLayout
from repro.resil.policy import DEFAULT_POLICY, DegradationPolicy
from repro.vm.loader import LoadedImage, load_program
from repro.vm.stats import RunStats


#: the execution engines ``MachineConfig.engine`` selects between
ENGINES = ("auto", "reference")
#: the values of ``MachineConfig.temporal``
TEMPORAL_POLICIES = ("off", "check", "quarantine")


@dataclass(frozen=True)
class MachineConfig:
    """Machine-level knobs (hardware config + harness limits)."""

    hierarchy: HierarchyConfig = HierarchyConfig()
    ifp: IFPConfig = DEFAULT_CONFIG
    layout: AddressSpaceLayout = DEFAULT_LAYOUT
    #: promote executes as a NOP (the paper's "no-promote" build)
    no_promote: bool = False
    mac_key: int = 0x1F9A7C0FFEE
    #: hard cap on executed instructions (runaway guard)
    max_instructions: int = 500_000_000
    #: what happens when fixed-size metadata resources run out
    #: (see repro.resil.policy): degrade to untagged pointers or trap
    policy: DegradationPolicy = DEFAULT_POLICY
    #: temporal lock-and-key policy (repro.temporal): "off" reserves no
    #: tag bits and builds no registry (zero cost); "check" arms
    #: promote/deref/free lock==key checks while allocators reuse
    #: addresses normally; "quarantine" additionally suppresses address
    #: reuse in the allocators so stale keys can never alias fresh ones
    temporal: str = "off"
    #: execution engine (one of :data:`ENGINES`): "auto" runs the
    #: block-fused fastpath, which under an armed observer (and its
    #: optional tracer) compiles one armed variant with inline emit
    #: sites (see repro.vm.fastpath); "reference" runs the reference
    #: interpreter.  Both engines are byte-identical in every simulated
    #: observable, including the emitted event stream — see DESIGN.md §8.
    engine: str = "auto"


@dataclass
class RunResult:
    """Outcome of one guest-program run."""

    exit_code: Optional[int]
    trap: Optional[SimTrap]
    stats: RunStats
    output: str

    @property
    def ok(self) -> bool:
        return self.trap is None

    @property
    def detected_violation(self) -> bool:
        """True when the run ended in a memory-safety trap — how the
        Juliet evaluation scores a detection."""
        return self.trap is not None


class Machine:
    """One loaded program plus all architectural and runtime state."""

    def __init__(self, program: IRProgram,
                 config: MachineConfig = MachineConfig()):
        self.program = program
        self.config = config
        self.layout = config.layout
        self.memory = Memory()
        self.hierarchy = config.hierarchy.build()
        if config.temporal not in TEMPORAL_POLICIES:
            raise ReproError(
                f"unknown temporal policy {config.temporal!r} "
                f"(expected {'|'.join(TEMPORAL_POLICIES)})")
        ifp_config = config.ifp
        if config.temporal != "off":
            from repro.temporal import TemporalRegistry
            if ifp_config.temporal_key_bits == 0:
                from dataclasses import replace as _replace
                ifp_config = _replace(ifp_config, temporal_key_bits=2)
            #: allocation-lock registry; allocator builtins mint/release
            #: through it and both engines probe it at deref sites
            self.temporal = TemporalRegistry(
                key_bits=ifp_config.temporal_key_bits)
        else:
            self.temporal = None
        self.ifp = IFPUnit(self.memory, self.hierarchy, ifp_config,
                           mac_key=config.mac_key)
        self.ifp.temporal = self.temporal
        self.stats = RunStats()
        self.image: LoadedImage = load_program(program, self.memory,
                                               self.layout)
        self.output_parts: List[str] = []
        self.rand_state = 0x2545F491
        self.clock_cycles_base = 0
        #: optional observer (see repro.obs.attach_observer), the one
        #: instrument slot; it carries the optional instruction tracer
        #: (repro.debug.attach_tracer).  None keeps every instrumented
        #: site on its zero-cost disabled path
        self.obs = None
        #: engine the last ``run`` resolved to ("fastpath"|"reference");
        #: None before the first run.  Telemetry labels use this.
        self.engine_used: Optional[str] = None

        # Stack management (grows down; pages mapped on demand).
        self.stack_top = self.layout.stack_top
        self.sp = self.stack_top
        self._stack_mapped_low = self.stack_top

        # Runtime services (allocators, global table, getptr registry) are
        # attached here by repro.runtime.builtins.install().
        from repro.runtime.builtins import install as _install_runtime
        self.builtins = _install_runtime(self)

    # -- stack ---------------------------------------------------------------

    def push_frame(self, frame_size: int) -> int:
        """Allocate a stack frame; returns the frame base address."""
        self.sp -= frame_size
        if self.sp < self.layout.stack_limit:
            raise SimTrap("stack overflow")
        if self.sp < self._stack_mapped_low:
            page = self.memory.page_size
            new_low = self.sp & ~(page - 1)
            self.memory.map_range(new_low, self._stack_mapped_low - new_low)
            self._stack_mapped_low = new_low
        return self.sp

    def pop_frame(self, frame_size: int) -> None:
        self.sp += frame_size

    # -- io ---------------------------------------------------------------------

    def write_output(self, text: str) -> None:
        self.output_parts.append(text)

    @property
    def output(self) -> str:
        return "".join(self.output_parts)

    # -- rand (deterministic LCG, rand(3)-compatible range) -----------------------

    def rand(self) -> int:
        self.rand_state = (self.rand_state * 1103515245 + 12345) & 0x7FFFFFFF
        return self.rand_state

    def srand(self, seed: int) -> None:
        self.rand_state = seed & 0x7FFFFFFF or 1

    # -- engine selection ---------------------------------------------------------

    def select_interp(self):
        """A new engine of the kind ``config.engine`` names.  The machine
        keeps none: the engine of a run lives as long as the run."""
        engine = self.config.engine
        if engine == "reference":
            from repro.vm.interp import Interpreter
            return Interpreter(self)
        if engine != "auto":
            raise ReproError(f"unknown engine {self.config.engine!r} "
                             f"(expected {'|'.join(ENGINES)})")
        from repro.vm.fastpath import FastInterpreter
        return FastInterpreter(self)

    # -- run harness ---------------------------------------------------------------

    def run(self, entry: Optional[str] = None,
            timeout_seconds: Optional[float] = None) -> RunResult:
        """Execute the program to completion, trap, or instruction limit.

        ``timeout_seconds`` arms the wall-clock watchdog; on expiry a
        :class:`WorkloadTimeout` propagates (it is *not* a guest trap, so
        it is never reported as a detection) with finalized stats
        attached.  A machine runs once: a second call raises
        :class:`ReproError` (see :meth:`_release`).
        """
        if self.engine_used is not None:
            raise ReproError("this machine has already run; a Machine "
                             "runs once, so build a new one")
        entry = entry or self.program.entry
        interp = self.select_interp()
        self.engine_used = ("reference" if self.config.engine == "reference"
                            else "fastpath")
        if self.obs is not None:
            # let observability consumers label everything they export
            # with the engine that actually produced it
            self.obs.engine = self.engine_used
        interp.arm_deadline(timeout_seconds)
        exit_code: Optional[int] = None
        trap: Optional[SimTrap] = None
        try:
            exit_code, trap = self._execute(interp, entry)
        finally:
            self._finalize_stats()
            try:
                if trap is not None and self.obs is not None:
                    # Machine state (memory, metadata, tracer) is still
                    # live, so forensics can decode the offending pointer
                    # in place.
                    self.obs.on_trap(self, trap)
            finally:
                self._release(interp, trap)
        return RunResult(exit_code, trap, self.stats, self.output)

    def _execute(self, interp, entry: str):
        """``(exit code, trap)`` of running ``entry`` on ``interp``."""
        old_limit = sys.getrecursionlimit()
        sys.setrecursionlimit(40_000)
        try:
            if "__init_globals" in self.program.functions:
                interp.call_function("__init_globals", [], [])
            value, _bounds = interp.call_function(entry, [], [])
            return _as_exit_code(value), None
        except GuestExit as exc:
            return exc.code, None
        except SimTrap as exc:
            return None, exc
        except WorkloadTimeout as exc:
            exc.stats = self.stats
            raise
        finally:
            sys.setrecursionlimit(old_limit)

    def _release(self, interp, trap: Optional[SimTrap]) -> None:
        """Cut the links of a finished run that only the cyclic
        collector could free, so reference counting frees the machine
        once its caller drops it and the :class:`RunResult`.

        * the memory's snoop hooks, bound methods of the IFP unit, which
          points back at the memory through its metadata port;
        * the engine's translations, whose namespaces hold the engine
          (:meth:`~repro.vm.fastpath.FastInterpreter.release`);
        * the trap's traceback, whose frames hold the machine; nothing
          reads it.

        The memory, the IFP unit (stats, caches, ``dry_run``), the
        temporal registry, the image, the stats and the output stay
        readable.  Stores no longer reach the unit's promote cache,
        which is why a machine runs once.
        """
        self.memory.watcher = self.memory.unmap_watcher = None
        interp.release()
        while trap is not None:
            trap.__traceback__ = None
            trap = trap.__cause__ or trap.__context__

    def _finalize_stats(self) -> None:
        stats = self.stats
        stats.ifp = self.ifp.stats
        stats.l1d_accesses = self.hierarchy.l1d_accesses
        stats.l1d_misses = self.hierarchy.l1d_misses
        stats.peak_mapped_bytes = self.memory.peak_mapped_bytes


def _as_exit_code(value: int) -> int:
    return value & 0xFF
