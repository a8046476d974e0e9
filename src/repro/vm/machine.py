"""The simulated machine and its run harness."""

from __future__ import annotations

import sys
from dataclasses import dataclass, field
from typing import List, Optional

from repro.cache import CacheHierarchy, HierarchyConfig
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
#: legacy spellings from when the compiled engine had several tiers; they
#: still parse and mean "auto".  Plans and job specs keep the spelling
#: they were given, so recorded fingerprints stay valid.
ENGINE_ALIASES = {"fastpath": "auto", "superblock": "auto"}
#: every spelling a CLI or job spec accepts
ENGINE_CHOICES = ENGINES + tuple(ENGINE_ALIASES)


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
    #: glibc strlen reads whole words — the over-read the paper hit in bc
    strlen_word_reads: bool = True
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
    #: interpreter.  The legacy spellings in :data:`ENGINE_ALIASES`
    #: still parse and mean "auto".  Both engines are byte-identical in
    #: every simulated observable, including the emitted event stream —
    #: see DESIGN.md §8.
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
        if config.temporal not in ("off", "check", "quarantine"):
            raise ReproError(
                f"unknown temporal policy {config.temporal!r} "
                "(expected off|check|quarantine)")
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

        # Interpreter created lazily (needs self fully built).
        from repro.vm.interp import Interpreter
        self.interp = Interpreter(self)
        #: closure-compiled fast engine, built on first use
        self._fast = None

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
        """Resolve ``config.engine`` to the interpreter for this run."""
        engine = ENGINE_ALIASES.get(self.config.engine, self.config.engine)
        if engine == "reference":
            return self.interp
        if engine != "auto":
            raise ReproError(f"unknown engine {self.config.engine!r} "
                             f"(expected {'|'.join(ENGINES)})")
        if self._fast is None:
            from repro.vm.fastpath import FastInterpreter
            self._fast = FastInterpreter(self)
        return self._fast

    # -- run harness ---------------------------------------------------------------

    def run(self, entry: Optional[str] = None,
            timeout_seconds: Optional[float] = None) -> RunResult:
        """Execute the program to completion, trap, or instruction limit.

        ``timeout_seconds`` arms the wall-clock watchdog; on expiry a
        :class:`WorkloadTimeout` propagates (it is *not* a guest trap, so
        it is never reported as a detection) with finalized stats
        attached.
        """
        entry = entry or self.program.entry
        interp = self.select_interp()
        self.engine_used = ("reference" if interp is self.interp
                            else "fastpath")
        if self.obs is not None:
            # let observability consumers label everything they export
            # with the engine that actually produced it
            self.obs.engine = self.engine_used
        interp.arm_deadline(timeout_seconds)
        old_limit = sys.getrecursionlimit()
        sys.setrecursionlimit(40_000)
        exit_code: Optional[int] = None
        trap: Optional[SimTrap] = None
        try:
            if "__init_globals" in self.program.functions:
                interp.call_function("__init_globals", [], [])
            value, _bounds = interp.call_function(entry, [], [])
            exit_code = _as_exit_code(value)
        except GuestExit as exc:
            exit_code = exc.code
        except SimTrap as exc:
            trap = exc
        except WorkloadTimeout as exc:
            self._finalize_stats()
            exc.stats = self.stats
            raise
        finally:
            sys.setrecursionlimit(old_limit)
        self._finalize_stats()
        if trap is not None and self.obs is not None:
            # Machine state (memory, metadata, tracer) is still live, so
            # forensics can decode the offending pointer in place.
            self.obs.on_trap(self, trap)
        return RunResult(exit_code, trap, self.stats, self.output)

    def _finalize_stats(self) -> None:
        stats = self.stats
        stats.ifp = self.ifp.stats
        stats.l1d_accesses = self.hierarchy.l1d_accesses
        stats.l1d_misses = self.hierarchy.l1d_misses
        stats.peak_mapped_bytes = self.memory.peak_mapped_bytes


def _as_exit_code(value: int) -> int:
    return value & 0xFF


def run_source(source: str, options=None,
               machine_config: Optional[MachineConfig] = None) -> RunResult:
    """Convenience: compile mini-C source and run it."""
    from repro.compiler import CompilerOptions, compile_source
    options = options or CompilerOptions.baseline()
    program = compile_source(source, options)
    config = machine_config or MachineConfig(no_promote=options.no_promote)
    if options.no_promote and not config.no_promote:
        from dataclasses import replace
        config = replace(config, no_promote=True)
    return Machine(program, config).run()
