"""Differential tests: the closure-compiled fastpath vs the reference
interpreter.

The fastpath's contract is *byte-identical observables*: for every
program, the two engines must agree on guest output, exit code, trap
class and message, and every field of ``RunStats`` (including the IFP
unit's counters and the host-side cache counters, which are structural
— the caches live in the shared IFP unit and fire identically under
both engines).  These tests replay generated fuzz programs, injected
attacks, and real workloads under both engines and compare the full
stats dataclass, making them the in-repo mirror of the CI differential
gate (``benchmarks/bench_host_throughput.py --verify-only``).
"""

from __future__ import annotations

import dataclasses
import os
import sys

import pytest

from repro.compiler import CompilerOptions, compile_source
from repro.compiler.ir import IRFunction, Op
from repro.errors import (
    MemoryFault, ReproError, StepBudgetExceeded, WorkloadTimeout,
)
from repro.eval.configs import build_machine_config, build_options
from repro.fuzz.attacks import attacks_for
from repro.fuzz.generator import generate_program, render
from repro.ifp import unit as ifp_unit
from repro.vm import Machine, MachineConfig
from repro.vm.fastpath import FastInterpreter
from repro.workloads import WORKLOADS


#: the ``python -m repro.resil`` watchdog: long enough never to fire, so
#: a run armed with it must stay byte-identical to a disarmed reference
ARMED_TIMEOUT = 120.0


def _observables(program, config: MachineConfig, engine: str,
                 timeout=None, fault_plan=None):
    """Run one compiled program under one engine (optionally with the
    wall-clock watchdog and a fault injector armed); returns every
    observable the equivalence contract covers, as plain data."""
    from dataclasses import replace
    machine = Machine(program, replace(config, engine=engine))
    if fault_plan is not None:
        from repro.resil.faults import FaultInjector
        FaultInjector(fault_plan).arm(machine)
    result = machine.run(timeout_seconds=timeout)
    trap = result.trap
    return {
        "exit_code": result.exit_code,
        "output": result.output,
        "trap": (type(trap).__name__, str(trap),
                 getattr(trap, "executed", None),
                 getattr(trap, "pc", None))
        if trap else None,
        "stats": dataclasses.asdict(result.stats),
    }


def _assert_engines_agree(source: str, config_name: str,
                          max_instructions: int = 5_000_000):
    program = compile_source(source, build_options(config_name))
    config = build_machine_config(config_name, max_instructions)
    reference = _observables(program, config, "reference")
    for timeout in (None, ARMED_TIMEOUT):
        compiled = _observables(program, config, "auto", timeout)
        assert compiled == reference, (
            f"engine 'auto' diverged under {config_name!r}"
            f" (timeout={timeout})")
    return reference


def _simulated(observables):
    """``observables`` minus the host-side cache counters, which are the
    only fields the promote cache may move."""
    for name in ifp_unit._CACHE_COUNTER_FIELDS:
        del observables["stats"]["ifp"][name]
    return observables


# ---------------------------------------------------------------------------
# engine selection
# ---------------------------------------------------------------------------

SMALL = "int main(void) { int x = 3; return x + 4; }"


class TestEngineSelection:
    def test_auto_uses_fastpath_when_uninstrumented(self):
        program = compile_source(SMALL, CompilerOptions.baseline())
        machine = Machine(program, MachineConfig(engine="auto"))
        assert isinstance(machine.select_interp(), FastInterpreter)

    def test_auto_uses_instrumented_fastpath_with_observer(self):
        # The big behavior change of the instrumented translation: an
        # armed observer no longer forfeits the fastpath.
        from repro.obs import attach_observer
        program = compile_source(SMALL, CompilerOptions.wrapped())
        machine = Machine(program, MachineConfig(engine="auto"))
        attach_observer(machine, profile=True, forensics=True)
        assert isinstance(machine.select_interp(), FastInterpreter)

    def test_auto_uses_instrumented_fastpath_with_tracer(self):
        from repro.debug.trace import attach_tracer
        program = compile_source(SMALL, CompilerOptions.baseline())
        machine = Machine(program, MachineConfig(engine="auto"))
        attach_tracer(machine, capacity=64)
        assert isinstance(machine.select_interp(), FastInterpreter)

    def test_forced_fastpath_runs_instrumented(self):
        from repro.obs import attach_observer
        program = compile_source(SMALL, CompilerOptions.wrapped())
        machine = Machine(program, MachineConfig(engine="fastpath"))
        attach_observer(machine, profile=True, forensics=True)
        result = machine.run()
        assert result.exit_code == 7
        assert machine.engine_used == "fastpath"

    def test_engine_used_is_reported(self):
        program = compile_source(SMALL, CompilerOptions.baseline())
        machine = Machine(program, MachineConfig(engine="reference"))
        machine.run()
        assert machine.engine_used == "reference"

    def test_unknown_engine_rejected(self):
        program = compile_source(SMALL, CompilerOptions.baseline())
        machine = Machine(program, MachineConfig(engine="turbo"))
        with pytest.raises(ReproError, match="unknown engine"):
            machine.select_interp()

    def test_reference_forces_reference(self):
        program = compile_source(SMALL, CompilerOptions.baseline())
        machine = Machine(program, MachineConfig(engine="reference"))
        assert machine.select_interp() is machine.interp

    def test_legacy_engine_spellings_mean_auto(self, capsys):
        # "fastpath" and "superblock" named compiled tiers that are now
        # one; they must keep parsing everywhere an engine is accepted
        # and run exactly as auto.
        from repro.fuzz.__main__ import main as fuzz_main
        from repro.par.__main__ import main as par_main
        from repro.par.kinds import plan_resil
        from repro.resil.__main__ import main as resil_main
        from repro.serve.jobs import validate_spec
        from repro.vm.machine import ENGINE_ALIASES

        program = compile_source(SMALL, CompilerOptions.baseline())
        assert sorted(ENGINE_ALIASES) == ["fastpath", "superblock"]
        for legacy in ENGINE_ALIASES:
            machine = Machine(program, MachineConfig(engine=legacy))
            assert machine.run().exit_code == 7
            assert machine.engine_used == "fastpath"
            spec = validate_spec({"tenant": "t", "kind": "fuzz",
                                  "params": {"engine": legacy}})
            assert spec[3]["engine"] == legacy
            assert fuzz_main(["-n", "0", "--engine", legacy]) == 0
            # a bogus workload fails after argparse accepted the engine
            assert par_main(["bench", "--workloads", "bogus",
                             "--engine", legacy]) == 2
            with pytest.raises(SystemExit):
                resil_main(["--workloads", "bogus", "--engine", legacy])
            assert "unknown workload" in capsys.readouterr().err
        # plans record the spelling as given, so checkpoints and serve
        # jobs written with it keep their fingerprints
        plan = plan_resil(workloads=["anagram", "ks"],
                          schemes=["wrapped", "subheap"],
                          faults=["mac_corrupt", "tag_bit_flip"], seed=3,
                          engine="superblock")
        assert plan.fingerprint() == (
            "a5c37463eebecd86bd4abfcaa3ed6c63"
            "28162e3dcd3ff42fd545fb2cf7fa5fec")


# ---------------------------------------------------------------------------
# trap-for-trap equivalence on hand-written programs
# ---------------------------------------------------------------------------

OVERFLOW = """
int main(void) {
    int *p = (int *)malloc(4 * sizeof(int));
    int i;
    for (i = 0; i <= 4; i++) p[i] = i;   /* one past the end */
    return p[0];
}
"""

DIV_ZERO = """
int main(void) {
    int a = 7;
    int b = 0;
    return a / b;
}
"""

SPIN = """
int main(void) {
    int i = 0;
    while (1) i = i + 1;
    return i;
}
"""

RECURSE = """
int add(int n) { if (n == 0) return 0; return n + add(n - 1); }
int main(void) { return add(40); }
"""

LOOPY = """
int main(void) {
    int i;
    int sum = 0;
    for (i = 0; i < 100; i++) sum = sum + i;
    return sum & 0xFF;
}
"""

DOUBLE_FREE = """
int main(void) {
    int *p = (int *)malloc(4 * sizeof(int));
    int i;
    for (i = 0; i < 4; i++) p[i] = i;
    free(p);
    free(p);
    return 0;
}
"""


#: budget-sweep subject: call barriers to a guest function and to
#: builtins (malloc, ``clock``, free), a promote (the pointer loaded
#: from ``g``), checked stores, and lone-instruction blocks
SWEEP = """
int *g;
int bump(int i) { int *p = g; p[i] = i; return p[i]; }
int main(void) {
    int *p = (int *)malloc(4 * sizeof(int));
    int i;
    int s = 0;
    g = p;
    for (i = 0; i < 4; i++) s = s + bump(i);
    s = s + (clock() & 1);
    free(p);
    return s;
}
"""


class TestTrapEquivalence:
    @pytest.mark.parametrize("config", ["wrapped", "subheap"])
    def test_heap_overflow_trap_identical(self, config):
        run = _assert_engines_agree(OVERFLOW, config)
        assert run["trap"] is not None
        assert run["trap"][0] in ("PoisonTrap", "BoundsTrap")

    @pytest.mark.parametrize("config", ["baseline", "subheap"])
    def test_division_by_zero_identical(self, config):
        run = _assert_engines_agree(DIV_ZERO, config)
        assert run["trap"][:2] == ("SimTrap", "division by zero")

    def test_step_budget_message_and_counts_identical(self):
        # The budget trap must fire at the exact same instruction with
        # the same message, executed count, and pc under both engines —
        # this pins the fastpath's segment-exact accounting.
        run = _assert_engines_agree(SPIN, "baseline",
                                    max_instructions=10_000)
        assert run["trap"][0] == "StepBudgetExceeded"
        assert run["trap"][2] == 10_001  # executed counts the raiser

    def test_call_heavy_program_identical(self):
        _assert_engines_agree(RECURSE, "wrapped")

    def test_budget_trap_identical_inside_loop(self):
        # The budget fires mid-iteration, inside a fused loop body, where
        # the block hands its activation to the reference interpreter.
        run = _assert_engines_agree(LOOPY, "baseline",
                                    max_instructions=150)
        assert run["trap"][0] == "StepBudgetExceeded"
        assert run["trap"][2] == 151
        # Every budget from 1 to the run's length, so the budget fires
        # at every dynamic instruction: in each block, at each call
        # barrier, the promote and the checked stores; disarmed and
        # with the observer and its tracer armed.
        from dataclasses import replace
        program = compile_source(SWEEP, build_options("wrapped"))
        config = build_machine_config("wrapped")
        machine = Machine(program, config)
        assert machine.run().trap is None
        total = machine._fast.executed
        table = machine._fast._fused[("bump", False)]
        instrs = program.functions["bump"].instrs
        assert any(table[ip].__name__ == table[ip + 1].__name__ == "_b"
                   and instrs[ip].op not in (Op.CALL, Op.CALLPTR)
                   for ip in range(len(instrs))), \
            "no lone-instruction block"
        for budget in range(1, total + 1):
            limited = replace(config, max_instructions=budget)
            reference = _observables(program, limited, "reference")
            trap = reference["trap"]
            if budget < total:
                assert trap[0] == "StepBudgetExceeded"
                assert trap[2] == budget + 1
            else:
                assert trap is None
            assert _observables(program, limited, "auto") == reference, \
                f"disarmed auto diverged at budget {budget}"
            reference = _instrumented_observables(program, limited,
                                                  "reference")
            compiled = _instrumented_observables(program, limited, "auto")
            assert compiled.pop("engine_used") == "fastpath"
            assert reference.pop("engine_used") == "reference"
            assert compiled == reference, \
                f"armed auto diverged at budget {budget}"

    @pytest.mark.parametrize("temporal", ["check", "quarantine"])
    def test_temporal_modes_identical(self, temporal):
        # Lock-and-key probes sit inline in compiled deref sites; they
        # must stay byte-identical in both temporal modes, including a
        # trapping double free.
        from dataclasses import replace
        for source in (SELF_MODIFY_METADATA, DOUBLE_FREE):
            program = compile_source(source, build_options("subheap"))
            config = replace(build_machine_config("subheap"),
                             temporal=temporal)
            reference = _observables(program, config, "reference")
            for timeout in (None, ARMED_TIMEOUT):
                assert _observables(program, config, "auto",
                                    timeout) == reference, \
                    f"auto diverged ({temporal}, {timeout})"

    def test_fastpath_wall_clock_watchdog_fires(self):
        program = compile_source(SPIN, CompilerOptions.baseline())
        machine = Machine(program, MachineConfig(
            engine="auto", max_instructions=2_000_000_000))
        with pytest.raises(WorkloadTimeout):
            machine.run(timeout_seconds=0.05)


# ---------------------------------------------------------------------------
# the wall-clock watchdog on the fused tier
# ---------------------------------------------------------------------------

#: a loop whose body is a call: every iteration leaves and re-enters
#: main's dispatch loop through a call barrier
CALL_LOOP = """
int step(int x) { return x + 1; }
int main(void) {
    int i = 0;
    while (1) i = step(i);
    return i;
}
"""

#: unbounded recursion with zero-byte frames whose first instruction is
#: the call, so no block of it ever returns to a dispatch loop
CALL_FIRST_RECURSE = """
int spin(int n) { return spin(n); }
int main(void) { return spin(1); }
"""

#: deep recursion with small frames, a block before each call
DEEP_RECURSE = """
int down(int n) { if (n == 0) return 0; return down(n - 1) + 1; }
int main(void) { return down(1000000); }
"""

#: expires before the first poll; the reference polls first at 4096
EXPIRED = 1e-9


class TestDeadlineTier:
    """Deadline-armed runs dispatch through the fused table and poll the
    watchdog at block boundaries instead of single-stepping."""

    @staticmethod
    def _timeout(source: str, engine: str):
        program = compile_source(source, CompilerOptions.baseline())
        machine = Machine(program, MachineConfig(
            engine=engine, max_instructions=2_000_000_000))
        with pytest.raises(WorkloadTimeout) as info:
            machine.run(timeout_seconds=EXPIRED)
        return program, machine, info.value

    @pytest.mark.parametrize("engine", ["auto"])
    @pytest.mark.parametrize("guest", ["SPIN", "CALL_LOOP",
                                       "CALL_FIRST_RECURSE",
                                       "DEEP_RECURSE"])
    def test_watchdog_fires_within_one_block(self, engine, guest):
        source = globals()[guest]
        _, _, ref = self._timeout(source, "reference")
        assert ref.executed == 4096
        program, machine, exc = self._timeout(source, engine)
        longest = max(len(f.instrs) for f in program.functions.values())
        assert ref.executed <= exc.executed < ref.executed + longest
        assert exc.stats is not None

    def test_armed_run_builds_no_singles(self):
        program = compile_source(RECURSE, build_options("wrapped"))
        machine = Machine(program, build_machine_config("wrapped"))
        result = machine.run(timeout_seconds=ARMED_TIMEOUT)
        assert result.trap is None
        assert {key[0] for key in machine._fast._fused} >= {"main", "add"}

    def test_budget_fallback_resumes_in_reference(self):
        program = compile_source(SPIN, CompilerOptions.baseline())
        machine = Machine(program, MachineConfig(max_instructions=10_000))
        result = machine.run(timeout_seconds=ARMED_TIMEOUT)
        assert isinstance(result.trap, StepBudgetExceeded)
        assert result.trap.executed == 10_001

    def test_fault_injected_armed_runs_identical(self):
        # Campaign cells arm an injector and the watchdog together.
        from repro.resil.faults import FaultPlan
        program = compile_source(WORKLOADS["treeadd"].source(1),
                                 build_options("wrapped"))
        config = build_machine_config("wrapped", 200_000_000)
        for fault in ("metadata_corrupt", "mac_corrupt", "layout_corrupt"):
            plan = FaultPlan.single(fault, seed=7, period=3, start=2)
            reference = _observables(program, config, "reference",
                                     fault_plan=plan)
            assert _observables(program, config, "auto",
                                ARMED_TIMEOUT, plan) == reference, \
                f"auto diverged under {fault}"


#: twin programs differing only in where ``g`` lands: ``get``'s
#: translation inlines that address as a literal
GLOBAL_AT = """
int pad[%d];
int g;
int get(void) { return g; }
int main(void) {
    int i;
    for (i = 0; i < %d; i++) pad[i] = i;
    g = %d;
    return get() + pad[%d - 1];
}
"""


def _blocks(machine, name: str, armed: bool = False) -> list:
    """The compiled ``_b`` handlers of one fused translation."""
    return [h for h in machine._fast._fused[(name, armed)]
            if getattr(h, "__name__", "") == "_b"]


def _run_recurse_into(queue) -> None:
    program = compile_source(RECURSE, CompilerOptions.baseline())
    queue.put(Machine(program, MachineConfig(engine="auto")).run().exit_code)


class TestCodeCache:
    """Translations share code objects through the process-wide,
    source-keyed cache while each machine binds its own namespace;
    the IR stays plain data."""

    def test_fresh_compiles_share_code_objects(self):
        config = MachineConfig(engine="auto")
        machines = []
        for _ in range(2):
            program = compile_source(RECURSE, CompilerOptions.baseline())
            reference = _observables(program, config, "reference")
            assert _observables(program, config, "auto") == reference
            machine = Machine(program, config)
            machine.run()
            machines.append(machine)
        first, second = (_blocks(m, "add") for m in machines)
        assert first and len(first) == len(second)
        for old, new in zip(first, second):
            assert old is not new
            assert old.__code__ is new.__code__

    def test_inlined_global_address_keys_its_own_code(self):
        config = MachineConfig(engine="auto")
        runs = []
        for n in (4, 8):
            program = compile_source(GLOBAL_AT % (n, n, n, n),
                                     CompilerOptions.baseline())
            reference = _observables(program, config, "reference")
            assert reference["exit_code"] == 2 * n - 1
            assert _observables(program, config, "auto") == reference
            machine = Machine(program, config)
            machine.run()
            runs.append((machine, machine._fast.symbols["g"]))
        (first, g1), (second, g2) = runs
        assert g1 != g2
        entry1, entry2 = _blocks(first, "get")[0], _blocks(second, "get")[0]
        assert entry1.__code__ is not entry2.__code__
        assert g1 in entry1.__code__.co_consts
        assert g2 in entry2.__code__.co_consts

    def test_cap_bounds_the_cache_and_evicted_code_recompiles(
            self, monkeypatch):
        from repro.vm import fastpath

        cap = 4
        peak = []

        class Watched(dict):
            def __setitem__(self, key, value):
                super().__setitem__(key, value)
                peak.append(len(self))

        compiled = []
        real_compile = compile

        def counting_compile(*args, **kwargs):
            compiled.append(args[0])
            return real_compile(*args, **kwargs)

        monkeypatch.setattr(fastpath, "_CODE_CACHE", Watched())
        monkeypatch.setattr(fastpath, "_CODE_CACHE_CAP", cap)
        monkeypatch.setattr(fastpath, "compile", counting_compile,
                            raising=False)
        program = compile_source(WORKLOADS["treeadd"].source(1),
                                 build_options("wrapped"))
        config = build_machine_config("wrapped", 200_000_000)
        reference = _observables(program, config, "reference")
        assert _observables(program, config, "auto") == reference
        first = list(compiled)
        assert len(first) > cap
        assert max(peak) <= cap
        # the cache now holds only the last few sources: a fresh run
        # recompiles the evicted ones and stays byte-identical
        compiled.clear()
        assert _observables(program, config, "auto") == reference
        assert set(compiled) & set(first[:-cap])
        assert max(peak) <= cap
        assert len(fastpath._CODE_CACHE) <= cap

    def test_concurrent_translation_matches_reference(self, monkeypatch):
        import threading

        from repro.vm import fastpath

        monkeypatch.setattr(fastpath, "_CODE_CACHE", {})
        sources = [RECURSE, LOOPY, OVERFLOW, DOUBLE_FREE]
        config = build_machine_config("wrapped", 5_000_000)
        programs = [compile_source(src, build_options("wrapped"))
                    for src in sources]
        references = [_observables(p, config, "reference")
                      for p in programs]
        start = threading.Barrier(len(programs))
        results = [[] for _ in programs]
        errors = []

        def work(index):
            try:
                start.wait()
                for _ in range(3):
                    # a fresh compile each round: same text, new IR
                    program = compile_source(sources[index],
                                             build_options("wrapped"))
                    results[index].append(
                        _observables(program, config, "auto"))
            except Exception as exc:  # surfaced below
                errors.append(exc)

        threads = [threading.Thread(target=work, args=(i,))
                   for i in range(len(programs))]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)  # interleave the miss paths finely
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert not errors, errors
        for runs, reference in zip(results, references):
            assert runs == [reference] * 3

    @pytest.mark.skipif(not hasattr(os, "fork"), reason="needs fork")
    def test_forked_worker_translates_while_parent_holds_the_lock(
            self, monkeypatch):
        import multiprocessing

        from repro.vm import fastpath

        monkeypatch.setattr(fastpath, "_CODE_CACHE", {})
        ctx = multiprocessing.get_context("fork")
        queue = ctx.Queue()
        with fastpath._CODE_CACHE_LOCK:
            child = ctx.Process(target=_run_recurse_into, args=(queue,))
            child.start()
            try:
                exit_code = queue.get(timeout=30)
            finally:
                child.join(5)
                if child.is_alive():
                    child.kill()
        assert exit_code == (40 * 41 // 2) & 0xFF

    def test_observer_streams_stay_on_their_own_bus(self):
        from repro.obs import attach_observer

        config = build_machine_config("wrapped", 5_000_000)
        reference = _instrumented_observables(
            compile_source(OVERFLOW, build_options("wrapped")), config,
            "reference")["events"]
        assert reference
        machines, streams = [], []
        for _ in range(2):
            program = compile_source(OVERFLOW, build_options("wrapped"))
            machine = Machine(program, config)
            events = []
            obs = attach_observer(machine, profile=True, forensics=True)
            obs.bus.subscribe(lambda event, out=events:
                              out.append(event.to_dict()))
            machines.append(machine)
            streams.append(events)
        for machine in machines:
            machine.run()
        assert streams == [reference, reference]
        first, second = (_blocks(m, "main", True)
                         for m in machines)
        assert first
        for old, new in zip(first, second):
            assert old is not new
            assert old.__code__ is new.__code__

    def test_ir_stays_plain_data_after_a_run(self):
        import pickle
        program = compile_source(RECURSE, CompilerOptions.baseline())
        before = repr(program)
        pristine = pickle.dumps(program)
        # shallow copies share the (identity-compared) Instr objects
        twins = {name: dataclasses.replace(func)
                 for name, func in program.functions.items()}
        fields = {f.name for f in dataclasses.fields(IRFunction)}
        Machine(program, MachineConfig(engine="auto")).run()
        assert repr(program) == before
        assert pickle.dumps(program) == pristine
        assert program.functions == twins
        for func in program.functions.values():
            assert set(vars(func)) == fields
        clone = pickle.loads(pristine)
        result = Machine(clone, MachineConfig(engine="auto")).run()
        assert result.exit_code == (40 * 41 // 2) & 0xFF


# ---------------------------------------------------------------------------
# generated fuzz programs, clean and attacked
# ---------------------------------------------------------------------------

FUZZ_SEEDS = [0, 1, 2, 3, 7, 11, 23, 42]
FUZZ_CONFIGS = ["baseline", "subheap", "wrapped", "wrapped-np"]


class TestFuzzCorpusDifferential:
    @pytest.mark.parametrize("seed", FUZZ_SEEDS)
    def test_clean_programs_identical(self, seed):
        program = generate_program(seed)
        for config in FUZZ_CONFIGS:
            _assert_engines_agree(program.source, config)

    @pytest.mark.parametrize("seed", FUZZ_SEEDS[:4])
    def test_attacked_programs_identical(self, seed):
        # Attacked variants exercise the trap paths: the engines must
        # agree on whether each attack traps and with which trap.
        program = generate_program(seed)
        budget = 4
        for site in program.sites:
            for attack in attacks_for(site)[:2]:
                source = render(program.spec, (attack.sid, attack.index))
                for config in ("subheap", "wrapped"):
                    _assert_engines_agree(source, config)
                budget -= 1
                if budget == 0:
                    return


# ---------------------------------------------------------------------------
# real workloads
# ---------------------------------------------------------------------------

WORKLOAD_MATRIX = [
    ("treeadd", "baseline"), ("treeadd", "subheap"),
    ("bisort", "wrapped"), ("em3d", "subheap"),
    ("mst", "subheap-np"), ("anagram", "wrapped"),
    ("ft", "baseline"), ("coremark", "subheap"),
]


class TestWorkloadDifferential:
    @pytest.mark.parametrize("name,config", WORKLOAD_MATRIX,
                             ids=[f"{w}-{c}" for w, c in WORKLOAD_MATRIX])
    def test_workload_identical(self, name, config):
        source = WORKLOADS[name].source(1)
        run = _assert_engines_agree(source, config,
                                    max_instructions=200_000_000)
        assert run["trap"] is None
        # The IFP cache counters travel inside stats.ifp: their equality
        # above proves the promote cache and the MAC memo behave
        # structurally identically under both engines.
        assert "promote_cache_hits" in run["stats"]["ifp"]


# ---------------------------------------------------------------------------
# instrumented translation: event streams, forensics, traces, faults
# ---------------------------------------------------------------------------


def _instrumented_observables(program, config: MachineConfig,
                              engine: str, fault_plan=None, timeout=None):
    """Run one program with the full observer stack armed (profiler,
    forensics, event tail, auto-tracer) plus an event-capturing sink;
    returns every instrumented observable as plain data."""
    from dataclasses import replace

    from repro.obs import attach_observer

    machine = Machine(program, replace(config, engine=engine))
    if fault_plan is not None:
        from repro.resil.faults import FaultInjector
        FaultInjector(fault_plan).arm(machine)
    events = []
    obs = attach_observer(machine, profile=True, forensics=True)
    obs.bus.subscribe(lambda event: events.append(event.to_dict()))
    result = machine.run(timeout_seconds=timeout)
    trap = result.trap
    return {
        "engine_used": machine.engine_used,
        "exit_code": result.exit_code,
        "output": result.output,
        "trap": (type(trap).__name__, str(trap),
                 getattr(trap, "pc", None)) if trap else None,
        "stats": dataclasses.asdict(result.stats),
        "events": events,
        "trace": obs.tracer.snapshot(),
        "trace_recorded": obs.tracer.recorded,
        "forensics": [report.to_dict() for report in obs.reports],
        "profile": obs.profiler.to_dict(),
    }


def _assert_instrumented_engines_agree(source: str, config_name: str,
                                       max_instructions: int = 5_000_000,
                                       fault_plan=None):
    program = compile_source(source, build_options(config_name))
    config = build_machine_config(config_name, max_instructions)
    reference = _instrumented_observables(program, config, "reference",
                                          fault_plan)
    assert reference.pop("engine_used") == "reference"
    for timeout in (None, ARMED_TIMEOUT):
        fastpath = _instrumented_observables(program, config, "auto",
                                             fault_plan, timeout)
        assert fastpath.pop("engine_used") == "fastpath"
        assert fastpath == reference, (
            f"instrumented engines diverged under {config_name!r}"
            f" (timeout={timeout})")
    return reference


class TestInstrumentedDifferential:
    """The instrumented fastpath variant must reproduce the reference's
    event stream, tracer ring, forensics, and RunStats byte-for-byte —
    the equivalence contract extended to observability itself."""

    @pytest.mark.parametrize("config", ["wrapped", "subheap"])
    def test_trapping_program_full_obs_identical(self, config):
        run = _assert_instrumented_engines_agree(OVERFLOW, config)
        assert run["trap"] is not None
        assert run["events"], "observer saw no events"
        assert run["forensics"], "trap produced no forensics report"
        assert run["trace_recorded"] > 0

    @pytest.mark.parametrize("seed", FUZZ_SEEDS)
    def test_fuzz_corpus_event_streams_identical(self, seed):
        program = generate_program(seed)
        for config in FUZZ_CONFIGS:
            _assert_instrumented_engines_agree(program.source, config)

    @pytest.mark.parametrize("seed", FUZZ_SEEDS[:3])
    def test_attacked_programs_obs_identical(self, seed):
        program = generate_program(seed)
        budget = 3
        for site in program.sites:
            for attack in attacks_for(site)[:1]:
                source = render(program.spec, (attack.sid, attack.index))
                _assert_instrumented_engines_agree(source, "wrapped")
                budget -= 1
                if budget == 0:
                    return

    @pytest.mark.parametrize("name,config", WORKLOAD_MATRIX[:4],
                             ids=[f"{w}-{c}"
                                  for w, c in WORKLOAD_MATRIX[:4]])
    def test_workload_event_streams_identical(self, name, config):
        source = WORKLOADS[name].source(1)
        run = _assert_instrumented_engines_agree(
            source, config, max_instructions=200_000_000)
        assert run["trap"] is None

    @pytest.mark.parametrize("fault", ["tag_bit_flip",
                                       "metadata_corrupt",
                                       "mac_corrupt"])
    def test_fault_injection_outcomes_identical(self, fault):
        # Injectors hook the shared IFP unit, so the same seeded plan
        # must perturb both engines identically — including the
        # FaultEvents it emits and any trap it provokes.
        from repro.resil.faults import FaultPlan
        plan = FaultPlan.single(fault, seed=7, period=3, start=2)
        run = _assert_instrumented_engines_agree(
            WORKLOADS["treeadd"].source(1), "wrapped",
            max_instructions=200_000_000, fault_plan=plan)
        assert any(e["kind"] == "fault" for e in run["events"])

    def test_tracer_only_run_identical(self):
        # A tracer armed on its own rides on a bare observer: the armed
        # variant with only the tracer's record calls doing any work.
        from dataclasses import replace

        from repro.debug.trace import attach_tracer

        program = compile_source(WORKLOADS["anagram"].source(1),
                                 build_options("wrapped"))
        config = build_machine_config("wrapped", 200_000_000)
        rings = {}
        for engine in ("reference", "auto"):
            machine = Machine(program, replace(config, engine=engine))
            tracer = attach_tracer(machine, capacity=512)
            result = machine.run()
            assert result.trap is None
            rings[engine] = (tracer.recorded, tracer.snapshot())
        assert rings["reference"] == rings["auto"]

    def test_signature_keys_coexist_in_cache(self):
        # One FastInterpreter must hold disarmed and instrumented
        # translations side by side without cross-talk.
        from dataclasses import replace

        from repro.obs import attach_observer

        program = compile_source(WORKLOADS["treeadd"].source(1),
                                 build_options("wrapped"))
        config = replace(build_machine_config("wrapped", 200_000_000),
                         engine="auto")
        machine = Machine(program, config)
        plain = machine.run()
        assert machine.engine_used == "fastpath"
        armed = {key[1] for key in machine._fast._fused}
        assert armed == {False}
        machine2 = Machine(program, config)
        obs = attach_observer(machine2, profile=True, forensics=True)
        observed = machine2.run()
        assert machine2.engine_used == "fastpath"
        assert observed.exit_code == plain.exit_code
        assert observed.output == plain.output
        assert obs.bus.emitted > 0
        # an armed observer bypasses the promote cache: it sees every
        # promote computed live
        assert plain.stats.ifp.promote_cache_hits > 0
        assert observed.stats.ifp.promotes_total > 0
        assert observed.stats.ifp.promote_cache_hits == \
            observed.stats.ifp.promote_cache_misses == 0
        armed = {key[1] for key in machine2._fast._fused}
        assert armed <= {False, True} and True in armed


class TestInstrumentSlot:
    """The observer is the machine's only instrument: the tracer rides
    on it, and each function has one armed translation variant."""

    @staticmethod
    def _machine(engine: str) -> Machine:
        program = compile_source(WORKLOADS["anagram"].source(1),
                                 build_options("wrapped"))
        config = build_machine_config("wrapped", 200_000_000)
        return Machine(program, dataclasses.replace(config, engine=engine))

    def test_observer_keeps_an_earlier_tracer(self):
        from repro.debug.trace import attach_tracer
        from repro.obs import attach_observer

        rings = {}
        for engine in ("reference", "auto"):
            machine = self._machine(engine)
            tracer = attach_tracer(machine, capacity=512)
            obs = attach_observer(machine, profile=True, forensics=True)
            assert obs.tracer is tracer
            assert machine.obs is obs and machine.ifp.obs is obs
            assert machine.run().trap is None
            assert tracer.recorded > 0
            rings[engine] = (tracer.recorded, tracer.snapshot())
        assert rings["reference"] == rings["auto"]

    def test_tracer_attached_between_runs_rebinds_armed_variant(self):
        from repro.debug.trace import attach_tracer
        from repro.obs import attach_observer

        rings = {}
        for engine in ("reference", "auto"):
            machine = self._machine(engine)
            obs = attach_observer(machine, profile=False, forensics=False)
            assert obs.tracer is None
            assert machine.run().trap is None
            tracer = attach_tracer(machine, capacity=512)
            assert machine.obs is obs and obs.tracer is tracer
            assert machine.run().trap is None
            rings[engine] = (tracer.recorded, tracer.snapshot())
            if engine == "auto":
                names = {key[0] for key in machine._fast._fused}
                assert set(machine._fast._fused) <= {
                    (name, armed) for name in names
                    for armed in (False, True)}
                assert {key[1] for key in machine._fast._fused} == {True}
        assert rings["reference"][0] > 0
        assert rings["reference"] == rings["auto"]


# ---------------------------------------------------------------------------
# shared-cache invalidation (the fastpath's enabling caches)
# ---------------------------------------------------------------------------

SELF_MODIFY_METADATA = """
struct pair { int a; int b; };
int main(void) {
    struct pair *p = (struct pair *)malloc(sizeof(struct pair));
    int i;
    int sum = 0;
    for (i = 0; i < 64; i++) {
        p->a = i;
        sum = sum + p->a;
    }
    free(p);
    p = (struct pair *)malloc(sizeof(struct pair));
    p->b = sum;
    return p->b & 0xFF;
}
"""


class TestCacheCoherence:
    def test_alloc_free_realloc_identical(self):
        # free() + realloc rewrites object metadata in place; the
        # promote cache must observe the store snoop and miss, under
        # both engines, or stats/cycles would diverge here.
        for config in ("subheap", "wrapped"):
            _assert_engines_agree(SELF_MODIFY_METADATA, config)

    def test_promote_cache_counters_populate(self):
        program = compile_source(WORKLOADS["treeadd"].source(1),
                                 build_options("subheap"))
        machine = Machine(program, MachineConfig(engine="auto"))
        result = machine.run()
        ifp = result.stats.ifp
        assert ifp.promote_cache_hits + ifp.promote_cache_misses > 0
        assert ifp.promote_cache_hits > 0

    def test_cache_coherence_under_auto(self):
        program = compile_source(SELF_MODIFY_METADATA,
                                 build_options("subheap"))
        machine = Machine(program, build_machine_config("subheap"))
        result = machine.run()
        assert result.trap is None
        assert machine.engine_used == "fastpath"

    def test_clear_on_full_keeps_simulated_observables(self, monkeypatch):
        # A full promote cache is cleared; the dropped entries re-execute
        # on their next promote, so only host-side cache counters move.
        program = compile_source(WORKLOADS["treeadd"].source(1),
                                 build_options("subheap"))
        config = build_machine_config("subheap", 200_000_000)
        uncapped = _simulated(_observables(program, config, "reference"))
        cap = 8
        monkeypatch.setattr(ifp_unit, "_PROMOTE_CACHE_CAPACITY", cap)
        largest = [0]
        insert = ifp_unit.IFPUnit._insert_promote

        def checked_insert(unit, key, entry):
            insert(unit, key, entry)
            largest[0] = max(largest[0], len(unit._promote_cache))

        monkeypatch.setattr(ifp_unit.IFPUnit, "_insert_promote",
                            checked_insert)
        runs = {engine: _observables(program, config, engine)
                for engine in ("reference", "auto")}
        assert runs["auto"] == runs["reference"]
        assert runs["reference"]["stats"]["ifp"][
            "promote_cache_evictions"] > 0
        assert 0 < largest[0] <= cap
        assert _simulated(runs["reference"]) == uncapped

    def test_unmap_flushes_cached_promote(self):
        # Unmapping a pointer's metadata page must make the next promote
        # of that pointer fault as on a cold unit, not replay the cache.
        program = compile_source(SMALL, build_options("wrapped"))
        obj = 0x5000_0000

        def machine_with_object():
            machine = Machine(program, build_machine_config("wrapped"))
            machine.memory.map_range(obj, 0x1000)
            ifp = machine.ifp
            ifp.local_offset.write_metadata(machine.memory, obj, 24, 0,
                                            ifp.mac_key)
            return machine, ifp.local_offset.make_pointer(obj, obj, 24)

        def simulated_stats(unit):
            return {name: value
                    for name, value in dataclasses.asdict(unit.stats).items()
                    if name not in ifp_unit._CACHE_COUNTER_FIELDS}

        cold, pointer = machine_with_object()
        cold.memory.unmap_range(obj, 0x1000)
        with pytest.raises(MemoryFault) as cold_fault:
            cold.ifp.promote(pointer)

        machine, pointer = machine_with_object()
        ifp = machine.ifp
        ifp.promote(pointer)
        ifp.promote(pointer)
        assert ifp.stats.promote_cache_hits == 1
        machine.memory.unmap_range(obj, 0x1000)
        assert not ifp._promote_cache
        before = simulated_stats(ifp)
        with pytest.raises(MemoryFault) as fault:
            ifp.promote(pointer)
        assert str(fault.value) == str(cold_fault.value)
        assert ifp.stats.promote_cache_hits == 1
        assert ifp.stats.promote_cache_misses == 2
        after = simulated_stats(ifp)
        assert {name: after[name] - before[name]
                for name in after} == simulated_stats(cold.ifp)


# ---------------------------------------------------------------------------
# the promote cache against its oracle, the uncached promote
# ---------------------------------------------------------------------------

#: a use-after-free through a global: the freed pointer's second promote
#: must see the dead lock (or the poisoned metadata) live, not a replay
GLOBAL_UAF = """
struct cell { int v; };
struct cell *g;
int main(void) {
    g = (struct cell *)malloc(sizeof(struct cell));
    g->v = 5;
    int x = g->v;
    free(g);
    return x + g->v;
}
"""

ORACLE_WORKLOADS = [
    ("treeadd", "subheap"), ("em3d", "subheap"), ("health", "subheap"),
    ("mst", "wrapped"), ("perimeter", "wrapped"),
]

#: the differential seeds plus seeds whose sites carry the lifetime
#: attacks (uaf, double_free, realloc_stale)
ORACLE_FUZZ_SEEDS = FUZZ_SEEDS + [5, 38, 46, 56]


class TestPromoteOracle:
    """Every input runs twice: once as is, and once with
    ``IFPUnit.promote`` replaced by the uncached ``_promote_execute``.
    Bar the cache counters, the two runs must be identical — traps,
    output, simulated cycles and every IFP counter."""

    @staticmethod
    def _assert_matches_oracle(monkeypatch, observe):
        cached = _simulated(observe())
        with monkeypatch.context() as patch:
            patch.setattr(ifp_unit.IFPUnit, "promote",
                          ifp_unit.IFPUnit._promote_execute)
            oracle = observe()
        assert oracle["stats"]["ifp"]["promote_cache_misses"] == 0
        assert cached == _simulated(oracle)
        return cached

    def _assert_program_matches_oracle(self, monkeypatch, source,
                                       config_name, temporal="off"):
        program = compile_source(source, build_options(config_name))
        config = build_machine_config(config_name, temporal=temporal)
        return self._assert_matches_oracle(
            monkeypatch, lambda: _observables(program, config, "auto"))

    @pytest.mark.parametrize("temporal", ["off", "check", "quarantine"])
    @pytest.mark.parametrize("config", ["wrapped", "subheap"])
    def test_global_use_after_free(self, monkeypatch, config, temporal):
        run = self._assert_program_matches_oracle(
            monkeypatch, GLOBAL_UAF, config, temporal)
        if config == "wrapped" or temporal != "off":
            assert run["trap"] is not None

    @pytest.mark.parametrize("source", [SELF_MODIFY_METADATA, DOUBLE_FREE],
                             ids=["self_modify_metadata", "double_free"])
    @pytest.mark.parametrize("temporal", ["off", "check"])
    def test_metadata_rewrites(self, monkeypatch, source, temporal):
        for config in ("wrapped", "subheap"):
            self._assert_program_matches_oracle(
                monkeypatch, source, config, temporal)

    @pytest.mark.parametrize("name,config", ORACLE_WORKLOADS,
                             ids=[f"{w}-{c}" for w, c in ORACLE_WORKLOADS])
    def test_workload(self, monkeypatch, name, config):
        run = self._assert_program_matches_oracle(
            monkeypatch, WORKLOADS[name].source(1), config)
        assert run["trap"] is None

    @pytest.mark.parametrize("seed", ORACLE_FUZZ_SEEDS)
    def test_attacked_fuzz_programs(self, monkeypatch, seed):
        program = generate_program(seed)
        for site in program.sites:
            for attack in attacks_for(site, include_temporal=True):
                source = render(program.spec, (attack.sid, attack.index))
                for config in ("wrapped", "subheap"):
                    self._assert_program_matches_oracle(
                        monkeypatch, source, config, "check")

    def test_unmapped_metadata(self, monkeypatch):
        # Promote a pointer twice, unmap its metadata page, promote it
        # again: the last promote must fault as the oracle's does.
        program = compile_source(SMALL, build_options("wrapped"))
        obj = 0x5000_0000

        def observe():
            machine = Machine(program, build_machine_config("wrapped"))
            machine.memory.map_range(obj, 0x1000)
            ifp = machine.ifp
            ifp.local_offset.write_metadata(machine.memory, obj, 24, 0,
                                            ifp.mac_key)
            pointer = ifp.local_offset.make_pointer(obj, obj, 24)
            results = [repr(ifp.promote(pointer)) for _ in range(2)]
            machine.memory.unmap_range(obj, 0x1000)
            try:
                results.append(repr(ifp.promote(pointer)))
            except MemoryFault as fault:
                results.append(f"fault: {fault}")
            return {"results": results,
                    "stats": {"ifp": dataclasses.asdict(ifp.stats)}}

        run = self._assert_matches_oracle(monkeypatch, observe)
        assert run["results"][-1].startswith("fault: ")
