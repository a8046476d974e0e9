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
from hypothesis import example, given, settings, strategies as hst

from repro.cache import LINE_SHIFT
from repro.compiler import CompilerOptions, compile_source
from repro.compiler.ir import IRFunction, Op
from repro.errors import (
    MemoryFault, ReproError, StepBudgetExceeded, WorkloadTimeout,
)
from repro.eval.configs import build_machine_config, build_options
from repro.fuzz.attacks import attacks_for
from repro.fuzz.generator import generate_program, render
from repro.ifp import unit as ifp_unit
from repro.mem.layout import ADDRESS_MASK
from repro.vm import Machine, MachineConfig
from repro.vm.fastpath import FastInterpreter
from repro.vm.interp import Interpreter
from repro.workloads import WORKLOADS


#: the ``python -m repro.resil`` watchdog: long enough never to fire, so
#: a run armed with it must stay byte-identical to a disarmed reference
ARMED_TIMEOUT = 120.0


@pytest.fixture(autouse=True)
def _machines_keep_their_engine(monkeypatch):
    """A machine keeps no engine: the one a run selects lives as long as
    the run.  The tests here read it afterwards (its translation tables,
    ``executed`` and ``symbols``), so each machine holds on to it as
    ``machine._ran_on``."""
    select = Machine.select_interp

    def selecting(machine):
        machine._ran_on = engine = select(machine)
        return engine
    monkeypatch.setattr(Machine, "select_interp", selecting)


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
        machine = Machine(program, MachineConfig(engine="auto"))
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
        assert type(machine.select_interp()) is Interpreter

    def test_legacy_engine_spellings_rejected(self, capsys):
        # "fastpath" and "superblock" named compiled tiers that are now
        # one; every place that accepts an engine takes only ENGINES
        from repro.errors import InvalidJobSpec
        from repro.fuzz.__main__ import main as fuzz_main
        from repro.par.__main__ import main as par_main
        from repro.resil.__main__ import main as resil_main
        from repro.serve.jobs import validate_spec

        program = compile_source(SMALL, CompilerOptions.baseline())
        for legacy in ("fastpath", "superblock"):
            with pytest.raises(ReproError, match="unknown engine"):
                Machine(program, MachineConfig(engine=legacy)).run()
            with pytest.raises(InvalidJobSpec, match="engine"):
                validate_spec({"tenant": "t", "kind": "fuzz",
                               "params": {"engine": legacy}})
            for main, argv in ((fuzz_main, ["-n", "0"]),
                               (par_main, ["bench"]), (resil_main, [])):
                with pytest.raises(SystemExit) as exit_info:
                    main(argv + ["--engine", legacy])
                assert exit_info.value.code == 2
                assert "invalid choice" in capsys.readouterr().err


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
        total = machine._ran_on.executed
        table = machine._ran_on._fused[("bump", False)]
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
        assert {key[0] for key in machine._ran_on._fused} >= {"main", "add"}

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
    return [h for h in machine._ran_on._fused[(name, armed)]
            if getattr(h, "__name__", "") == "_b"]


#: two functions with one body: every block of one is a block of the
#: other, at the same ips
TWINS = """
int f(int n) { int s = 0; while (n > 0) { s = s + n; n = n - 1; } return s; }
int g(int n) { int s = 0; while (n > 0) { s = s + n; n = n - 1; } return s; }
int main(void) { return (f(5) + g(6)) & 255; }
"""


def _run_recurse_into(queue) -> None:
    program = compile_source(RECURSE, CompilerOptions.baseline())
    queue.put(Machine(program, MachineConfig(engine="auto")).run().exit_code)


class TestCodeCache:
    """Translations share code objects through the process-wide,
    block-keyed cache while each machine binds its own namespace;
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

    def test_identical_blocks_of_two_functions_share_code(self):
        program = compile_source(TWINS, CompilerOptions.baseline())
        config = MachineConfig(engine="auto")
        assert (_observables(program, config, "auto")
                == _observables(program, config, "reference"))
        machine = Machine(program, config)
        machine.run()
        first, second = _blocks(machine, "f"), _blocks(machine, "g")
        assert first and len(first) == len(second)
        for f_block, g_block in zip(first, second):
            assert f_block is not g_block
            assert f_block.__code__ is g_block.__code__
            # each binds its own function's namespace
            assert f_block.__globals__["FN"] == "f"
            assert g_block.__globals__["FN"] == "g"

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
            runs.append((machine, machine._ran_on.symbols["g"]))
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

        monkeypatch.setattr(fastpath, "_BLOCK_CACHE", Watched())
        monkeypatch.setattr(fastpath, "_BLOCK_CACHE_CAP", cap)
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
        assert len(fastpath._BLOCK_CACHE) <= cap

    def test_concurrent_translation_matches_reference(self, monkeypatch):
        import threading

        from repro.vm import fastpath

        monkeypatch.setattr(fastpath, "_BLOCK_CACHE", {})
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

        monkeypatch.setattr(fastpath, "_BLOCK_CACHE", {})
        ctx = multiprocessing.get_context("fork")
        queue = ctx.Queue()
        with fastpath._BLOCK_CACHE_LOCK:
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
                              engine: str, fault_plan=None, timeout=None,
                              tracer_capacity: int = 256):
    """Run one program with the full observer stack armed (profiler,
    forensics, event tail, auto-tracer unless ``tracer_capacity`` is 0)
    plus an event-capturing sink; returns every instrumented observable
    as plain data."""
    from dataclasses import replace

    from repro.obs import attach_observer

    machine = Machine(program, replace(config, engine=engine))
    if fault_plan is not None:
        from repro.resil.faults import FaultInjector
        FaultInjector(fault_plan).arm(machine)
    events = []
    obs = attach_observer(machine, profile=True, forensics=True,
                          tracer_capacity=tracer_capacity)
    obs.bus.subscribe(lambda event: events.append(event.to_dict()))
    result = machine.run(timeout_seconds=timeout)
    trap = result.trap
    tracer = obs.tracer
    return {
        "engine_used": machine.engine_used,
        "exit_code": result.exit_code,
        "output": result.output,
        "trap": (type(trap).__name__, str(trap),
                 getattr(trap, "pc", None)) if trap else None,
        "stats": dataclasses.asdict(result.stats),
        "events": events,
        "trace": tracer.snapshot() if tracer is not None else None,
        "trace_recorded": tracer.recorded if tracer is not None else 0,
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
        armed = {key[1] for key in machine._ran_on._fused}
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
        armed = {key[1] for key in machine2._ran_on._fused}
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

    def test_a_finished_machine_refuses_a_second_run(self):
        # A tracer attached after a run arms nothing on that machine: it
        # refuses to run again, and a new machine takes the tracer.
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
            with pytest.raises(ReproError, match="runs once"):
                machine.run()
            assert tracer.recorded == 0
            machine = self._machine(engine)
            attach_observer(machine, profile=False, forensics=False)
            tracer = attach_tracer(machine, capacity=512)
            assert machine.run().trap is None
            rings[engine] = (tracer.recorded, tracer.snapshot())
            if engine == "auto":
                names = {key[0] for key in machine._ran_on._fused}
                assert set(machine._ran_on._fused) <= {
                    (name, armed) for name in names
                    for armed in (False, True)}
                assert {key[1] for key in machine._ran_on._fused} == {True}
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
                                            ifp.mac)
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

#: many pointers into one subheap block, with subobject indices 0 (the
#: ``next`` loads), that of ``v`` and that of a ``w`` element: after its
#: first promote each (block, index) pair's metadata comes from its
#: block entry
BLOCK_SHARING = """
struct node { long v; long w[3]; struct node *next; };
struct node *head;
long *g;
int main(void) {
    struct node *n;
    long s = 0;
    int i;
    for (i = 0; i < 12; i++) {
        n = (struct node *)malloc(sizeof(struct node));
        n->v = i;
        n->w[i % 3] = i;
        n->next = head;
        head = n;
    }
    for (n = head; n != NULL; n = n->next) {
        if (n->v % 2) g = &n->v; else g = &n->w[n->v % 3];
        long *w = g;
        s = s + n->v + *w;
    }
    return (int)(s & 255);
}
"""

#: ``first - 3 - i`` points into the first slot's block record, outside
#: the slot array: its promote stops before the layout walk, interleaved
#: with in-slot pointers of the same subobject index that walk
OUTSIDE_SLOTS = """
struct pair { long a; long b; };
long *g;
long *keep[6];
int main(void) {
    long s = 0;
    int i;
    long *first = &((struct pair *)malloc(sizeof(struct pair)))->b;
    for (i = 0; i < 3; i++) {
        struct pair *p = (struct pair *)malloc(sizeof(struct pair));
        p->b = i;
        keep[2 * i] = first - 3 - i;
        keep[2 * i + 1] = &p->b;
    }
    for (i = 0; i < 6; i++) {
        g = keep[i];
        long *r = g;
        if (i % 2) s = s + *r;
    }
    return (int)s;
}
"""

#: ``b``'s slot is freed and reused while its block has an entry; the
#: last promote of the stale ``b`` must probe the lock live
TEMPORAL_BLOCK_REUSE = """
struct cell { long v; };
struct cell *g;
int main(void) {
    struct cell *a = (struct cell *)malloc(sizeof(struct cell));
    struct cell *b = (struct cell *)malloc(sizeof(struct cell));
    struct cell *c = (struct cell *)malloc(sizeof(struct cell));
    a->v = 1;
    b->v = 2;
    c->v = 3;
    g = b;
    long x = g->v;
    free(b);
    struct cell *d = (struct cell *)malloc(sizeof(struct cell));
    d->v = 4;
    g = d;
    x = x + g->v + a->v + c->v;
    g = b;
    return (int)(x + g->v);
}
"""

#: a one-byte store at a given offset from ``g`` through an untagged
#: pointer: offset 31 (wrapped) and -1 (subheap) hit the last byte of
#: ``g``'s metadata, so its next promote must see the corruption; the
#: bytes just outside the metadata (wrapped 15 and 32, subheap 0) share
#: its line but no byte any promote read
METADATA_BYTE_STORE = """
struct pair { long a; long b; };
struct pair *g;
int main(void) {
    g = (struct pair *)malloc(sizeof(struct pair));
    g->a = 1;
    char *q = (char *)(((long)g & 0xFFFFFFFFFFFF) + %d);
    *q = *q + 1;
    return (int)g->a;
}
"""

#: (config, offset, overlaps the metadata) for :data:`METADATA_BYTE_STORE`
METADATA_BYTE_OFFSETS = [("wrapped", 31, True), ("subheap", -1, True),
                         ("wrapped", 15, False), ("wrapped", 32, False),
                         ("subheap", 0, False)]

#: the 320-byte ``big`` opens a new subheap size class, so the runtime
#: writes a subheap control register between promotes of ``a`` and ``b``
NEW_SIZE_CLASS = """
struct small { long v; };
struct big { long w[40]; };
struct small *g;
int main(void) {
    struct small *a = (struct small *)malloc(sizeof(struct small));
    struct small *b = (struct small *)malloc(sizeof(struct small));
    a->v = 1;
    g = b;
    g->v = 2;
    struct big *h = (struct big *)malloc(sizeof(struct big));
    h->w[3] = 5;
    g = a;
    long x = g->v;
    g = b;
    return (int)(x + g->v + h->w[3]);
}
"""


class TestPromoteOracle:
    """Every input runs twice: once as is, and once with
    ``IFPUnit.promote`` replaced by the uncached ``_promote_execute``.
    Bar the cache counters, the two runs must be identical — traps,
    output, simulated cycles, every IFP counter, and the L1's sets and
    counters — under both engines."""

    @staticmethod
    def _assert_matches_oracle(monkeypatch, observe):
        """Returns the cached run's simulated observables, plus its
        cache counters under ``"cache"``."""
        cached = observe()
        counters = {name: cached["stats"]["ifp"][name]
                    for name in ifp_unit._CACHE_COUNTER_FIELDS}
        cached = _simulated(cached)
        with monkeypatch.context() as patch:
            patch.setattr(ifp_unit.IFPUnit, "promote",
                          ifp_unit.IFPUnit._promote_execute)
            oracle = observe()
        assert oracle["stats"]["ifp"]["promote_cache_misses"] == 0
        assert cached == _simulated(oracle)
        cached["cache"] = counters
        return cached

    def _assert_program_matches_oracle(self, monkeypatch, source,
                                       config_name, temporal="off"):
        program = compile_source(source, build_options(config_name))
        config = build_machine_config(config_name, temporal=temporal)
        runs = [self._assert_matches_oracle(
            monkeypatch,
            lambda: _hierarchy_state(program, config, engine, False))
            for engine in ("reference", "auto")]
        assert runs[1] == runs[0]
        return runs[1]

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

    @pytest.mark.parametrize("temporal", ["off", "check"])
    def test_block_entry_serves_new_pointers(self, monkeypatch, temporal):
        for config in ("wrapped", "subheap"):
            run = self._assert_program_matches_oracle(
                monkeypatch, BLOCK_SHARING, config, temporal)
            assert run["trap"] is None
            assert run["stats"]["ifp"]["narrow_success"] == 12
        assert run["cache"]["promote_block_hits"] > 12

    @pytest.mark.parametrize("temporal", ["off", "check"])
    def test_pointer_outside_slot_array(self, monkeypatch, temporal):
        run = self._assert_program_matches_oracle(
            monkeypatch, OUTSIDE_SLOTS, "subheap", temporal)
        ifp = run["stats"]["ifp"]
        assert run["exit_code"] == 3
        assert ifp["promotes_metadata_invalid"] == 3
        assert ifp["narrow_success"] == ifp["narrow_attempts"] == 6
        assert run["cache"]["promote_block_hits"] >= 4

    def test_temporal_reuse_inside_a_block(self, monkeypatch):
        for config in ("wrapped", "subheap"):
            run = self._assert_program_matches_oracle(
                monkeypatch, TEMPORAL_BLOCK_REUSE, config, "check")
            assert run["trap"][0] == "TemporalViolation"
        assert run["cache"]["promote_block_hits"] > 0

    @pytest.mark.parametrize("temporal", ["off", "check"])
    @pytest.mark.parametrize("config,offset,overlaps", METADATA_BYTE_OFFSETS,
                             ids=[f"{c}{o:+d}"
                                  for c, o, _ in METADATA_BYTE_OFFSETS])
    def test_store_into_dependency_line(self, monkeypatch, config, offset,
                                        overlaps, temporal):
        run = self._assert_program_matches_oracle(
            monkeypatch, METADATA_BYTE_STORE % offset, config, temporal)
        assert (run["trap"] is not None) == overlaps
        assert (run["cache"]["promote_cache_invalidations"] > 0) == overlaps

    def test_control_register_write(self, monkeypatch):
        # A new size class takes a subheap control register mid-run.
        run = self._assert_program_matches_oracle(
            monkeypatch, NEW_SIZE_CLASS, "subheap")
        assert run["exit_code"] == 8
        # Moving the global table's base changes what every global-table
        # pointer promotes to: no promote may replay a result fetched
        # under the old base.
        from repro.cache.hierarchy import HierarchyConfig
        from repro.mem import Memory

        tables = (0x10000, 0x12000)

        def observe():
            memory = Memory()
            memory.map_range(0x10000, 0x8000)
            unit = ifp_unit.IFPUnit(memory, HierarchyConfig().build())
            scheme = unit.global_table
            for number, table in enumerate(tables):
                for index in range(4):
                    scheme.write_row(memory, table, index,
                                     0x14000 + 64 * index,
                                     16 + 8 * (index + number), 0)
            pointers = [scheme.make_pointer(0x14000 + 64 * index + 4, index)
                        for index in range(4)]
            results = []
            for table in tables:
                unit.control.global_table_base = table
                for _ in range(2):
                    results += [repr(unit.promote(p)) for p in pointers]
            l1d = unit.port.hierarchy.l1d
            return {"results": results,
                    "stats": {"ifp": dataclasses.asdict(unit.stats)},
                    "l1d_sets": [list(lines) for lines in l1d._sets],
                    "l1d_stats": dataclasses.asdict(l1d.stats)}

        run = self._assert_matches_oracle(monkeypatch, observe)
        assert run["results"][0] != run["results"][8]
        assert run["cache"]["promote_cache_hits"] == 8

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
                                            ifp.mac)
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

    def test_replayed_fetch_sequences(self, monkeypatch):
        # Ten objects whose metadata share one L1 set (more than its
        # eight ways), promoted round robin: replays meet the L1 on its
        # MRU line, on another way and not at all, start with the first
        # fetch's line buffered and not, and walk layout tables whose
        # fetches cross lines (index 5).
        from repro.cache.hierarchy import HierarchyConfig
        from repro.ifp.layout import LayoutEntry, LayoutTable
        from repro.mem import Memory

        layout = 0x1002A
        objects = [0x11000 + 4096 * i for i in range(10)]
        seen = set()

        def observe():
            memory = Memory()
            memory.map_range(0x10000, 0x20000)
            unit = ifp_unit.IFPUnit(memory, HierarchyConfig().build())
            memory.write_bytes(layout, LayoutTable("S", [
                LayoutEntry(0, 0, 24, 24), LayoutEntry(0, 0, 4, 4),
                LayoutEntry(0, 4, 20, 8), LayoutEntry(2, 0, 4, 4),
                LayoutEntry(2, 4, 8, 4), LayoutEntry(0, 20, 24, 4),
            ]).serialize())
            scheme = unit.local_offset
            for obj in objects:
                scheme.write_metadata(memory, obj, 24, layout, unit.mac)
            pointers = []
            for obj in objects:
                pointers += [scheme.make_pointer(obj, obj, 24),
                             scheme.make_pointer(obj, obj, 24),
                             scheme.make_pointer(obj + 20, obj, 24, 5),
                             scheme.make_pointer(obj + 16, obj, 24, 4),
                             scheme.make_pointer(obj + 8, obj, 24, 3)]
            results = []
            for _ in range(3):
                for pointer in pointers:
                    entry = unit._promote_cache.get(
                        (pointer, unit.control.version))
                    if entry is not None:
                        first_line, every, later, _final = entry[-4:]
                        buffered = unit.port._buffered_line == first_line
                        seen.add("buffered" if buffered else "unbuffered")
                        for l1_line, lines, _a, _s in (
                                later if buffered else every):
                            if lines and lines[-1] == l1_line:
                                seen.add("mru")
                            elif l1_line in lines:
                                seen.add("other way")
                            else:
                                seen.add("out of line")
                        if len(every) > 1:
                            seen.add("crossing")
                    results.append(repr(unit.promote(pointer)))
            l1d = unit.port.hierarchy.l1d
            port = unit.port
            return {"results": results,
                    "stats": {"ifp": dataclasses.asdict(unit.stats)},
                    "l1d_sets": [list(lines) for lines in l1d._sets],
                    "l1d_stats": dataclasses.asdict(l1d.stats),
                    "port": (port.cycles, port.loads, port._buffered_line)}

        run = self._assert_matches_oracle(monkeypatch, observe)
        assert seen == {"buffered", "unbuffered", "mru", "other way",
                        "out of line", "crossing"}
        assert all("narrowed=True" in result
                   for result in run["results"][2::5])

    def test_recorded_and_compacted_fetches(self):
        # a miss traces every load; compaction keeps its first fetch even
        # when the line buffer serves it, and no later fetch that stays
        # in the buffered line; a first fetch spanning two 64-byte lines
        # reaches the L1 whatever line is buffered, so no line selects
        # ``later``
        from repro.cache.hierarchy import HierarchyConfig
        from repro.mem import Memory

        memory = Memory()
        memory.map_range(0x10000, 0x1000)
        port = ifp_unit.MetadataPort(memory, HierarchyConfig().build())
        port.load(0x10000, 8)
        port.begin_trace()
        port.load(0x10008, 8)
        port.load(0x10010, 8)
        port.add_cycles(3)
        loads, extra, compacted = port.end_trace()
        assert (loads, extra) == ([(0x10008, 8), (0x10010, 8)], 3)
        assert len(loads) == 2
        assert compacted == port.compact(loads)
        ranges, first_line, every, later, final_line = compacted
        assert ranges == ((0x10008, 0x10018),)
        assert [slot[2:] for slot in every] == [(0x10008, 8)]
        assert first_line == final_line == 0x400 and later == ()
        port.begin_trace()
        for address, size in ((0x1003C, 8), (0x10044, 2), (0x10080, 4)):
            port.load(address, size)
        loads, extra, compacted = port.end_trace()
        assert (loads, extra) == ([(0x1003C, 8), (0x10044, 2),
                                   (0x10080, 4)], 0)
        assert len(loads) == 3
        assert compacted == port.compact(loads)
        ranges, first_line, every, later, final_line = compacted
        assert ranges == ((0x1003C, 0x10046), (0x10080, 0x10084))
        assert first_line == -2 and final_line == 0x402
        assert [slot[2] for slot in every] == [0x1003C, 0x10080]
        assert later == every[1:]


class TestPromoteCacheRecomputation:
    """After a run, every promote-cache entry reachable under the final
    control and registry versions must agree with a promote recomputed
    on the final memory, and the dependency index must list exactly
    the bytes the live entries read."""

    @staticmethod
    def _recomputed_reads(unit, pointer):
        """The result of ``pointer``'s promote recomputed as
        :meth:`IFPUnit.dry_run` does, with the bytes its loads read."""
        import copy
        from repro.ifp.mac import MacCache
        probe = copy.copy(unit)
        probe.stats = ifp_unit.IFPUnitStats()
        probe.mac = MacCache(unit.mac_key, probe.stats)
        probe.port = ifp_unit.MetadataPort(unit.port.memory)
        probe.port.begin_trace()
        result = probe._promote_execute(pointer)
        _loads, _extra, compacted = probe.port.end_trace()
        return result, compacted[0]

    @staticmethod
    def _recomputed_block(unit, key):
        """A subheap block entry's fetch halves recomputed on the final
        memory, with the bytes they read."""
        from repro.ifp.mac import MacCache
        from repro.ifp.narrow import fetch_chain
        register, block_base, subobject_index, _version = key
        port = ifp_unit.MetadataPort(unit.port.memory)
        port.begin_trace()
        record, mac_checked = unit.subheap.fetch(
            unit.control.subheap_region(register), block_base, port,
            MacCache(unit.mac_key, ifp_unit.IFPUnitStats()))
        record_loads = len(port._trace)
        chain = fetch_chain(port, unit.config, record[4], subobject_index) \
            if record is not None and subobject_index else None
        loads, _extra, _compacted = port.end_trace()
        return record, mac_checked, chain, loads, record_loads

    def _assert_cache_matches(self, unit):
        cache = unit._promote_cache
        control = unit.control.version
        registry = unit.temporal
        live = ((control,) if registry is None
                else (control, registry.version))
        reads = {}
        checked = 0
        for key, entry in cache.items():
            if len(key) == 4:
                # a subheap block entry
                if key[3] != control:
                    continue
                record, mac_checked, chain, loads, record_loads = \
                    self._recomputed_block(unit, key)
                assert (entry[1], entry[2]) == (record, mac_checked)
                if entry[5] is None:
                    loads = loads[:record_loads]
                else:
                    assert entry[4] == chain
                reads[key] = unit.port.compact(loads)[0]
            else:
                if key[1:] != live:
                    continue
                result = unit.dry_run(key[0])
                assert entry[:5] == (result.pointer, result.bounds,
                                     result.outcome, result.narrowed,
                                     result.narrow_attempted)
                traced, ranges = self._recomputed_reads(unit, key[0])
                assert traced == result
                if ranges:
                    reads[key] = ranges
            checked += 1
        listed = {}
        for line, bucket in unit._promote_deps.items():
            assert bucket
            for ranges, keys in bucket.items():
                assert keys
                assert any(lo >> LINE_SHIFT <= line <= (hi - 1) >> LINE_SHIFT
                           for lo, hi in ranges)
                for key in keys:
                    assert key in cache
                    assert listed.setdefault(key, ranges) == ranges
        for key, ranges in reads.items():
            assert listed[key] == ranges
        return checked

    @pytest.mark.parametrize("engine", ["reference", "auto"])
    @pytest.mark.parametrize("temporal", ["off", "check"])
    @pytest.mark.parametrize("config", ["subheap", "wrapped"])
    @pytest.mark.parametrize("name", ["treeadd", "perimeter"])
    def test_live_entries_match_recomputation(self, name, config, temporal,
                                              engine):
        program = compile_source(WORKLOADS[name].source(1),
                                 build_options(config))
        machine = Machine(program, build_machine_config(
            config, temporal=temporal, engine=engine))
        result = machine.run()
        assert result.trap is None
        assert self._assert_cache_matches(machine.ifp) > 0
        if config == "subheap":
            assert any(len(key) == 4 for key in machine.ifp._promote_cache)

    @pytest.mark.parametrize("engine", ["reference", "auto"])
    @pytest.mark.parametrize("config,offset,overlaps", METADATA_BYTE_OFFSETS,
                             ids=[f"{c}{o:+d}"
                                  for c, o, _ in METADATA_BYTE_OFFSETS])
    def test_entries_after_a_store_match_recomputation(
            self, config, offset, overlaps, engine):
        program = compile_source(METADATA_BYTE_STORE % offset,
                                 build_options(config))
        machine = Machine(program, build_machine_config(
            config, engine=engine))
        result = machine.run()
        assert (result.trap is not None) == overlaps
        assert (result.stats.ifp.promote_cache_invalidations > 0) == overlaps
        assert self._assert_cache_matches(machine.ifp) > 0

    @pytest.mark.parametrize("engine", ["reference", "auto"])
    def test_recorded_walks_match_recomputation(self, engine):
        program = compile_source(BLOCK_SHARING, build_options("subheap"))
        machine = Machine(program, build_machine_config(
            "subheap", engine=engine))
        assert machine.run().trap is None
        assert self._assert_cache_matches(machine.ifp) > 0
        assert any(len(key) == 4 and entry[5] is not None
                   for key, entry in machine.ifp._promote_cache.items())


# ---------------------------------------------------------------------------
# the block-keyed code cache against its uncached miss path
# ---------------------------------------------------------------------------

class _CountedCache(dict):
    """The block cache, counting the lookups that hit."""

    hits = 0

    def get(self, key, default=None):
        entry = super().get(key, default)
        if entry is not None:
            self.hits += 1
        return entry


class _AlwaysMiss(dict):
    """A block cache that never hits: every translation emits and
    compiles its blocks afresh."""

    def get(self, key, default=None):
        return default

    def __setitem__(self, key, value):
        pass


#: subobject indices past 32 and 128 (``ifpidx`` on a local-offset and
#: on a subheap pointer wraps them in narrower fields), a local object
#: (``ifpmac``) and a promote of a pointer loaded back from a global;
#: the exit code folds in both pointers' tags
SUBOBJECT_TAGS = """
struct big {
%s};
struct big *g;
int main(void) {
    struct big s;
    struct big *h = (struct big *)malloc(sizeof(struct big));
    struct big *sp = &s;
    int *p = &sp->f40;
    int *q = &h->f135;
    g = h;
    struct big *r = g;
    r->f1 = 3;
    return (int)((((long)p >> 48) + ((long)q >> 48) + r->f1) & 255);
}
""" % "".join(f"    int f{i};\n" for i in range(140))


ARG_ORDER = """
int sub(int a, int b) { return a - b; }
int f(int a, int b) { return sub(%s); }
int main(void) { return f(9, 2) & 255; }
"""


class TestBlockCache:
    """Every input sequence runs under a fresh process-wide block
    cache, then with the cache replaced by its uncached path (every
    lookup misses), twice each: the second round compiles every program
    afresh, so it translates new IR for the same functions.  Every
    observable must agree, and the cached rounds must have hit."""

    @staticmethod
    def _assert_matches_uncached(monkeypatch, observe):
        from repro.vm import fastpath

        runs = {}
        for name, cache in (("cached", _CountedCache()),
                            ("uncached", _AlwaysMiss())):
            with monkeypatch.context() as patch:
                patch.setattr(fastpath, "_BLOCK_CACHE", cache)
                runs[name] = [observe() for _ in range(2)]
            if name == "cached":
                assert cache.hits > 0 and len(cache) > 0
        assert runs["cached"] == runs["uncached"]
        return runs["cached"][0]

    @pytest.mark.parametrize("temporal_family", [False, True],
                             ids=["spatial", "cwe415_416"])
    def test_juliet(self, monkeypatch, temporal_family):
        from repro.juliet.cases import generate_cases, generate_temporal_cases

        if temporal_family:
            cases = [case for case in generate_temporal_cases()
                     if case.flow in ("01", "03")]
        else:
            cases = [case for case in generate_cases() if case.flow == "02"]

        def observe():
            out = []
            for config_name in ("wrapped", "subheap"):
                programs = [compile_source(case.source,
                                           build_options(config_name))
                            for case in cases]
                for temporal in ("off", "check", "quarantine"):
                    config = build_machine_config(config_name, 2_000_000,
                                                  temporal=temporal)
                    out += [(temporal, case.is_bad,
                             _observables(program, config, "auto"))
                            for case, program in zip(cases, programs)]
            return out

        runs = self._assert_matches_uncached(monkeypatch, observe)
        # under check and quarantine every bad case traps, no good one
        for temporal, is_bad, run in runs:
            if temporal != "off":
                assert (run["trap"] is not None) == is_bad

    def test_observer_with_and_without_tracer(self, monkeypatch):
        def observe():
            out = []
            for config_name in ("wrapped", "subheap"):
                program = compile_source(OVERFLOW,
                                         build_options(config_name))
                config = build_machine_config(config_name, 5_000_000)
                out += [
                    _observables(program, config, "auto"),
                    _instrumented_observables(program, config, "auto"),
                    _instrumented_observables(program, config, "auto",
                                              tracer_capacity=0),
                    _observables(program, config, "auto"),
                ]
            return out

        runs = self._assert_matches_uncached(monkeypatch, observe)
        assert runs[1]["trace"] and runs[1]["events"]
        assert runs[2]["trace"] is None and runs[2]["events"]

    def test_resil_fault_cell(self, monkeypatch):
        from repro.resil.matrix import CampaignRunner

        def observe():
            return [CampaignRunner(timeout_seconds=ARMED_TIMEOUT)
                    .run_cell(WORKLOADS["ks"], scheme, fault, 7).to_dict()
                    for scheme, fault in (("local_offset", "tag_bit_flip"),
                                          ("subheap", "metadata_corrupt"))]

        self._assert_matches_uncached(monkeypatch, observe)

    def test_global_addresses(self, monkeypatch):
        def observe():
            config = MachineConfig(engine="auto")
            return [_observables(
                compile_source(GLOBAL_AT % (n, n, n, n),
                               CompilerOptions.baseline()), config, "auto")
                for n in (4, 8, 4)]

        runs = self._assert_matches_uncached(monkeypatch, observe)
        assert [run["exit_code"] for run in runs] == [7, 15, 7]

    def test_call_argument_registers(self, monkeypatch):
        # twin ``f``s whose IR differs only in the call's argument list
        def observe():
            config = MachineConfig(engine="auto")
            return [_observables(
                compile_source(ARG_ORDER % args, CompilerOptions.baseline()),
                config, "auto")
                for args in ("a, b", "b, a", "a, b")]

        runs = self._assert_matches_uncached(monkeypatch, observe)
        assert [run["exit_code"] for run in runs] == [7, 249, 7]

    def test_machine_switches(self, monkeypatch):
        # one program under every machine setting the emitted text
        # specializes on: promote as a move, subobject field widths and
        # MAC latency
        from dataclasses import replace

        from repro.ifp.config import DEFAULT_CONFIG

        base = build_machine_config("wrapped", 2_000_000)
        configs = [
            base,
            replace(base, no_promote=True),
            replace(base, ifp=replace(DEFAULT_CONFIG, local_offset_bits=7,
                                      local_subobj_bits=5)),
            replace(base, ifp=replace(DEFAULT_CONFIG, subheap_reg_bits=5,
                                      subheap_subobj_bits=7)),
            replace(base, ifp=replace(DEFAULT_CONFIG, mac_cycles=5)),
        ]

        def observe():
            out = []
            for config_name in ("wrapped", "subheap"):
                program = compile_source(SUBOBJECT_TAGS,
                                         build_options(config_name))
                out += [_observables(program, config, "auto")
                        for config in configs]
            return out

        runs = self._assert_matches_uncached(monkeypatch, observe)
        # under subheap, each narrower subobject field wraps an index
        subheap = [run["exit_code"] for run in runs[len(configs):]]
        assert subheap[2] != subheap[0] and subheap[3] != subheap[0]

    def test_switch_readers_name_every_op_whose_text_reads_a_switch(
            self, monkeypatch):
        # A block keys a switch only when it holds an op the switch's
        # ``_SWITCH_READERS`` entry names.  Emit every op, in field
        # variants, as a one-instruction block under pairs of machines
        # whose switches differ in one place: wherever the text
        # differs, the op must be a reader of that switch.
        import itertools
        from dataclasses import replace

        from repro.compiler.ir import Instr
        from repro.ifp.config import DEFAULT_CONFIG
        from repro.obs import attach_observer
        from repro.vm import fastpath

        monkeypatch.setattr(fastpath._FuncCompiler, "_compile",
                            staticmethod(tuple))
        program = compile_source("long g;\nint main(void) { return g; }",
                                 build_options("wrapped"))
        base = build_machine_config("wrapped", 1_000, temporal="check")

        def compiler(config=base, armed=False, tracer_capacity=0):
            machine = Machine(program, config)
            if armed:
                attach_observer(machine, tracer_capacity=tracer_capacity)
            return fastpath._FuncCompiler(machine.select_interp(),
                                          program.functions["main"], armed)

        plain = compiler()
        variants = [
            compiler(armed=True, tracer_capacity=256),
            compiler(armed=True),
            compiler(replace(base, temporal="off")),
            compiler(replace(base, no_promote=True)),
            compiler(replace(base, ifp=replace(DEFAULT_CONFIG,
                                               local_offset_bits=7,
                                               local_subobj_bits=5))),
            compiler(replace(base, ifp=replace(DEFAULT_CONFIG,
                                               granule=32))),
            compiler(replace(base, ifp=replace(DEFAULT_CONFIG,
                                               subheap_reg_bits=5,
                                               subheap_subobj_bits=7))),
            compiler(replace(base, ifp=replace(DEFAULT_CONFIG,
                                               mac_cycles=5))),
        ]
        instrs = []
        for op, name, code, b, signed in itertools.product(
                Op, ("", "local+lt", "g", "nowhere"), (0, 3),
                (3, -1), (False, True)):
            ins = Instr(op, dst=1, a=2, b=b, imm=4, size=4, signed=signed,
                        name=name, args=[2, 3], target=9)
            ins.code = code
            instrs.append(ins)

        def text(comp, ins):
            return comp.compile_block(0, [(0, comp.emit(ins, 0))])

        pairs = [(variants[0], variants[1]), (variants[1], plain)]
        pairs += [(plain, variant) for variant in variants[2:]]
        flipped = set()
        for one, other in pairs:
            differ = [i for i, (x, y) in enumerate(zip(one.switches(),
                                                       other.switches()))
                      if x != y]
            assert len(differ) == 1
            readers = fastpath._SWITCH_READERS[differ[0]]
            for ins in instrs:
                if text(one, ins) != text(other, ins):
                    assert ins.op in readers, (differ, ins.op)
            flipped.add(differ[0])
        assert flipped == set(range(len(fastpath._SWITCH_READERS)))


# ---------------------------------------------------------------------------
# the inlined L1 hit and page access against the out-of-line calls
# ---------------------------------------------------------------------------

#: the same long hit again and again: load and store MRU hits
MRU_HIT = """
long g;
int main(void) {
    int i;
    long s = 0;
    for (i = 0; i < 50; i++) {
        g = g + i;
        s = s + g;
    }
    print_int(s);
    return 0;
}
"""

#: two lines of one set (64 sets of 64 bytes: a 4096-byte stride),
#: accessed in turn, so every access hits the set's non-MRU line
NON_MRU_HIT = """
char buf[40960];
int main(void) {
    int i;
    long s = 0;
    for (i = 0; i < 20; i++) {
        s = s + buf[0] + buf[4096];
        buf[0] = i;
        buf[4096] = i + 1;
    }
    print_int(s);
    return 0;
}
"""

#: nine lines of one 8-way set, round robin: true LRU evicts the line
#: each access wants next
EVICTION = """
char buf[40960];
int main(void) {
    int r;
    int k;
    long s = 0;
    for (r = 0; r < 3; r++) {
        for (k = 0; k < 9; k++) {
            buf[k * 4096] = buf[k * 4096] + k;
            s = s + buf[k * 4096];
        }
    }
    print_int(s);
    return 0;
}
"""

#: loads and stores that straddle a 64-byte line, then a page
CROSSING = """
char buf[40960];
int main(void) {
    long base = ((long)buf + 4095) & ~4095;
    long *line = (long *)(base + 60);
    long *page = (long *)(base + 4092);
    int *half = (int *)(base + 8190);
    *line = 0x1122334455667788;
    *page = -3;
    *half = 0x7eadbeef;
    print_int(*line); putchar(32);
    print_int(*page); putchar(32);
    print_int(*half); putchar(32);
    print_int(*(short *)(base + 63)); putchar(32);
    print_int(*(unsigned short *)(base + 4095));
    return 0;
}
"""

UNMAPPED_LOAD = """
int main(void) {
    long *p = (long *)0x123456789000;
    print_int(7);
    return *p;
}
"""

UNMAPPED_STORE = """
int main(void) {
    long *p = (long *)0x123456789000;
    print_int(7);
    *p = 5;
    return 0;
}
"""

#: loads of every size, signed and unsigned, of one byte pattern, then
#: stores that must keep only their low bytes
WIDTHS = """
long g[4];
int main(void) {
    long v = 0x80fe7f01;
    g[0] = -2;
    g[1] = v;
    print_int(*(signed char *)&g[0]); putchar(32);
    print_int(*(unsigned char *)&g[0]); putchar(32);
    print_int(*(short *)&g[0]); putchar(32);
    print_int(*(unsigned short *)&g[0]); putchar(32);
    print_int(*(int *)&g[0]); putchar(32);
    print_int(*(unsigned int *)&g[0]); putchar(32);
    print_int(*(unsigned long *)&g[0]); putchar(32);
    print_int(*(signed char *)&g[1]); putchar(32);
    print_int(*(short *)((char *)&g[1] + 2)); putchar(32);
    print_int(*(int *)&g[1]); putchar(32);
    g[2] = -1;
    *(char *)&g[2] = v;
    *(short *)((char *)&g[2] + 2) = v;
    *(int *)((char *)&g[2] + 4) = v * 4096;
    g[3] = v * v * v;
    print_int(g[2]); putchar(32);
    print_int(g[3]);
    return 0;
}
"""

#: two heap objects promoted through globals, so stores land on the
#: buffered metadata line (and, uncached, on lines of other promotes'
#: fetches) between promotes that fetch through those lines again
METADATA_LINES = """
struct pair { long a; long b; };
struct pair *g;
struct pair *h;
int main(void) {
    g = (struct pair *)malloc(sizeof(struct pair));
    h = (struct pair *)malloc(200);
    g->a = 1;
    h->a = 2;
    g->b = 3;
    h->b = g->a;
    return g->a + h->a + g->b + h->b;
}
"""


def _hierarchy_state(program, config: MachineConfig, engine: str,
                     observe: bool) -> dict:
    """Run ``program`` under ``engine``; returns the run's observables
    plus the L1's LRU order and counters and every mapped page."""
    from repro.obs import attach_observer
    machine = Machine(program, dataclasses.replace(config, engine=engine))
    if observe:
        # an observer bypasses the promote cache, so no store ever lands
        # on a promote-dependency line: only the line buffer guards it
        attach_observer(machine)
    result = machine.run()
    assert machine.engine_used == (
        "reference" if engine == "reference" else "fastpath")
    trap = result.trap
    l1d = machine.hierarchy.l1d
    return {
        "exit_code": result.exit_code,
        "output": result.output,
        "trap": (type(trap).__name__, str(trap), trap.pc)
        if trap else None,
        "executed": machine._ran_on.executed,
        "stats": dataclasses.asdict(result.stats),
        "l1d_sets": [list(lines) for lines in l1d._sets],
        "l1d_stats": dataclasses.asdict(l1d.stats),
        "pages": {number: bytes(page)
                  for number, page in machine.memory._pages.items()},
    }


class TestInlineMemoryHierarchy:
    """Translated loads and stores test their L1 set for a hit and slice
    the page inline, and call ``access``/``mem_load``/``mem_store`` only
    off that path; translated ``ifpadd`` maintains every tag inline.
    Each program drives one path under both engines;
    the L1's sets and counters, every mapped page and every ``RunStats``
    field must match the reference interpreter's."""

    @staticmethod
    def _agree(source, config_name: str = "baseline",
               observe: bool = False) -> dict:
        """``source`` is mini-C, or a program already compiled for
        ``config_name``."""
        program = (compile_source(source, build_options(config_name))
                   if isinstance(source, str) else source)
        config = build_machine_config(config_name)
        reference = _hierarchy_state(program, config, "reference", observe)
        compiled = _hierarchy_state(program, config, "auto", observe)
        for key in reference:
            assert compiled[key] == reference[key], key
        return reference

    def test_mru_hit(self):
        run = self._agree(MRU_HIT)
        assert run["output"] == str(sum(sum(range(i + 1))
                                         for i in range(50)))
        assert run["l1d_stats"]["write_hits"] >= 50

    def test_non_mru_hit(self):
        run = self._agree(NON_MRU_HIT)
        assert run["l1d_stats"]["read_hits"] >= 38
        assert run["l1d_stats"]["write_hits"] >= 38

    def test_non_mru_hit_stays_inline(self):
        # every access after the two cold misses hits a way of the set,
        # half of them not the MRU one: only the misses go out of line
        program = compile_source(NON_MRU_HIT, build_options("baseline"))
        machine = Machine(program, MachineConfig())
        calls = []
        access = machine.hierarchy.access_cycles

        def counted(address, size, write):
            calls.append(write)
            return access(address, size, write)

        machine.hierarchy.access_cycles = counted
        stats = machine.hierarchy.l1d.stats
        before = dataclasses.asdict(stats)
        machine.run()
        assert machine.engine_used == "fastpath"
        assert calls == [False, False]
        assert stats.read_misses - before["read_misses"] == 2
        assert stats.write_misses == before["write_misses"]
        assert stats.write_hits - before["write_hits"] == 40

    def test_ifpadd_on_tagged_pointers(self, monkeypatch):
        # ``ifpadd`` on subheap, global-table and legacy tags: in bounds,
        # one past the end, back in bounds, already irrecoverable (both
        # encodings) and with no bounds register
        from repro.compiler.ir import Instr

        base, size = 0x4000_0000, 64
        cases = []        # (tag, bounded, delta, expected poison)
        for scheme, payload in ((2, 0xABC), (3, 0x123), (0, 0)):
            tag = (scheme << 12) | payload
            cases += [
                (tag, True, 4, 0),
                (tag, True, size, 1),
                (tag, True, -1, 1),
                ((1 << 14) | tag, True, 8, 0),
                ((2 << 14) | tag, True, 4, 2),
                ((3 << 14) | tag, True, 4, 3),
                ((2 << 14) | tag, False, 4, 2),
                ((1 << 14) | tag, False, 4, 1),
                (tag, False, size, 0),
            ]
        # an all-zero tag is the untagged fast path, not a case here
        cases = [case for case in cases if case[0]]
        program = compile_source("long out[40]; int main(void) { return 0; }",
                                 build_options("subheap"))
        instrs = [Instr(Op.GLOB, dst=1, name="out")]
        for index, (tag, bounded, delta, _poison) in enumerate(cases):
            instrs.append(Instr(Op.LI, dst=2, imm=(tag << 48) | base))
            if bounded:
                instrs.append(Instr(Op.IFPBND, dst=2, a=2, imm=size))
            if index % 2:
                instrs.append(Instr(Op.IFPADD, dst=4, a=2, imm=delta))
            else:
                instrs.append(Instr(Op.LI, dst=3, imm=delta & ((1 << 64) - 1)))
                instrs.append(Instr(Op.IFPADD, dst=4, a=2, b=3))
            instrs.append(Instr(Op.STORE, a=1, b=4, imm=8 * index, size=8))
        instrs += [Instr(Op.LI, dst=0, imm=0), Instr(Op.RET, a=0)]
        main = program.functions["main"]
        program.functions["main"] = dataclasses.replace(
            main, instrs=instrs, num_regs=5)
        original = Interpreter._ifpadd_tagged
        calls = []

        def counted(interp, value, address, tag, bound):
            calls.append(type(interp).__name__)
            return original(interp, value, address, tag, bound)

        monkeypatch.setattr(Interpreter, "_ifpadd_tagged", counted)
        run = self._agree(program, "subheap")
        assert calls == ["Interpreter"] * len(cases)
        machine = Machine(program, build_machine_config("subheap"))
        page_size = machine.memory.page_size
        words = []
        for index in range(len(cases)):
            address = machine.image.symbols["out"] + 8 * index
            page = run["pages"][address // page_size]
            offset = address % page_size
            words.append(int.from_bytes(page[offset:offset + 8], "little"))
        for word, (tag, _bounded, delta, poison) in zip(words, cases):
            assert word == ((poison << 62) | ((tag & 0x3FFF) << 48)
                            | (base + delta))

    def test_miss_with_eviction(self):
        run = self._agree(EVICTION)
        assert run["l1d_stats"]["read_misses"] >= 27

    def test_line_and_page_crossing(self):
        run = self._agree(CROSSING)
        assert run["output"].split() == [str(n) for n in (
            0x1122334455667788, -3, 0x7EADBEEF, 0x4455, 0xFFFF)]

    @pytest.mark.parametrize("source", [UNMAPPED_LOAD, UNMAPPED_STORE],
                             ids=["load", "store"])
    def test_unmapped_fault(self, source):
        run = self._agree(source)
        assert run["trap"][0] == "MemoryFault"
        assert run["output"] == "7"

    def test_widths_and_truncation(self):
        run = self._agree(WIDTHS)
        v = 0x80FE7F01
        assert run["output"].split() == [str(n) for n in (
            -2, 0xFE, -2, 0xFFFE, -2, 0xFFFFFFFE, -2,
            1, _signed16(0x80FE), _signed32(v),
            _signed64(((v * 4096) & 0xFFFFFFFF) << 32 | (v & 0xFFFF) << 16
                      | 0xFF00 | (v & 0xFF)),
            _signed64((v * v * v) & ((1 << 64) - 1)))]

    @pytest.mark.parametrize("config", ["wrapped", "subheap"])
    def test_store_to_buffered_metadata_line(self, config):
        run = self._agree(METADATA_LINES, config, observe=True)
        assert run["exit_code"] == 1 + 2 + 3 + 1

    @pytest.mark.parametrize("config", ["wrapped", "subheap"])
    def test_store_beside_promote_dependency_bytes(self, monkeypatch,
                                                   config):
        # ``g->a``/``g->b`` share a line with ``g``'s metadata but miss
        # every byte a promote read: the stores leave the inline path
        # and snoop, and every cache entry stays
        landed = []
        snoop = ifp_unit.IFPUnit.snoop_store

        def counted(unit, address, size):
            if address >> LINE_SHIFT in unit._promote_deps:
                landed.append(address)
            snoop(unit, address, size)

        monkeypatch.setattr(ifp_unit.IFPUnit, "snoop_store", counted)
        run = self._agree(METADATA_LINES, config)
        assert run["exit_code"] == 1 + 2 + 3 + 1
        assert landed
        assert run["stats"]["ifp"]["promote_cache_invalidations"] == 0
        with monkeypatch.context() as patch:
            patch.setattr(ifp_unit.IFPUnit, "promote",
                          ifp_unit.IFPUnit._promote_execute)
            oracle = self._agree(METADATA_LINES, config)
        assert _simulated(oracle) == _simulated(run)

    @pytest.mark.parametrize("config,offset", [("wrapped", 31),
                                               ("subheap", -1)])
    def test_store_overlapping_promote_dependency_bytes(self, config,
                                                        offset):
        # a one-byte store into the last byte of ``g``'s metadata drops
        # the entries that read it: ``g``'s next promote finds the
        # corruption and poisons it
        run = self._agree(METADATA_BYTE_STORE % offset, config)
        assert run["trap"][0] == "PoisonTrap"
        assert run["stats"]["ifp"]["promote_cache_invalidations"] > 0



#: (granule, local_offset_bits, local_subobj_bits): the default local
#: offset geometry, a wider offset field and a coarser granule
LOCAL_GEOMETRIES = ((16, 6, 6), (16, 7, 5), (32, 6, 6))


class TestInlineArithmetic:
    """Translated ``ifpadd`` re-encodes local offset's granule offset
    inline, and the signed ops (``slt``/``sle``/``sra``/``div``/``rem``)
    read ``(x ^ SGN) - SGN`` where the reference calls ``_signed``.  The
    reference's own helpers are the oracle."""

    @pytest.fixture(scope="class")
    def compilers(self):
        """A fastpath compiler per local offset geometry (see
        :data:`LOCAL_GEOMETRIES`)."""
        from repro.ifp.config import DEFAULT_CONFIG
        from repro.vm import fastpath

        program = compile_source("int main(void) { return 0; }",
                                 build_options("baseline"))
        base = build_machine_config("wrapped")
        compilers = {}
        for granule, offset_bits, subobj_bits in LOCAL_GEOMETRIES:
            machine = Machine(program, dataclasses.replace(
                base, ifp=dataclasses.replace(
                    DEFAULT_CONFIG, granule=granule,
                    local_offset_bits=offset_bits,
                    local_subobj_bits=subobj_bits)))
            compilers[granule, offset_bits, subobj_bits] = \
                fastpath._FuncCompiler(machine.select_interp(),
                                       program.functions["main"])
        return compilers

    @given(geometry=hst.sampled_from(LOCAL_GEOMETRIES),
           poison=hst.integers(0, 3),
           payload=hst.integers(0, 0xFFF),
           address=hst.integers(0x1000, (1 << 48) - 0x1000),
           delta=hst.one_of(hst.integers(-2048, 2048),
                            hst.integers(-(1 << 63), (1 << 63) - 1)),
           in_register=hst.booleans(),
           bounded=hst.booleans(),
           lower_back=hst.integers(0, 1024),
           size=hst.integers(1, 2048))
    @example(geometry=(16, 6, 6), poison=0, payload=3 << 6 | 5,
             address=0x40_0010, delta=16, in_register=True, bounded=True,
             lower_back=16, size=32)       # encodable, one past the end
    @example(geometry=(16, 6, 6), poison=0, payload=1 << 6, address=0x40_0010,
             delta=32, in_register=True, bounded=True, lower_back=16,
             size=64)                      # one granule past the metadata
    @example(geometry=(16, 7, 5), poison=1, payload=0, address=0x40_0800,
             delta=-2032, in_register=False, bounded=True, lower_back=0,
             size=64)                      # the largest encodable offset
    @example(geometry=(16, 7, 5), poison=1, payload=0, address=0x40_0800,
             delta=-2048, in_register=True, bounded=True, lower_back=0,
             size=64)                      # one granule beyond it
    @example(geometry=(32, 6, 6), poison=2, payload=7 << 6, address=0x40_0100,
             delta=-32, in_register=True, bounded=True, lower_back=64,
             size=256)                     # already irrecoverable
    @example(geometry=(16, 6, 6), poison=3, payload=2 << 6, address=0x40_0040,
             delta=-8, in_register=False, bounded=False, lower_back=0,
             size=1)                       # poison 3, no bounds
    @settings(max_examples=300, deadline=None)
    def test_local_offset_ifpadd_matches_the_reference_helper(
            self, compilers, geometry, poison, payload, address, delta,
            in_register, bounded, lower_back, size):
        from types import FunctionType

        from repro.compiler.ir import Instr
        from repro.ifp import Bounds
        from repro.vm.fastpath import _Act
        from repro.vm.interp import U64, Interpreter, _signed

        comp = compilers[geometry]
        if in_register:
            ins = Instr(Op.IFPADD, dst=3, a=1, b=2)
        else:
            ins = Instr(Op.IFPADD, dst=3, a=1, imm=delta)
        code = comp.compile_block(0, [(0, comp.emit(ins, 0))])
        assert "tagged" not in code.co_names
        assert "_signed" not in code.co_names
        value = (((poison << 14) | (1 << 12) | payload) << 48) | address
        bound = (Bounds(address - lower_back, address - lower_back + size)
                 if bounded else None)
        st = _Act()
        st.regs = [0, value, delta & U64, 0]
        st.bnds = [None, bound, None, None]
        st.c = [0] * 7
        st.frame_base = 0
        assert FunctionType(code, comp.ns)(st) == 1

        step = _signed(delta & U64) if in_register else delta
        moved = (address + step) & ADDRESS_MASK
        expected = Interpreter._ifpadd_tagged(
            comp.interp, value, moved, value >> 48, bound)
        assert st.regs[3] == expected
        assert st.bnds[3] is bound

    def test_signed_ops_on_both_sides_of_the_sign_bit(self):
        # slt/sle/sra/div/rem with register operands below and above
        # 2**63 and BINI immediates that are negative ints; both engines
        # must store the same words and agree on every RunStats field
        from repro.compiler.ir import BIN_CODES, Instr

        values = (0, 1, 7, (1 << 63) - 1, 1 << 63, (1 << 63) + 1,
                  (1 << 64) - 1, (1 << 64) - 7, 0x0123_4567_89AB_CDEF)
        immediates = (-1, -7, -(1 << 63), 3, (1 << 63) + 5)
        ops = [("slt", True), ("sle", True), ("sar", False),
               ("div", True), ("rem", True), ("slt", False),
               ("div", False), ("rem", False)]
        cases = []     # (name, signed, x, y, is_imm)
        for name, signed in ops:
            for x in values:
                for y in values:
                    if not (y == 0 and name in ("div", "rem")):
                        cases.append((name, signed, x, y, False))
                for y in immediates:
                    cases.append((name, signed, x, y, True))
        program = compile_source(
            f"long out[{len(cases)}]; int main(void) {{ return 0; }}",
            build_options("baseline"))
        instrs = [Instr(Op.GLOB, dst=1, name="out")]
        for index, (name, signed, x, y, is_imm) in enumerate(cases):
            instrs.append(Instr(Op.LI, dst=2, imm=x))
            if is_imm:
                bin_ins = Instr(Op.BINI, dst=4, a=2, imm=y, signed=signed,
                                name=name)
            else:
                instrs.append(Instr(Op.LI, dst=3, imm=y))
                bin_ins = Instr(Op.BIN, dst=4, a=2, b=3, signed=signed,
                                name=name)
            bin_ins.code = BIN_CODES[name]
            instrs += [bin_ins,
                       Instr(Op.STORE, a=1, b=4, imm=8 * index, size=8)]
        instrs += [Instr(Op.LI, dst=0, imm=0), Instr(Op.RET, a=0)]
        main = program.functions["main"]
        program.functions["main"] = dataclasses.replace(
            main, instrs=instrs, num_regs=5)
        run = TestInlineMemoryHierarchy._agree(program)
        assert run["trap"] is None

        machine = Machine(program, build_machine_config("baseline"))
        machine.run()
        for block in _blocks(machine, "main"):
            assert "_signed" not in block.__code__.co_names
        page_size = machine.memory.page_size
        base = machine.image.symbols["out"]
        for index, (name, signed, x, y, is_imm) in enumerate(cases):
            address = base + 8 * index
            page = run["pages"][address // page_size]
            offset = address % page_size
            word = int.from_bytes(page[offset:offset + 8], "little")
            # a negative immediate reads as its two's-complement word
            sx, sy = _signed64(x), _signed64(y)
            if name == "slt":
                want = int(sx < sy) if signed else int(x < y)
            elif name == "sle":
                want = int(sx <= sy)
            elif name == "sar":
                want = (sx >> (y & 63)) & ((1 << 64) - 1)
            else:
                a, b = (sx, sy) if signed else (x, y)
                quotient = abs(a) // abs(b)
                if (a < 0) != (b < 0):
                    quotient = -quotient
                want = (quotient if name == "div"
                        else a - quotient * b) & ((1 << 64) - 1)
            assert word == want, (name, signed, x, y, is_imm)


def _signed16(value: int) -> int:
    return value - (1 << 16) if value & (1 << 15) else value


def _signed32(value: int) -> int:
    return value - (1 << 32) if value & (1 << 31) else value


def _signed64(value: int) -> int:
    value &= (1 << 64) - 1
    return value - (1 << 64) if value & (1 << 63) else value


# ---------------------------------------------------------------------------
# block-local registers, once-per-block accounting and loop regions
# ---------------------------------------------------------------------------

#: a loop whose body divides by zero on its sixth iteration
DIV_IN_LOOP = """
int main(void) {
    int i;
    int s = 0;
    for (i = 0; i < 10; i++) s = s + 100 / (5 - i);
    return s;
}
"""

#: twin loops whose bodies are one block at the same ips and whose
#: headers differ only in the bound ``li`` inlines
BOUNDS_TWINS = """
int f(void) { int s = 0; int i; for (i = 0; i < 5; i++) s = s + i; return s; }
int g(void) { int s = 0; int i; for (i = 0; i < 7; i++) s = s + i; return s; }
int main(void) { return f() + g(); }
"""


def _regions(machine, name: str, armed: bool = False) -> list:
    """The handlers of one translation that are loop regions."""
    return [h for h in _blocks(machine, name, armed)
            if "_nx" in h.__code__.co_varnames]


def _local_names(code) -> set:
    """The block-local register names a code object binds."""
    return {name for name in code.co_varnames
            if name[0] in "rb" and name[1:].isdigit()}


def _with_main(source: str, instrs: list, num_regs: int, **others):
    """``source`` compiled for baseline with ``main`` (and each function
    named in ``others``, ``name=(instrs, num_regs)``) replaced by
    hand-written IR."""
    program = compile_source(source, build_options("baseline"))
    for name, (body, count) in dict(others, main=(instrs, num_regs)).items():
        program.functions[name] = dataclasses.replace(
            program.functions[name], instrs=body, num_regs=count)
    return program


def _raising_block(trap: int):
    """``main`` as one block of five raising instructions over block-
    local temps (a bounded pointer, loaded and divided values), the
    ``trap``-th of which traps (none for ``trap`` 5): stores and loads
    step out of their 32-byte bounds, the division divides by zero."""
    from repro.compiler.ir import BIN_CODES, Instr

    def bin_ins(op, name, **fields):
        ins = Instr(op, name=name, **fields)
        ins.code = BIN_CODES[name]
        return ins

    offsets = [32 if trap == i else 8 * i for i in (0, 1, 2, 3)]
    return [
        Instr(Op.GLOB, dst=1, name="buf"),
        Instr(Op.IFPBND, dst=2, a=1, imm=32),
        Instr(Op.LI, dst=3, imm=7),
        Instr(Op.LI, dst=4, imm=0 if trap == 2 else 2),
        Instr(Op.STORE, a=2, b=3, imm=offsets[0], size=8),
        Instr(Op.LOAD, dst=5, a=2, imm=offsets[1] if trap == 1 else 0,
              size=8),
        bin_ins(Op.BINI, "add", dst=6, a=5, imm=1),
        bin_ins(Op.BIN, "div", dst=7, a=6, b=4),
        Instr(Op.STORE, a=2, b=7, imm=offsets[3] if trap == 3 else 24,
              size=8),
        Instr(Op.LOAD, dst=8, a=2, imm=32 if trap == 4 else 8, size=4),
        bin_ins(Op.BIN, "add", dst=0, a=8, b=7),
        Instr(Op.RET, a=0),
    ]


class TestBlockLocalsAndLoopRegions:
    """Block-local slots live in Python locals, a block settles its
    counts once (at its exit, at a trap, before a call), and a block
    that jumps to a small non-raising loop header loops inside one
    handler.  The reference interpreter is the oracle: traps at every
    raising instruction, budgets inside a region's iteration and
    watchdog polls at its back-edge must leave every observable (the
    ``RunStats`` with the IFP counters, the L1 sets, every page, the
    output and the trap) exactly as the reference's."""

    @staticmethod
    def _agree(program, config_name: str = "baseline",
               max_instructions: int = 5_000_000) -> dict:
        config = build_machine_config(config_name, max_instructions)
        reference = _hierarchy_state(program, config, "reference", False)
        compiled = _hierarchy_state(program, config, "auto", False)
        for key in reference:
            assert compiled[key] == reference[key], key
        armed = _observables(program, config, "auto", ARMED_TIMEOUT)
        assert armed == _observables(program, config, "reference")
        return reference

    @pytest.mark.parametrize("trap", range(6))
    def test_trap_at_each_raising_instruction_of_a_local_block(self,
                                                               trap):
        program = _with_main("long buf[8];\nint main(void) { return 0; }",
                             _raising_block(trap), 9)
        run = self._agree(program)
        expected = [("BoundsTrap", 4), ("BoundsTrap", 5),
                    ("SimTrap", 7), ("BoundsTrap", 8), ("BoundsTrap", 9)]
        if trap < 5:
            kind, ip = expected[trap]
            assert run["trap"][0] == kind
            assert run["executed"] == ip + 1
        else:
            assert run["trap"] is None and run["exit_code"] == 4
        machine = Machine(program, build_machine_config("baseline"))
        machine.run()
        code = _blocks(machine, "main")[0].__code__
        # every register lives in this one block: all are locals
        assert _local_names(code) == {f"{kind}{n}" for kind in "rb"
                                      for n in range(9)}

    @pytest.mark.parametrize("config", ["baseline", "wrapped"])
    def test_trap_inside_a_loop_region(self, config):
        run = self._agree(compile_source(DIV_IN_LOOP,
                                         build_options(config)), config)
        assert run["trap"][:2] == ("SimTrap", "division by zero")
        run = self._agree(compile_source(OVERFLOW, build_options(config)),
                          config)
        if config == "wrapped":
            assert run["trap"][0] in ("PoisonTrap", "BoundsTrap")
        for source in (DIV_IN_LOOP, OVERFLOW):
            machine = Machine(compile_source(source, build_options(config)),
                              build_machine_config(config))
            machine.run()
            assert _regions(machine, "main")

    def test_budget_trips_on_each_instruction_of_a_region_iteration(self):
        program = compile_source(LOOPY, build_options("baseline"))
        config = build_machine_config("baseline")
        machine = Machine(program, config)
        assert machine.run().trap is None
        total = machine._ran_on.executed
        (region,) = _regions(machine, "main")
        # the region's body runs from its leader to the ``jmp`` back to
        # the header, which falls through to it
        start = machine._ran_on._fused[("main", False)].index(region)
        instrs = program.functions["main"].instrs
        end = next(ip for ip in range(start, len(instrs))
                   if instrs[ip].op == Op.JMP) + 1
        assert instrs[end - 1].target < start
        iteration = end - instrs[end - 1].target
        assert 3 < iteration < 20
        # the first iterations, one in the middle and the last, each at
        # every instruction
        budgets = (list(range(1, 4 * iteration))
                   + list(range(total // 2, total // 2 + iteration + 1))
                   + list(range(total - iteration - 1, total + 1)))
        for budget in budgets:
            limited = dataclasses.replace(config, max_instructions=budget)
            reference = _observables(program, limited, "reference")
            if budget < total:
                assert reference["trap"][0] == "StepBudgetExceeded"
                assert reference["trap"][2] == budget + 1
            for timeout in (None, ARMED_TIMEOUT):
                assert _observables(program, limited, "auto",
                                    timeout) == reference, \
                    f"auto diverged at budget {budget} ({timeout})"

    def test_spin_loop_region_returns_to_the_watchdog_poll(self):
        program, machine, exc = TestDeadlineTier._timeout(SPIN, "auto")
        assert _regions(machine, "main")
        longest = max(len(f.instrs) for f in program.functions.values())
        assert 4096 <= exc.executed < 4096 + longest
        assert exc.stats is not None
        assert "at main+" in str(exc)

    def test_tracer_keeps_every_write_in_the_register_file(self):
        # the tracer reads ``regs`` before every instruction: its records
        # (operand values included) must match the reference's, and no
        # translation may hold a register in a local
        from repro.obs import attach_observer

        for source, config_name in ((LOOPY, "baseline"),
                                    (OVERFLOW, "wrapped")):
            program = compile_source(source, build_options(config_name))
            config = build_machine_config(config_name)
            reference = _instrumented_observables(program, config,
                                                  "reference")
            compiled = _instrumented_observables(program, config, "auto")
            assert compiled.pop("engine_used") == "fastpath"
            reference.pop("engine_used")
            assert compiled == reference
            assert reference["trace"]
            machine = Machine(program, config)
            attach_observer(machine, tracer_capacity=64)
            machine.run()
            blocks = _blocks(machine, "main", True)
            assert blocks and _regions(machine, "main", True)
            for block in blocks:
                assert not _local_names(block.__code__)
        program = _with_main("long buf[8];\nint main(void) { return 0; }",
                             _raising_block(5), 9)
        config = build_machine_config("baseline")
        reference = _instrumented_observables(program, config, "reference")
        compiled = _instrumented_observables(program, config, "auto")
        compiled.pop("engine_used"), reference.pop("engine_used")
        assert compiled == reference

    def test_block_local_sets_key_the_code(self):
        # f and g share block 0's instructions at the same ips; f reads
        # r2 after it (r1 is local to block 0), g reads r1 (r2 is)
        from repro.compiler.ir import BIN_CODES, Instr

        def body(returned):
            add = Instr(Op.BINI, dst=2, a=1, imm=1, name="add")
            add.code = BIN_CODES["add"]
            return [Instr(Op.LI, dst=1, imm=5), add,
                    Instr(Op.JMP, target=3), Instr(Op.RET, a=returned)]

        program = _with_main(
            "int f(void) { return 0; }\nint g(void) { return 0; }\n"
            "int main(void) { return 0; }",
            [Instr(Op.CALL, dst=0, name="f", args=[]),
             Instr(Op.CALL, dst=1, name="g", args=[]),
             Instr(Op.BINI, dst=2, a=0, imm=4, name="shl"),
             Instr(Op.BIN, dst=0, a=2, b=1, name="add"),
             Instr(Op.RET, a=0)], 3,
            f=(body(2), 3), g=(body(1), 3))
        main = program.functions["main"].instrs
        main[2].code, main[3].code = BIN_CODES["shl"], BIN_CODES["add"]
        run = self._agree(program)
        assert run["exit_code"] == 6 * 16 + 5
        machine = Machine(program, build_machine_config("baseline"))
        machine.run()
        f_block, g_block = (_blocks(machine, name)[0] for name in "fg")
        assert f_block.__code__ is not g_block.__code__
        assert _local_names(f_block.__code__) == {"r1", "b1"}
        assert _local_names(g_block.__code__) == {"r2", "b2"}

    def test_loop_headers_key_the_region_code(self):
        program = compile_source(BOUNDS_TWINS, build_options("baseline"))
        run = self._agree(program)
        assert run["exit_code"] == 10 + 21
        machine = Machine(program, build_machine_config("baseline"))
        machine.run()
        (f_region,), (g_region,) = (_regions(machine, name)
                                    for name in "fg")
        assert f_region.__code__ is not g_region.__code__
        # the region bodies are one block at the same ips: only the
        # headers they jump to tell them apart
        f_table = machine._ran_on._fused[("f", False)]
        start = f_table.index(f_region)
        assert machine._ran_on._fused[("g", False)].index(g_region) == start
        f_instrs, g_instrs = (program.functions[name].instrs
                              for name in "fg")
        end = next(ip for ip in range(start, len(f_instrs))
                   if f_instrs[ip].op == Op.JMP) + 1
        assert ([_INSTR(ins) for ins in f_instrs[start:end]]
                == [_INSTR(ins) for ins in g_instrs[start:end]])
        head = f_instrs[end - 1].target
        assert ([_INSTR(ins) for ins in f_instrs[head:start]]
                != [_INSTR(ins) for ins in g_instrs[head:start]])

    def test_twins_share_every_region(self):
        program = compile_source(TWINS, CompilerOptions.baseline())
        machine = Machine(program, MachineConfig(engine="auto"))
        machine.run()
        f_regions, g_regions = _regions(machine, "f"), _regions(machine, "g")
        assert f_regions and len(f_regions) == len(g_regions)
        for f_block, g_block in zip(_blocks(machine, "f"),
                                    _blocks(machine, "g")):
            assert f_block.__code__ is g_block.__code__

    def test_slot_table_names_every_register_the_text_touches(self):
        # the block-local analysis reads ``_SLOTS``, never the text:
        # every ``regs[n]``/``bnds[n]`` an op's text reads or writes must
        # be a slot the table gives that op (a read may also follow the
        # op's own write of that slot)
        import itertools
        import re

        from repro.compiler.ir import Instr
        from repro.obs import attach_observer
        from repro.vm import fastpath

        program = compile_source("long g;\nint main(void) { return g; }",
                                 build_options("wrapped"))
        compilers = []
        for armed, temporal in ((False, "check"), (True, "off")):
            machine = Machine(program, build_machine_config(
                "wrapped", 1_000, temporal=temporal))
            if armed:
                attach_observer(machine)
            compilers.append(fastpath._FuncCompiler(
                machine.select_interp(), program.functions["main"], armed))
        fields = ("dst", "a", "b")
        for op, name, code, b, comp in itertools.product(
                Op, ("", "local+lt", "g"), (0, 3), (3, -1), compilers):
            ins = Instr(op, dst=1, a=2, b=b, imm=4, size=4, name=name,
                        args=[4, 5], target=9)
            ins.code = code
            em = comp.emit(ins, 0)
            text = "\n".join(em.lines + [em.ret_expr or ""])
            reads, writes = fastpath._SLOTS[op]
            declared = {(kind, getattr(ins, fields[field - 1]))
                        for field, bound in reads + writes
                        for kind in (("bnds",) if bound else ("regs",))}
            if op in (Op.CALL, Op.CALLPTR):
                declared |= {(kind, n) for n in ins.args
                             for kind in ("regs", "bnds")}
            touched = {(kind, int(n)) for kind, n in
                       re.findall(r"\b(regs|bnds)\[(\d+)\]", text)}
            assert touched <= declared, (op, touched - declared)
            written = {(kind, int(n)) for kind, n in re.findall(
                r"^\s*(regs|bnds)\[(\d+)\] = ", text, re.M)}
            assert written <= {(kind, getattr(ins, fields[field - 1]))
                               for field, bound in writes
                               for kind in (("bnds",) if bound
                                            else ("regs",))}, op


def _INSTR(ins) -> tuple:
    return (ins.op, ins.dst, ins.a, ins.b, ins.imm, ins.size, ins.signed,
            ins.name, ins.target, ins.code, tuple(ins.args))
