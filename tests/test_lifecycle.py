"""A finished machine frees itself, and stays readable until it does.

Every run ends in ``Machine._release``, which cuts the links a run
cannot do without (the memory's snoop hooks, the engine's translation
namespaces, the trap's traceback); every other component takes the
machine's parts, never the machine.  So once a caller drops the machine
and keeps only the :class:`~repro.vm.machine.RunResult`, reference
counting frees the machine: the cyclic collector has nothing to find.
The tests below switch the collector off to show that, and check what
a finished machine still answers.
"""

from __future__ import annotations

import dataclasses
import gc
import weakref

import pytest

from repro.compiler import compile_source
from repro.errors import PoisonTrap, ReproError, TemporalViolation
from repro.eval.configs import build_machine_config, build_options
from repro.fuzz.oracle import capture_trap_forensics
from repro.ifp.tag import address_of
from repro.juliet.cases import generate_temporal_cases
from repro.obs import attach_observer
from repro.obs.forensics import capture_forensics
from repro.resil.faults import FaultInjector, FaultPlan
from repro.vm import Machine

#: a heap object reached through a global pointer, so every run
#: promotes it; ``fill(5)`` writes one element past ``a`` (a spatial
#: trap), ``fill(4)`` stays inside it
HEAP = """
struct S { int a[4]; int b; };
struct S *g_ptr;
int fill(int n) {
    struct S *p = g_ptr;
    int i;
    for (i = 0; i < n; i++) p->a[i] = i;
    p->b = 7;
    return p->a[3] + p->b;
}
int main(void) {
    g_ptr = (struct S*)malloc(sizeof(struct S));
    return fill(%d);
}
"""
CLEAN = HEAP % 4
SPATIAL = HEAP % 5
#: a heap read after free: a temporal trap under ``temporal="check"``
UAF = next(case.source for case in generate_temporal_cases()
           if case.name == "CWE-416_heap_read_uaf_v01_bad")

PROGRAMS = {"clean": CLEAN, "spatial": SPATIAL, "uaf": UAF}
ENGINES = ("auto", "reference")


def _config(config: str, engine: str, temporal: str = "off"):
    return build_machine_config(config, engine=engine, temporal=temporal)


def _run_and_drop(program, machine_config, arm=None):
    """Run a new machine on ``program`` with the collector off, drop the
    machine and keep the result; asserts reference counting freed the
    machine and left the collector no ``repro`` object."""
    gc.collect()
    gc.disable()
    try:
        machine = Machine(program, machine_config)
        if arm is not None:
            arm(machine)
        result = machine.run()
        alive = weakref.ref(machine)
        del machine
        assert alive() is None, "the finished machine outlived its caller"
        gc.set_debug(gc.DEBUG_SAVEALL)
        try:
            gc.collect()
            left = sorted({f"{type(o).__module__}.{type(o).__qualname__}"
                           for o in gc.garbage
                           if type(o).__module__.startswith("repro")})
        finally:
            gc.set_debug(0)
            gc.garbage.clear()
        assert not left, f"left for the collector: {left}"
    finally:
        gc.enable()
    return result


@pytest.mark.parametrize("engine", ENGINES)
@pytest.mark.parametrize("temporal", ("off", "check"))
@pytest.mark.parametrize("kind", sorted(PROGRAMS))
@pytest.mark.parametrize("config", ("wrapped", "subheap"))
def test_finished_machine_frees_itself(config, kind, temporal, engine):
    program = compile_source(PROGRAMS[kind], build_options(config))
    result = _run_and_drop(program, _config(config, engine, temporal))
    assert result.stats.total_instructions > 0
    if kind == "clean":
        assert result.trap is None and result.exit_code == 10
    elif kind == "spatial":
        assert isinstance(result.trap, PoisonTrap)
    elif temporal == "check":
        assert isinstance(result.trap, TemporalViolation)
    if result.trap is not None:
        assert result.trap.__traceback__ is None


@pytest.mark.parametrize("engine", ENGINES)
@pytest.mark.parametrize("fault", ("metadata_corrupt", "alloc_oom",
                                   "temporal_lock_corrupt"))
def test_machine_armed_by_an_injector_frees_itself(fault, engine):
    program = compile_source(CLEAN, build_options("wrapped"))
    injector = FaultInjector(FaultPlan.single(fault, seed=3, period=1))
    _run_and_drop(program, _config("wrapped", engine, "check"),
                  injector.arm)
    assert injector.injections


@pytest.mark.parametrize("engine", ENGINES)
@pytest.mark.parametrize("kind", ("clean", "spatial"))
def test_observed_machine_frees_itself(kind, engine):
    program = compile_source(PROGRAMS[kind], build_options("wrapped"))
    observers = []

    def arm(machine):
        observers.append(attach_observer(machine, profile=True,
                                         forensics=True))
    result = _run_and_drop(program, _config("wrapped", engine), arm)
    (obs,) = observers
    assert obs.bus.emitted > 0
    if kind == "spatial":
        # forensics ran while the machine was live
        assert obs.last_report.trap_type == type(result.trap).__name__
        assert obs.last_report.scheme == "LOCAL_OFFSET"


@pytest.mark.parametrize("engine", ENGINES)
@pytest.mark.parametrize("kind", ("clean", "spatial"))
def test_finished_machine_stays_readable(kind, engine):
    source = PROGRAMS[kind]
    program = compile_source(source, build_options("wrapped"))
    machine = Machine(program, _config("wrapped", engine, "check"))
    result = machine.run()
    assert machine.engine_used == (
        "fastpath" if engine == "auto" else "reference")
    assert machine.output == result.output
    assert machine.stats is result.stats
    assert machine.temporal.mints == 1

    # the memory and the IFP unit's stats
    pointer = machine.memory.load_u64(machine.image.symbols["g_ptr"])
    stats = dataclasses.asdict(machine.ifp.stats)
    assert stats["promotes_total"] > 0
    # a dry-run promote on the final memory recovers the object bounds
    # and changes nothing the machine counts
    bounds = machine.ifp.dry_run(pointer).bounds
    base = address_of(pointer)
    assert (bounds.lower, bounds.upper) == (base, base + 20)
    assert dataclasses.asdict(machine.ifp.stats) == stats

    if kind == "spatial":
        report = capture_forensics(machine, result.trap)
        assert report.trap_type == "PoisonTrap"
        assert report.scheme == "LOCAL_OFFSET"
        assert report.bounds == (bounds.lower, bounds.upper)
        rerun = capture_trap_forensics(source, "wrapped")
        assert (rerun.trap_type, rerun.scheme, rerun.bounds) == (
            report.trap_type, report.scheme, report.bounds)
    else:
        assert capture_trap_forensics(source, "wrapped") is None

    # a machine runs once
    with pytest.raises(ReproError, match="runs once"):
        machine.run()
    assert machine.stats is result.stats
    assert dataclasses.asdict(machine.ifp.stats) == stats
