"""Microbenchmarks of the reproduction's own hot paths.

These measure the *simulator* (host-side Python performance), which is
what bounds how large an input scale the evaluation harness can sweep.
"""

import pytest

from repro.cache import Cache, HierarchyConfig
from repro.compiler import CompilerOptions, compile_source
from repro.eval.configs import build_options
from repro.ifp import IFPUnit, LayoutEntry, LayoutTable
from repro.ifp.mac import compute_mac
from repro.ifp.schemes.subheap import SubheapRegion
from repro.ifp.tag import PointerTag, Scheme, pack_pointer, unpack_tag
from repro.ifp.poison import Poison
from repro.juliet.cases import generate_cases
from repro.mem import Memory
from repro.temporal import TemporalRegistry
from repro.vm import Machine, MachineConfig


def _unit_with_object():
    memory = Memory()
    memory.map_range(0x10000, 0x10000)
    unit = IFPUnit(memory, HierarchyConfig().build())
    table = LayoutTable("S", [
        LayoutEntry(0, 0, 24, 24), LayoutEntry(0, 0, 4, 4),
        LayoutEntry(0, 4, 20, 8), LayoutEntry(2, 0, 4, 4),
        LayoutEntry(2, 4, 8, 4), LayoutEntry(0, 20, 24, 4),
    ])
    memory.write_bytes(0x10000, table.serialize())
    unit.local_offset.write_metadata(memory, 0x11000, 24, 0x10000,
                                     unit.mac)
    return unit


@pytest.mark.benchmark(group="micro")
def test_promote_object_bounds(benchmark):
    unit = _unit_with_object()
    pointer = unit.local_offset.make_pointer(0x11000, 0x11000, 24)
    result = benchmark(unit.promote, pointer)
    assert result.bounds is not None


@pytest.mark.benchmark(group="micro")
def test_promote_with_narrowing(benchmark):
    unit = _unit_with_object()
    pointer = unit.local_offset.make_pointer(0x11010, 0x11000, 24, 4)
    result = benchmark(unit.promote, pointer)
    assert result.narrowed


@pytest.mark.benchmark(group="micro")
def test_promote_legacy_bypass(benchmark):
    unit = _unit_with_object()
    result = benchmark(unit.promote, 0x12345)
    assert result.bounds is None


def _fresh_key_each_round(unit, pointer):
    """A promote of ``pointer`` whose cache key is new every call: a
    lock minted at an unrelated base bumps the temporal registry's
    version, which every promote-result key carries."""
    registry = unit.temporal = TemporalRegistry()

    def promote():
        registry.mint(0x1F000, 16)
        return unit.promote(pointer)
    return promote


@pytest.mark.benchmark(group="micro")
def test_promote_miss_local_offset(benchmark):
    # the whole miss path: lookup, trace, compaction, insertion
    unit = _unit_with_object()
    pointer = unit.local_offset.make_pointer(0x11000, 0x11000, 24)
    result = benchmark(_fresh_key_each_round(unit, pointer))
    assert result.bounds is not None
    assert unit.stats.promote_cache_hits == 0


@pytest.mark.benchmark(group="micro")
def test_promote_miss_subheap_block_entry(benchmark):
    # a miss whose block record comes from the block's entry: the key
    # of its block (register, base, subobject index, control version)
    # does not change between rounds
    unit = _unit_with_object()
    region = SubheapRegion(12, 0)
    register = unit.control.allocate_subheap_register(region)
    unit.subheap.write_block_metadata(unit.port.memory, 0x12000, region,
                                      32, 32 + 32 * 100, 32, 24, 0x10000,
                                      unit.mac)
    pointer = unit.subheap.make_pointer(0x12000 + 32 * 6 + 4, register)
    result = benchmark(_fresh_key_each_round(unit, pointer))
    assert result.bounds is not None
    assert unit.stats.promote_block_hits == unit.stats.promotes_total - 1


@pytest.mark.benchmark(group="micro")
def test_store_beside_promote_dependency(benchmark):
    # a store into the line of a cached promote's metadata that misses
    # the bytes it read: the snoop scans the line and keeps the entry
    unit = _unit_with_object()
    unit.promote(unit.local_offset.make_pointer(0x11000, 0x11000, 24))
    memory = unit.port.memory
    assert 0x11008 >> 6 in unit._promote_deps
    benchmark(memory.store_int, 0x11008, 7, 8)
    assert unit.stats.promote_cache_invalidations == 0
    assert len(unit._promote_cache) == 1


@pytest.mark.benchmark(group="micro")
def test_tag_pack_unpack(benchmark):
    tag = PointerTag(Poison.VALID, Scheme.SUBHEAP, 0x5AB)

    def roundtrip():
        return unpack_tag(pack_pointer(0x123456789A, tag))

    assert benchmark(roundtrip).payload == 0x5AB


@pytest.mark.benchmark(group="micro")
def test_mac_throughput(benchmark):
    value = benchmark(compute_mac, 0x1F9A7, (0x11000, 24, 0x10000))
    assert value < 1 << 48


@pytest.mark.benchmark(group="micro")
def test_cache_access(benchmark):
    cache = Cache()

    def touch():
        cache.access(0x1234, 8)

    benchmark(touch)


@pytest.mark.benchmark(group="micro")
def test_compile_throughput(benchmark):
    source = """
    struct Node { int v; struct Node *next; };
    int sum(struct Node *n) {
        int t = 0;
        while (n != NULL) { t += n->v; n = n->next; }
        return t;
    }
    int main(void) { return 0; }
    """
    program = benchmark(compile_source, source, CompilerOptions.wrapped())
    assert "sum" in program.functions


@pytest.mark.benchmark(group="micro")
def test_interpreter_throughput(benchmark):
    source = """
    int main(void) {
        long total = 0;
        int i;
        for (i = 0; i < 5000; i++) { total += i; }
        return (int)(total & 0x7f);
    }
    """
    program = compile_source(source, CompilerOptions.baseline())

    def run():
        return Machine(program, MachineConfig()).run()

    result = benchmark.pedantic(run, rounds=3, iterations=1)
    assert result.ok


@pytest.mark.benchmark(group="micro")
def test_subheap_alloc_throughput(benchmark):
    program = compile_source("int main(void) { return 0; }",
                             CompilerOptions.subheap())
    machine = Machine(program)
    allocator = machine.subheap_allocator

    def alloc_free():
        pointer, _b, _c, _i = allocator.malloc(24, 0, 24)
        allocator.free(pointer)

    benchmark(alloc_free)


@pytest.mark.benchmark(group="micro")
def test_cold_juliet_op(benchmark):
    # one juliet-suite op end to end with the collector on: compile,
    # load and run a cold bad case, as perfbench does 356 times a pass
    case = next(c for c in generate_cases() if c.is_bad)
    options = build_options("wrapped")
    config = MachineConfig(max_instructions=2_000_000, temporal="check")

    def op():
        return Machine(compile_source(case.source, options), config).run()

    assert benchmark(op).trap is not None
