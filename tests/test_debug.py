"""Tests for the tracing and pointer-anatomy debugging aids."""

import dataclasses

import pytest

from repro.compiler import CompilerOptions, Op, compile_source
from repro.debug import Tracer, attach_tracer, explain_pointer
from repro.debug.trace import IFP_OPS
from repro.vm import Machine, MachineConfig

SOURCE = """
int g;
int main(void) {
    int *p = (int*)malloc(40);
    int i;
    for (i = 0; i < 10; i++) { p[i] = i; }
    g = p[5];
    free(p);
    return g;
}
"""


class TestTracer:
    def test_records_instructions(self):
        program = compile_source(SOURCE, CompilerOptions.wrapped())
        machine = Machine(program)
        tracer = attach_tracer(machine, capacity=100_000)
        result = machine.run()
        assert result.ok
        assert tracer.recorded == result.stats.total_instructions \
            - result.stats.builtin_instructions

    def test_ring_buffer_bounded(self):
        program = compile_source(SOURCE, CompilerOptions.baseline())
        machine = Machine(program)
        tracer = attach_tracer(machine, capacity=16)
        machine.run()
        assert len(tracer.events) == 16
        assert tracer.recorded > 16

    def test_ifp_only_filter(self):
        program = compile_source(SOURCE, CompilerOptions.wrapped())
        machine = Machine(program)
        tracer = attach_tracer(machine, ifp_only=True)
        machine.run()
        assert tracer.events
        assert all(event.op in {int(op) for op in IFP_OPS}
                   for event in tracer.events)

    def test_by_mnemonic_and_format(self):
        program = compile_source(SOURCE, CompilerOptions.wrapped())
        machine = Machine(program)
        tracer = attach_tracer(machine)
        machine.run()
        ifpadds = tracer.by_mnemonic("ifpadd")
        assert ifpadds
        text = tracer.format_tail(5)
        assert text.count("\n") == 4

    def test_tracing_does_not_change_results(self):
        program = compile_source(SOURCE, CompilerOptions.wrapped())
        plain = Machine(program).run()
        traced_machine = Machine(program)
        attach_tracer(traced_machine)
        traced = traced_machine.run()
        assert plain.exit_code == traced.exit_code
        assert plain.stats.total_instructions \
            == traced.stats.total_instructions


class TestTracerEdgeCases:
    def test_negative_capacity_rejected(self):
        with pytest.raises(ValueError):
            Tracer(capacity=-1)

    def test_zero_capacity_counts_without_recording(self):
        program = compile_source(SOURCE, CompilerOptions.wrapped())
        machine = Machine(program)
        tracer = attach_tracer(machine, capacity=0)
        result = machine.run()
        assert result.ok
        assert tracer.recorded == result.stats.total_instructions \
            - result.stats.builtin_instructions
        assert len(tracer.events) == 0
        assert tracer.tail(10) == []
        assert tracer.snapshot() == ()

    def test_tail_truncation_drops_oldest_first(self):
        program = compile_source(SOURCE, CompilerOptions.baseline())
        machine = Machine(program)
        full = attach_tracer(machine, capacity=100_000)
        machine.run()
        truncated_machine = Machine(program)
        truncated = attach_tracer(truncated_machine, capacity=16)
        truncated_machine.run()
        # the bounded ring keeps exactly the last 16, in execution order
        assert list(truncated.events) == list(full.events)[-16:]
        assert truncated.tail(4) == list(full.events)[-4:]

    def test_tail_count_edge_values(self):
        program = compile_source(SOURCE, CompilerOptions.baseline())
        machine = Machine(program)
        tracer = attach_tracer(machine, capacity=16)
        machine.run()
        assert tracer.tail(0) == []
        assert tracer.tail(-3) == []
        assert len(tracer.tail(5)) == 5
        # asking for more than capacity returns everything kept
        assert tracer.tail(1000) == list(tracer.events)

    def test_snapshot_while_tracing_is_detached(self):
        tracer = Tracer(capacity=4)

        from repro.compiler.ir import MNEMONICS

        class _Ins:
            op = next(iter(MNEMONICS))
            dst = 0
            a = -1
            b = -1

        for i in range(3):
            tracer.record("f", i, _Ins(), [])
        before = tracer.snapshot()
        for i in range(3, 9):
            tracer.record("f", i, _Ins(), [])
        # the earlier snapshot is unaffected by later evictions
        assert [e.index for e in before] == [0, 1, 2]
        assert [e.index for e in tracer.snapshot()] == [5, 6, 7, 8]
        assert tracer.recorded == 9


class TestAnatomy:
    def _machine(self, options=None):
        program = compile_source("int main(void) { return 0; }",
                                 options or CompilerOptions.wrapped())
        return Machine(program)

    def test_legacy_pointer(self):
        machine = self._machine()
        anatomy = explain_pointer(machine, 0x12345)
        assert anatomy.scheme == "LEGACY"
        assert anatomy.promote_outcome == "bypass_legacy"
        assert "LEGACY" in anatomy.describe()

    def test_local_offset_pointer(self):
        machine = self._machine()
        tagged, bounds, _c, _i = machine.wrapped_allocator.malloc(48, 0, 0)
        anatomy = explain_pointer(machine, tagged)
        assert anatomy.scheme == "LOCAL_OFFSET"
        assert anatomy.granule_offset == 3  # 48 bytes / 16
        assert anatomy.bounds == bounds
        assert anatomy.promote_outcome == "valid"

    def test_subheap_pointer(self):
        machine = self._machine(CompilerOptions.subheap())
        tagged, bounds, _c, _i = machine.subheap_allocator.malloc(24, 0, 24)
        anatomy = explain_pointer(machine, tagged)
        assert anatomy.scheme == "SUBHEAP"
        assert anatomy.register_index is not None
        assert anatomy.bounds == bounds

    def test_dry_run_preserves_stats(self):
        machine = self._machine()
        tagged, _b, _c, _i = machine.wrapped_allocator.malloc(48, 0, 0)
        before = machine.ifp.stats.promotes_total
        explain_pointer(machine, tagged)
        assert machine.ifp.stats.promotes_total == before

    def test_poisoned_pointer(self):
        from repro.ifp.poison import Poison
        from repro.ifp.tag import with_poison
        machine = self._machine()
        anatomy = explain_pointer(machine,
                                  with_poison(0x9000, Poison.INVALID))
        assert anatomy.poison == "INVALID"
        assert anatomy.promote_outcome == "bypass_poisoned"

    def test_dry_run_changes_nothing_the_machine_observes(self):
        machine = self._machine()
        warm, _b, _c, _i = machine.wrapped_allocator.malloc(48, 0, 0)
        machine.ifp.promote(warm)   # a promote-cache entry, L1 lines
        tagged, _b, _c, _i = machine.wrapped_allocator.malloc(96, 0, 0)
        calls = []

        class Injector:
            def on_promote(self, pointer):
                calls.append("on_promote")
                return pointer

            def on_metadata_load(self, address, size, value, phase):
                calls.append("on_metadata_load")
                return value

        ifp = machine.ifp
        ifp.faults = ifp.port.faults = Injector()
        l1d = machine.hierarchy.l1d
        port = ifp.port

        def state():
            return (dataclasses.asdict(ifp.stats),
                    [list(lines) for lines in l1d._sets],
                    dataclasses.asdict(l1d.stats),
                    port.cycles, port.loads, port._buffered_line,
                    {key: tuple(entry)
                     for key, entry in ifp._promote_cache.items()},
                    {line: {ranges: set(keys)
                            for ranges, keys in bucket.items()}
                     for line, bucket in ifp._promote_deps.items()})

        before = state()
        stats = ifp.stats
        anatomy = explain_pointer(machine, tagged)
        assert anatomy.promote_outcome == "valid"
        assert anatomy.bounds.size == 96
        assert state() == before
        assert ifp.stats is stats and ifp.mac.stats is ifp.stats
        assert calls == []

    def test_dry_run_reports_a_temporal_violation(self):
        from repro.ifp.tag import address_of
        program = compile_source("int main(void) { return 0; }",
                                 CompilerOptions.wrapped())
        machine = Machine(program, MachineConfig(temporal="check"))
        tagged, _b, _c, _i = machine.builtins["__ifp_malloc"](
            machine, [48, 0, 0], None)
        machine.builtins["__ifp_free"](machine, [tagged], None)
        # the address comes back under a fresh key: ``tagged`` is stale
        fresh, _b, _c, _i = machine.builtins["__ifp_malloc"](
            machine, [48, 0, 0], None)
        assert address_of(fresh) == address_of(tagged) and fresh != tagged
        before = dataclasses.asdict(machine.ifp.stats)
        anatomy = explain_pointer(machine, tagged)
        assert anatomy.promote_outcome == "temporal violation"
        assert dataclasses.asdict(machine.ifp.stats) == before
