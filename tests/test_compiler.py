"""Tests for layout-table generation, escape analysis, and codegen."""

import pytest

from repro.compiler import CompilerOptions, Op, compile_source
from repro.compiler.layout_gen import (
    LayoutTableRegistry, build_layout_table, member_delta, subtree_entries,
)
from repro.compiler.safety import analyze_escapes
from repro.errors import CompileError
from repro.lang import analyze, parse
from repro.lang.ctypes import ArrayType, INT, StructType


def figure9_struct():
    nested = StructType("NestedTy").define([("v3", INT), ("v4", INT)])
    return StructType("S").define([
        ("v1", INT), ("array", ArrayType(nested, 2)), ("v5", INT)]), nested


class TestLayoutGen:
    def test_figure9_flattening(self):
        s, _nested = figure9_struct()
        table = build_layout_table(s, "S", 64)
        assert len(table) == 6
        # Exactly the paper's Figure 9b.
        rows = [(e.parent, e.base, e.bound, e.size) for e in table.entries]
        assert rows == [(0, 0, 24, 24), (0, 0, 4, 4), (0, 4, 20, 8),
                        (2, 0, 4, 4), (2, 4, 8, 4), (0, 20, 24, 4)]

    def test_member_deltas(self):
        s, nested = figure9_struct()
        assert member_delta(s, "v1") == 1
        assert member_delta(s, "array") == 2
        assert member_delta(s, "v5") == 5
        assert member_delta(nested, "v3") == 1
        assert member_delta(nested, "v4") == 2

    def test_subtree_entries(self):
        s, nested = figure9_struct()
        assert subtree_entries(INT) == 1
        assert subtree_entries(nested) == 3
        assert subtree_entries(s) == 6

    def test_scalar_types_get_no_table(self):
        assert build_layout_table(INT, "int", 64) is None
        assert build_layout_table(ArrayType(INT, 8), "arr", 64) is None

    def test_top_level_struct_array(self):
        s, _ = figure9_struct()
        table = build_layout_table(ArrayType(s, 4), "S_x4", 64)
        # entry 0 = whole array object, entry 1 = the array, then S's tree
        assert table.entries[0].size == 96
        assert table.entries[1].is_array
        assert table.entries[1].size == 24
        assert len(table) == 7

    def test_entry_budget_respected(self):
        s, _ = figure9_struct()
        assert build_layout_table(s, "S", 4) is None

    def test_registry_interns(self):
        s, _ = figure9_struct()
        registry = LayoutTableRegistry(64)
        first = registry.symbol_for(s)
        second = registry.symbol_for(s)
        assert first == second and first in registry.tables
        assert registry.symbol_for(INT) == ""


class TestEscapeAnalysis:
    def _escapes(self, source):
        program = analyze(parse(source))
        return analyze_escapes(program)

    def test_address_of_local(self):
        info = self._escapes(
            "void use(int *p); "
            "int f(void) { int x; use(&x); return x; }")
        assert info.local_escapes("f", "x")

    def test_direct_access_does_not_escape(self):
        info = self._escapes(
            "int f(void) { int buf[4]; int i; int s = 0;"
            " for (i = 0; i < 4; i++) { buf[i] = i; s += buf[i]; }"
            " return s; }")
        assert not info.local_escapes("f", "buf")

    def test_array_decay_escapes(self):
        info = self._escapes(
            "long g(char *p) { return strlen(p); }"
            "int f(void) { char buf[8]; return (int)g(buf); }")
        assert info.local_escapes("f", "buf")

    def test_global_escape(self):
        info = self._escapes(
            "int g_table[100]; int *g_p;"
            "int f(void) { g_p = &g_table[3]; return 0; }")
        assert "g_table" in info.globals_escaping
        assert "g_p" not in info.globals_escaping  # assigned, not escaped

    def test_member_path_roots(self):
        info = self._escapes(
            "struct S { int a[4]; int b; };"
            "int f(void) { struct S s; int *p = &s.a[1]; return *p; }")
        assert info.local_escapes("f", "s")


def _ops(source, options, function="main"):
    program = compile_source(source, options)
    return [ins.op for ins in program.functions[function].instrs]


class TestCodegen:
    SRC_LIST = """
    struct Node { int v; struct Node *next; };
    int main(void) {
        struct Node *n = (struct Node*)malloc(sizeof(struct Node));
        n->v = 1;
        n->next = NULL;
        struct Node *m = n->next;
        return n->v;
    }
    """

    def test_baseline_has_no_ifp_ops(self):
        ops = _ops(self.SRC_LIST, CompilerOptions.baseline())
        assert all(op < Op.PROMOTE for op in ops)

    def test_instrumented_promotes_pointer_loads(self):
        ops = _ops(self.SRC_LIST, CompilerOptions.wrapped())
        assert Op.PROMOTE in ops
        assert Op.IFPADD in ops

    def test_pointer_store_demotes(self):
        source = ("struct Node { int v; struct Node *next; };"
                  "int main(void) {"
                  "  struct Node *n = (struct Node*)malloc(16);"
                  "  n->next = n;"       # stores a bounds-carrying pointer
                  "  return 0; }")
        ops = _ops(source, CompilerOptions.wrapped())
        assert Op.IFPEXTRACT in ops

    def test_registered_local_sequence(self):
        source = ("void use(int *p);"
                  "int main(void) { int x = 1; use(&x); return x; }")
        program = compile_source(source, CompilerOptions.wrapped())
        ops = [i.op for i in program.functions["main"].instrs]
        assert Op.IFPMAC in ops and Op.IFPMD in ops and Op.IFPBND in ops

    def test_baseline_keeps_locals_in_registers(self):
        source = "int main(void) { int x = 1; int y = x + 2; return y; }"
        program = compile_source(source, CompilerOptions.baseline())
        assert program.functions["main"].frame_size == 0

    def test_static_array_index_gets_ifpbnd(self):
        source = ("int main(void) { int buf[10]; int i; int s = 0;"
                  " for (i = 0; i < 10; i++) { buf[i] = i; }"
                  " for (i = 0; i < 10; i++) { s += buf[i]; }"
                  " return s; }")
        ops = _ops(source, CompilerOptions.wrapped())
        assert Op.IFPBND in ops
        assert Op.PROMOTE not in ops  # everything statically known

    def test_subobject_pointer_gets_ifpidx(self):
        source = ("struct S { int a; int b[4]; };"
                  "int *g;"
                  "int main(void) { struct S s; g = s.b; return 0; }")
        ops = _ops(source, CompilerOptions.wrapped())
        assert Op.IFPIDX in ops

    def test_malloc_rewritten(self):
        program = compile_source(self.SRC_LIST, CompilerOptions.wrapped())
        names = [i.name for i in program.functions["main"].instrs
                 if i.op == Op.CALL]
        assert "__ifp_malloc" in names
        baseline = compile_source(self.SRC_LIST, CompilerOptions.baseline())
        base_names = [i.name for i in baseline.functions["main"].instrs
                      if i.op == Op.CALL]
        assert "malloc" in base_names

    def test_layout_table_emitted_for_typed_malloc(self):
        program = compile_source(self.SRC_LIST, CompilerOptions.wrapped())
        assert any(s.startswith("__IFP_LT_Node")
                   for s in program.layout_tables)

    def test_wrapper_alloc_gets_no_layout_table(self):
        source = """
        struct T { int a; int b; };
        void *wrap(unsigned long n) { return malloc(n); }
        int main(void) {
            struct T *t = (struct T*)wrap(sizeof(struct T));
            t->a = 1;
            return t->a;
        }
        """
        program = compile_source(source, CompilerOptions.wrapped())
        assert not any("__IFP_LT_T" in s for s in program.layout_tables)

    def test_getptr_for_escaping_global(self):
        source = ("int g_buf[200]; int *p;"
                  "int main(void) { p = &g_buf[5]; return *p; }")
        program = compile_source(source, CompilerOptions.wrapped())
        names = [i.name for i in program.functions["main"].instrs
                 if i.op == Op.CALL]
        assert "__ifp_getptr_g_buf" in names

    def test_dump_is_readable(self):
        program = compile_source(self.SRC_LIST, CompilerOptions.wrapped())
        text = program.functions["main"].dump()
        assert "promote" in text and "call" in text

    def test_break_outside_loop_rejected(self):
        with pytest.raises(CompileError):
            compile_source("int main(void) { break; return 0; }",
                           CompilerOptions.baseline())

    def test_no_promote_option_still_emits_promotes(self):
        # The no-promote build has the same instruction stream; only the
        # machine treats promote as a NOP.
        from repro.eval.configs import build_options
        assert build_options("wrapped-np") == CompilerOptions.wrapped()
        ops = _ops(self.SRC_LIST, build_options("wrapped-np"))
        assert Op.PROMOTE in ops


class TestExplicitChecks:
    def test_emits_ifpchk(self):
        source = ("int main(void) {"
                  " int *p = (int*)malloc(40);"
                  " p[3] = 1;"
                  " free(p);"
                  " return 0; }")
        explicit = CompilerOptions.wrapped(explicit_checks=True)
        ops = _ops(source, explicit)
        assert Op.IFPCHK in ops
        implicit_ops = _ops(source, CompilerOptions.wrapped())
        assert Op.IFPCHK not in implicit_ops
        assert len(ops) > len(implicit_ops)

    def test_explicit_checks_still_detect(self):
        from tests.conftest import compile_and_run
        source = ("int main(void) {"
                  " int *p = (int*)malloc(40);"
                  " p[10] = 1;"
                  " free(p);"
                  " return 0; }")
        result = compile_and_run(
            source, CompilerOptions.wrapped(explicit_checks=True))
        assert result.detected_violation
