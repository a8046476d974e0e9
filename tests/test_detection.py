"""End-to-end spatial memory-safety detection tests.

These are the behavioural heart of the reproduction: every class of
violation the paper's design detects must trap, and the matching
in-bounds variants must run clean under every configuration.
"""

import pytest

from repro.compiler import CompilerOptions, compile_source
from repro.vm import Machine, MachineConfig
from tests.conftest import compile_and_run, run_all_configs

WRAPPED = CompilerOptions.wrapped()
SUBHEAP = CompilerOptions.subheap()


def assert_detected(source, options=WRAPPED):
    result = compile_and_run(source, options)
    assert result.detected_violation, \
        f"violation not detected ({options.allocator})"
    return result


def assert_clean(source, options=WRAPPED):
    result = compile_and_run(source, options)
    assert result.ok, f"false positive: {result.trap}"
    return result


class TestHeapOverflow:
    BAD = """
    int main(void) {
        char *p = (char*)malloc(16);
        int i;
        for (i = 0; i <= 16; i++) { p[i] = 'x'; }
        free(p);
        return 0;
    }
    """
    GOOD = BAD.replace("i <= 16", "i < 16")

    def test_detected_wrapped(self):
        assert_detected(self.BAD, WRAPPED)

    def test_detected_subheap(self):
        assert_detected(self.BAD, SUBHEAP)

    def test_good_clean_everywhere(self):
        for config, result in run_all_configs(self.GOOD).items():
            assert result.ok, config

    def test_baseline_is_silent(self):
        result = compile_and_run(self.BAD, CompilerOptions.baseline())
        assert result.ok  # no protection without instrumentation

    def test_no_promote_build_misses_heap_reload_overflow(self):
        # With promote as a NOP, a reloaded pointer has no bounds: the
        # no-promote configuration is a performance probe, not a defense.
        source = """
        char *g;
        int main(void) {
            g = (char*)malloc(16);
            char *p = g;
            p[20] = 1;
            return 0;
        }
        """
        result = Machine(compile_source(source, WRAPPED),
                         MachineConfig(no_promote=True)).run()
        assert result.ok


class TestHeapUnderwrite:
    BAD = """
    int main(void) {
        int *p = (int*)malloc(40);
        int i;
        for (i = 9; i >= -1; i--) { p[i] = i; }
        free(p);
        return 0;
    }
    """

    def test_detected_both_allocators(self):
        assert_detected(self.BAD, WRAPPED)
        assert_detected(self.BAD, SUBHEAP)


class TestHeapOverread:
    BAD = """
    int g_sink;
    int main(void) {
        int *p = (int*)malloc(40);
        g_sink = p[10];
        free(p);
        return 0;
    }
    """

    def test_detected(self):
        assert_detected(self.BAD, WRAPPED)
        assert_detected(self.BAD, SUBHEAP)


class TestStackOverflow:
    def test_direct_index_overflow(self):
        assert_detected("""
        int main(void) {
            int buf[8];
            int i;
            for (i = 0; i < 9; i++) { buf[i] = i; }
            return buf[0];
        }
        """)

    def test_via_escaped_pointer(self):
        assert_detected("""
        void fill(int *p, int n) {
            int i;
            for (i = 0; i <= n; i++) { p[i] = i; }
        }
        int main(void) {
            int buf[8];
            fill(buf, 8);
            return buf[0];
        }
        """)

    def test_exact_fill_is_clean(self):
        assert_clean("""
        void fill(int *p, int n) {
            int i;
            for (i = 0; i < n; i++) { p[i] = i; }
        }
        int main(void) {
            int buf[8];
            fill(buf, 8);
            return buf[7];
        }
        """)


class TestGlobalOverflow:
    def test_escaped_global_overflow(self):
        assert_detected("""
        int g_buf[8];
        int *g_p;
        int main(void) {
            g_p = g_buf;
            int *p = g_p;
            p[8] = 1;
            return 0;
        }
        """)

    def test_direct_global_index_overflow(self):
        assert_detected("""
        int g_buf[8];
        int main(void) {
            int i;
            for (i = 0; i < 12; i++) { g_buf[i] = i; }
            return 0;
        }
        """)

    def test_large_global_uses_global_table(self):
        source = """
        long g_big[500];
        long *g_p;
        int main(void) {
            g_p = g_big;
            long *p = g_p;
            p[500] = 1;
            return 0;
        }
        """
        result = assert_detected(source)
        assert result.stats.ifp.lookups_global_table >= 1


class TestIntraObject:
    """The paper's Listing 1: subobject-granularity detection."""

    LISTING1 = """
    struct S {
        char vulnerable[12];
        char sensitive[12];
    };
    void touch(char *p, int i) { p[i] = 'X'; }
    int main(void) {
        struct S s;
        s.sensitive[0] = 'K';
        touch(s.vulnerable, %d);
        return s.sensitive[0];
    }
    """

    def test_intra_object_overflow_detected(self):
        assert_detected(self.LISTING1 % 12)

    def test_last_byte_is_clean(self):
        assert_clean(self.LISTING1 % 11)

    def test_heap_intra_object_via_promote(self):
        source = """
        struct S { char vulnerable[12]; char sensitive[12]; };
        char *g;
        int main(void) {
            struct S *s = (struct S*)malloc(sizeof(struct S));
            g = s->vulnerable;
            char *q = g;        /* reload: promote narrows via layout table */
            q[13] = 'X';
            return 0;
        }
        """
        for options in (WRAPPED, SUBHEAP):
            result = assert_detected(source, options)
            assert result.stats.ifp.narrow_success >= 1

    def test_heap_intra_object_good_variant(self):
        source = """
        struct S { char vulnerable[12]; char sensitive[12]; };
        char *g;
        int main(void) {
            struct S *s = (struct S*)malloc(sizeof(struct S));
            g = s->vulnerable;
            char *q = g;
            q[11] = 'X';
            return 0;
        }
        """
        assert_clean(source, WRAPPED)
        assert_clean(source, SUBHEAP)

    def test_nested_array_of_struct_narrowing(self):
        # The paper's Figure 9 shape, via a stored member pointer.
        source = """
        struct Nested { int v3; int v4; };
        struct S { int v1; struct Nested array[2]; int v5; };
        int *g;
        int main(void) {
            struct S *s = (struct S*)malloc(sizeof(struct S));
            g = &s->array[1].v3;
            int *q = g;
            q[%d] = 7;
            return 0;
        }
        """
        assert_clean(source % 0, WRAPPED)       # writes v3 itself
        assert_detected(source % 1, WRAPPED)    # would write v4

    def test_wrapper_alloc_coarsens_to_object(self):
        # Without a layout table the guarantee degrades to object bounds
        # (detected), but intra-object stays invisible (paper Section 3).
        source = """
        struct S { char a[12]; char b[12]; };
        void *wrap(unsigned long n) { return malloc(n); }
        char *g;
        int main(void) {
            struct S *s = (struct S*)wrap(sizeof(struct S));
            g = s->a;
            char *q = g;
            q[%d] = 'X';
            return 0;
        }
        """
        intra = compile_and_run(source % 13, WRAPPED)
        assert intra.ok  # coarsened: inside the object, not detected
        beyond = compile_and_run(source % 24, WRAPPED)
        assert beyond.detected_violation


class TestPoisonSemantics:
    def test_oob_pointer_created_but_not_dereferenced_is_fine(self):
        assert_clean("""
        int main(void) {
            int buf[4];
            int *end = &buf[4];   /* one-past: legal to form */
            int *p = end - 1;
            *p = 5;               /* back in bounds */
            return buf[3];
        }
        """)

    def test_recoverable_pointer_returning_in_bounds(self):
        assert_clean("""
        int main(void) {
            char *p = (char*)malloc(8);
            char *q = p + 8;      /* one past */
            q = q - 1;            /* recovered */
            *q = 1;
            free(p);
            return 0;
        }
        """)

    def test_use_after_free_with_metadata_invalidation(self):
        # The paper: temporal errors are caught only when they invalidate
        # object metadata — the wrapped allocator clears it on free.
        source = """
        int *g;
        int main(void) {
            g = (int*)malloc(16);
            free(g);
            int *p = g;     /* promote: metadata gone -> poisoned */
            *p = 1;
            return 0;
        }
        """
        assert_detected(source, WRAPPED)


class TestDetectionStats:
    def test_check_failure_counted(self):
        result = assert_detected(TestHeapOverflow.BAD)
        assert result.stats.implicit_checks > 0

    def test_trap_carries_pointer_info(self):
        from repro.errors import PoisonTrap, BoundsTrap
        result = assert_detected(TestHeapOverflow.BAD)
        assert isinstance(result.trap, (PoisonTrap, BoundsTrap))
