"""Tests for the mini-C frontend: lexer, parser, types, sema."""

import pytest

from repro.errors import LexError, ParseError, TypeError_
from repro.lang import analyze, astnodes as ast, parse, tokenize
from repro.lang.ctypes import (
    ArrayType, CHAR, INT, LONG, PointerType, StructType, UINT, ULONG,
    common_int_type, decay,
)


class TestLexer:
    def test_keywords_and_idents(self):
        tokens = tokenize("int foo while whiley")
        assert [t.kind for t in tokens[:-1]] == [
            "keyword", "ident", "keyword", "ident"]

    def test_numbers(self):
        tokens = tokenize("42 0x2A 10UL 'a' '\\n'")
        assert [t.value for t in tokens[:-1]] == [42, 42, 10, 97, 10]

    def test_strings(self):
        tokens = tokenize(r'"hi\n" "a\"b"')
        assert tokens[0].text == "hi\n"
        assert tokens[1].text == 'a"b'

    def test_maximal_munch(self):
        tokens = tokenize("a<<=b >>= ->")
        assert [t.text for t in tokens[:-1]] == ["a", "<<=", "b", ">>=",
                                                 "->"]

    def test_comments(self):
        tokens = tokenize("a // line\n /* block\n */ b")
        assert [t.text for t in tokens[:-1]] == ["a", "b"]

    def test_unterminated_comment(self):
        with pytest.raises(LexError):
            tokenize("/* never ends")

    def test_bad_character(self):
        with pytest.raises(LexError):
            tokenize("int a @ b;")

    def test_line_tracking(self):
        tokens = tokenize("a\nbb\n  c")
        assert tokens[0].line == 1
        assert tokens[1].line == 2
        assert tokens[2].line == 3 and tokens[2].col == 3

    def test_malformed_hex_literal(self):
        for source in ("int x = 0x;", "int x = 0XZ;"):
            with pytest.raises(LexError, match="malformed hex literal") as exc:
                tokenize(source)
            assert (exc.value.line, exc.value.col) == (1, 9)

    def test_numeric_non_digit_cannot_start_token(self):
        # '\u00b2' and '\u00bd' are str.isalnum but not str.isalpha, so
        # neither starts an identifier; inside one they are accepted.
        for source in ("a = \u00b2;", "a = \u00bd;", "a = 1\u00b2;"):
            with pytest.raises(LexError, match="unexpected character"):
                tokenize(source)
        assert tokenize("x\u00b2")[0].text == "x\u00b2"

    def test_token_is_a_tuple_with_the_old_repr(self):
        token = tokenize("\n  foo")[0]
        assert token == ("ident", "foo", 0, 2, 3)
        assert repr(token) == "Token(ident, 'foo' @2:3)"

    def test_positions_after_multiline_spans(self):
        source = "a /* x\n\ny */ b // c\n\r\t'\n' \"s\" d"
        assert [(t.text, t.line, t.col) for t in tokenize(source)] == [
            ("a", 1, 1), ("b", 3, 6), ("'\n'", 4, 3), ("s", 5, 3),
            ("d", 5, 7), ("", 5, 8)]

    def test_adjacent_string_concatenation(self):
        unit = parse('char *s = "ab" "cd";')
        assert unit.globals[0].init.text == "abcd"


class TestTypes:
    def test_sizes(self):
        assert CHAR.size == 1 and INT.size == 4 and LONG.size == 8
        assert PointerType(INT).size == 8

    def test_struct_layout_alignment(self):
        s = StructType("S").define([
            ("c", CHAR), ("i", INT), ("p", PointerType(CHAR))])
        assert [f.offset for f in s.fields] == [0, 4, 8]
        assert s.size == 16 and s.align == 8

    def test_struct_tail_padding(self):
        s = StructType("S").define([("p", PointerType(CHAR)), ("c", CHAR)])
        assert s.size == 16

    def test_array_type(self):
        a = ArrayType(INT, 5)
        assert a.size == 20 and a.align == 4
        assert decay(a) == PointerType(INT)

    def test_common_int_type(self):
        assert common_int_type(CHAR, CHAR) == INT     # promotion
        assert common_int_type(INT, UINT) == UINT
        assert common_int_type(LONG, UINT) == LONG
        assert common_int_type(INT, ULONG) == ULONG

    def test_int_wrap(self):
        assert INT.wrap(1 << 31) == -(1 << 31)
        assert UINT.wrap(-1) == (1 << 32) - 1

    def test_struct_redefinition_rejected(self):
        s = StructType("S").define([("x", INT)])
        with pytest.raises(ValueError):
            s.define([("y", INT)])


class TestParser:
    def test_struct_and_function(self):
        unit = parse("""
            struct P { int x; int y; };
            int dist(struct P *p) { return p->x + p->y; }
        """)
        assert unit.structs[0].name == "P"
        assert unit.functions[0].name == "dist"

    def test_nested_struct_arrays(self):
        unit = parse("""
            struct Inner { int a; };
            struct Outer { struct Inner grid[3][2]; int tail; };
        """)
        outer = unit.structs[1]
        assert outer.size == 3 * 2 * 4 + 4

    def test_typedef(self):
        unit = parse("""
            typedef unsigned long size_t;
            size_t add(size_t a, size_t b) { return a + b; }
        """)
        assert unit.functions[0].ret == ULONG

    def test_function_pointer_declarator(self):
        unit = parse("int (*handler)(int, int);")
        declared = unit.globals[0].var_type
        assert declared.is_pointer and declared.pointee.is_function
        assert len(declared.pointee.params) == 2

    def test_function_pointer_parameter(self):
        unit = parse("int apply(int (*fn)(int), int x) { return fn(x); }")
        param = unit.functions[0].params[0]
        assert param.type.is_pointer

    def test_array_dimension_constant_folding(self):
        unit = parse("int buf[4 * 8 + sizeof(int)];")
        assert unit.globals[0].var_type.count == 36

    def test_precedence(self):
        unit = parse("int x = 2 + 3 * 4;")
        init = unit.globals[0].init
        assert init.op == "+"
        assert init.right.op == "*"

    def test_precedence_crosses_every_binary_level(self):
        init = parse("int x = a || b && c | d ^ e & f == g < h << i + j * k;"
                     ).globals[0].init
        assert _shape(init) == (
            "(|| a (&& b (| c (^ d (& e (== f (< g (<< h (+ i (* j k))))))))))")

    def test_left_associativity_within_a_level(self):
        assert _expr_shape("a - b - c") == "(- (- a b) c)"
        assert _expr_shape("a / b % c") == "(% (/ a b) c)"
        assert _expr_shape("a < b >= c != d == e") == (
            "(== (!= (>= (< a b) c) d) e)")
        assert _expr_shape("a * b + c * d - e") == (
            "(- (+ (* a b) (* c d)) e)")

    def test_conditional_and_assignment_above_binary_levels(self):
        assert _expr_shape("x = y += a || b ? c : d ? e : f") == (
            "(= x (+= y (?: (|| a b) c (?: d e f))))")
        assert _expr_shape("a ? b = 1 : c") == "(?: a (= b 1) c)"

    def test_string_token_is_not_an_operator(self):
        with pytest.raises(ParseError, match="expected ';', found '\\+'") \
                as exc:
            parse('int f(void) { return a "+" b; }')
        assert (exc.value.line, exc.value.col) == (1, 24)

    def test_error_position_after_block_comment(self):
        with pytest.raises(ParseError) as exc:
            parse("int f(void) {\n  /* one\n     two */ return 1 }")
        assert (exc.value.line, exc.value.col) == (3, 22)
        assert "expected ';', found '}'" in str(exc.value)

    def test_error_position_at_eof(self):
        with pytest.raises(ParseError, match="unexpected token ''") as exc:
            parse("int f(void) {\n  return 1;\n  ")
        assert (exc.value.line, exc.value.col) == (3, 3)

    def test_do_while(self):
        unit = parse("int f(void) { int i = 0; do { i++; } while (i < 3);"
                     " return i; }")
        assert unit.functions[0].body is not None

    def test_missing_semicolon(self):
        with pytest.raises(ParseError):
            parse("int f(void) { return 1 }")

    def test_dangling_else_binds_inner(self):
        unit = parse("int f(int a, int b) {"
                     " if (a) if (b) return 1; else return 2;"
                     " return 3; }")
        outer_if = unit.functions[0].body.body[0]
        assert outer_if.otherwise is None
        assert outer_if.then.otherwise is not None


def _shape(expr) -> str:
    """An expression tree as an s-expression of operators and leaves."""
    if isinstance(expr, ast.Binary):
        return f"({expr.op} {_shape(expr.left)} {_shape(expr.right)})"
    if isinstance(expr, ast.Assign):
        return f"({expr.op} {_shape(expr.target)} {_shape(expr.value)})"
    if isinstance(expr, ast.Conditional):
        return (f"(?: {_shape(expr.cond)} {_shape(expr.then)} "
                f"{_shape(expr.otherwise)})")
    if isinstance(expr, ast.Ident):
        return expr.name
    return str(expr.value)


def _expr_shape(text: str) -> str:
    body = parse(f"int f(void) {{ return {text}; }}").functions[0].body
    return _shape(body.body[0].value)


class TestSema:
    def test_member_offsets_annotated(self):
        program = analyze(parse("""
            struct S { int a; long b; };
            long get(struct S *s) { return s->b; }
        """))
        ret = program.functions["get"].body.body[0]
        assert ret.value.offset == 8

    def test_pointer_arith_types(self):
        program = analyze(parse("""
            long diff(int *a, int *b) { return a - b; }
            int *fwd(int *a, int n) { return a + n; }
        """))
        assert program.functions["diff"].body.body[0].value.ctype == LONG

    def test_string_interning(self):
        program = analyze(parse("""
            char *a = "x";
            char *b = "x";
            char *c = "y";
        """))
        assert len(program.strings) == 2

    def test_undeclared_identifier(self):
        with pytest.raises(TypeError_):
            analyze(parse("int f(void) { return nope; }"))

    def test_unknown_member(self):
        with pytest.raises(TypeError_):
            analyze(parse("struct S { int a; };"
                          "int f(struct S *s) { return s->b; }"))

    def test_call_arity_checked(self):
        with pytest.raises(TypeError_):
            analyze(parse("int g(int a) { return a; }"
                          "int f(void) { return g(1, 2); }"))

    def test_varargs_allows_extra(self):
        analyze(parse('int f(void) { printf("%d %d", 1, 2); return 0; }'))

    def test_assign_to_rvalue_rejected(self):
        with pytest.raises(TypeError_):
            analyze(parse("int f(int a) { (a + 1) = 2; return a; }"))

    def test_void_deref_rejected(self):
        with pytest.raises(TypeError_):
            analyze(parse("int f(void *p) { return *p; }"))

    def test_builtin_signatures_available(self):
        program = analyze(parse(
            "int f(void) { void *p = malloc(8); free(p); return 0; }"))
        assert "f" in program.functions

    def test_return_type_mismatch(self):
        # An aggregate cannot be produced from an integer.
        with pytest.raises(TypeError_):
            analyze(parse("struct S { int a; };"
                          "struct S f(struct S *p) { return 5; }"))
        # Integer-to-pointer returns are C-permissive (NULL idiom).
        analyze(parse("struct S { int a; };"
                      "struct S *g(void) { return NULL; }"))

    def test_redefinition_rejected(self):
        with pytest.raises(TypeError_):
            analyze(parse("int f(void) { return 0; }"
                          "int f(void) { return 1; }"))

    def test_break_outside_loop_is_parseable(self):
        # sema leaves loop nesting to codegen; ensure no crash here
        analyze(parse("int f(void) { while (1) { break; } return 0; }"))
