"""Differential tests: the regex lexer against a char-by-char reference.

``reference_tokenize`` is the scanner the mini-C front end used before
its one-regex rewrite, kept here verbatim as an oracle.  Its one change
is the typed ``malformed hex literal`` error for ``0x`` with no digits,
where it used to leak a ``ValueError`` from ``int(..., 16)``.
"""

from typing import List

import pytest
from hypothesis import given, settings, strategies as st

from repro import workloads
from repro.errors import LexError
from repro.fuzz.generator import generate_program
from repro.juliet.cases import generate_cases, generate_temporal_cases
from repro.lang.lexer import (
    KEYWORDS, Token, _OPERATORS, _read_char, _read_string, tokenize,
)


def reference_tokenize(source: str) -> List[Token]:
    """Tokenize mini-C source into a token list ending with an 'eof' token."""
    tokens: List[Token] = []
    pos = 0
    line = 1
    col = 1
    length = len(source)

    def advance(count: int) -> None:
        nonlocal pos, line, col
        for _ in range(count):
            if source[pos] == "\n":
                line += 1
                col = 1
            else:
                col += 1
            pos += 1

    while pos < length:
        ch = source[pos]
        # Whitespace.
        if ch in " \t\r\n":
            advance(1)
            continue
        # Comments.
        if source.startswith("//", pos):
            while pos < length and source[pos] != "\n":
                advance(1)
            continue
        if source.startswith("/*", pos):
            end = source.find("*/", pos + 2)
            if end < 0:
                raise LexError("unterminated block comment", line, col)
            advance(end + 2 - pos)
            continue
        start_line, start_col = line, col
        # Identifiers and keywords.
        if ch.isalpha() or ch == "_":
            end = pos
            while end < length and (source[end].isalnum() or source[end] == "_"):
                end += 1
            text = source[pos:end]
            kind = "keyword" if text in KEYWORDS else "ident"
            tokens.append(Token(kind, text, 0, start_line, start_col))
            advance(end - pos)
            continue
        # Numbers.
        if ch.isdigit():
            end = pos
            if source.startswith(("0x", "0X"), pos):
                end = pos + 2
                while end < length and source[end] in "0123456789abcdefABCDEF":
                    end += 1
                if end == pos + 2:
                    raise LexError("malformed hex literal", line, col)
                value = int(source[pos:end], 16)
            else:
                while end < length and source[end].isdigit():
                    end += 1
                value = int(source[pos:end])
            # Integer suffixes (L/U/UL) are accepted and ignored.
            while end < length and source[end] in "uUlL":
                end += 1
            tokens.append(Token("int", source[pos:end], value,
                                start_line, start_col))
            advance(end - pos)
            continue
        # Character literals become int tokens.
        if ch == "'":
            value, consumed = _read_char(source, pos, line, col)
            tokens.append(Token("int", source[pos:pos + consumed], value,
                                start_line, start_col))
            advance(consumed)
            continue
        # String literals.
        if ch == '"':
            text, consumed = _read_string(source, pos, line, col)
            tokens.append(Token("string", text, 0, start_line, start_col))
            advance(consumed)
            continue
        # Operators / punctuation.
        for op in _OPERATORS:
            if source.startswith(op, pos):
                tokens.append(Token("op", op, 0, start_line, start_col))
                advance(len(op))
                break
        else:
            raise LexError(f"unexpected character {ch!r}", line, col)
    tokens.append(Token("eof", "", 0, line, col))
    return tokens


def _outcome(lex, source: str):
    """A lexer's tokens, or its error as (type, message, line, col)."""
    try:
        return [tuple(token) for token in lex(source)]
    except LexError as exc:
        return (type(exc), str(exc), exc.line, exc.col)


# Fragments are concatenated without separators, so neighbours fuse
# ("0x" + "g", "/" + "*", "a" + "é") as they would in real source.
# Characters that are str.isdigit but not decimal (superscripts) are
# left out: the reference leaks a ValueError from int() on them.
_FRAGMENTS = st.one_of(
    st.sampled_from(sorted(KEYWORDS)),
    st.from_regex(r"[A-Za-z_][A-Za-z0-9_]{0,6}", fullmatch=True),
    st.sampled_from(["é", "λ", "ß", "Ж", "名",
                     "xé", "_λ1", "٣", "½"]),
    st.from_regex(r"(0[xX][0-9a-fA-F]{0,4}|[0-9]{1,5})[uUlL]{0,2}",
                  fullmatch=True),
    st.sampled_from(_OPERATORS),
    st.sampled_from([" ", "\t", "\r", "\n", "\x0c", "  \n\t"]),
    st.sampled_from(["// note\n", "//", "/* a\n b */", "/**/", "/* x",
                     "*/"]),
    st.sampled_from(["'a'", "'\\n'", "'\\''", "'\\q'", "'", "'ab'",
                     "'\n'", "'\\"]),
    st.sampled_from(['"hi"', '"a\\"b"', '""', '"open', '"bad\\q"',
                     '"two\nlines"', '"\\']),
    st.sampled_from(["@", "$", "#", "`", "\\", " "]),
)


class TestLexerMatchesReference:
    @given(st.lists(_FRAGMENTS, max_size=24).map("".join))
    @settings(max_examples=300, deadline=None)
    def test_random_sources(self, source):
        assert _outcome(tokenize, source) == \
            _outcome(reference_tokenize, source)

    @pytest.mark.parametrize("source", ["", "0x", "0XZ", "\n\n", "/*\n*/",
                                        "a¹", "// end"])
    def test_edge_sources(self, source):
        assert _outcome(tokenize, source) == \
            _outcome(reference_tokenize, source)

    def test_juliet_cases(self):
        for case in generate_cases() + generate_temporal_cases():
            assert tokenize(case.source) == \
                reference_tokenize(case.source), case.name

    def test_workload_sources(self):
        for workload in workloads.all_workloads():
            source = workload.source()
            assert tokenize(source) == reference_tokenize(source), \
                workload.name

    def test_fuzz_programs(self):
        for iteration in range(50):
            source = generate_program(0, iteration).source
            assert tokenize(source) == reference_tokenize(source), iteration
