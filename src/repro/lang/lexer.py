"""Tokenizer for mini-C.

One compiled regex scans whitespace, ``//`` comments, identifiers,
integers and operators; block comments and character and string
literals take the slower paths below.  Positions come from the offset
of the current line's first character, advanced past the newlines of
each skipped span.
"""

from __future__ import annotations

import re
from typing import List, NamedTuple

from repro.errors import LexError

KEYWORDS = frozenset({
    "void", "char", "short", "int", "long", "unsigned", "signed", "const",
    "struct", "union", "typedef", "if", "else", "while", "for", "do",
    "return", "break", "continue", "sizeof", "static", "extern", "NULL",
    "switch", "case", "default",
})

#: Multi-character operators, longest first so maximal munch works.
_OPERATORS = [
    "<<=", ">>=", "...",
    "==", "!=", "<=", ">=", "&&", "||", "<<", ">>", "->",
    "+=", "-=", "*=", "/=", "%=", "&=", "|=", "^=", "++", "--",
    "+", "-", "*", "/", "%", "=", "<", ">", "!", "~", "&", "|", "^",
    "(", ")", "{", "}", "[", "]", ";", ",", ".", "?", ":",
]

_ESCAPES = {"n": 10, "t": 9, "r": 13, "0": 0, "\\": 92, "'": 39, '"': 34}

#: One token (or skipped span) per match; ``lastgroup`` names its kind.
#: ``word`` also admits numeric non-digit characters, which
#: :func:`tokenize` rejects: identifiers start with ``str.isalpha`` or _.
_SCAN = re.compile(
    r"(?P<skip>(?:[ \t\r\n]+|//[^\n]*)+)"
    r"|(?P<word>[^\W\d]\w*)"
    r"|0[xX](?P<hex>[0-9a-fA-F]*)[uUlL]*"
    r"|(?P<dec>\d+)[uUlL]*"
    r"|(?P<block>/\*)"
    r"|(?P<op>" + "|".join(map(re.escape, _OPERATORS)) + ")")


class Token(NamedTuple):
    kind: str   #: 'ident' | 'keyword' | 'int' | 'string' | 'op' | 'eof'
    text: str
    value: int = 0      #: numeric value for 'int' tokens
    line: int = 0
    col: int = 0

    def __repr__(self) -> str:
        return f"Token({self.kind}, {self.text!r} @{self.line}:{self.col})"


def tokenize(source: str) -> List[Token]:
    """Tokenize mini-C source into a token list ending with an 'eof' token."""
    tokens: List[Token] = []
    append = tokens.append
    scan = _SCAN.match
    new = tuple.__new__     #: builds a Token without its __new__ frame
    pos = 0
    line = 1
    line_start = 0      #: offset of the current line's first character
    length = len(source)
    while pos < length:
        col = pos - line_start + 1
        match = scan(source, pos)
        kind = match.lastgroup if match else None
        if kind == "op":
            pos = match.end()
            append(new(Token, ("op", match.group(), 0, line, col)))
            continue
        if kind == "word":
            pos = match.end()
            text = match.group()
            if not (text[0].isalpha() or text[0] == "_"):
                raise LexError(f"unexpected character {text[0]!r}", line, col)
            append(new(Token, ("keyword" if text in KEYWORDS else "ident",
                               text, 0, line, col)))
            continue
        if kind == "dec" or kind == "hex":
            digits = match.group(kind)
            if not digits:
                raise LexError("malformed hex literal", line, col)
            # Integer suffixes (L/U/UL) are accepted and ignored.
            value = int(digits, 10 if kind == "dec" else 16)
            append(new(Token, ("int", match.group(), value, line, col)))
            pos = match.end()
            continue
        # Whitespace, comments and literals may span lines (a character
        # literal can hold a raw newline).
        if kind == "skip":
            end = match.end()
        elif kind == "block":
            end = source.find("*/", pos + 2)
            if end < 0:
                raise LexError("unterminated block comment", line, col)
            end += 2
        elif source[pos] == "'":
            value, consumed = _read_char(source, pos, line, col)
            end = pos + consumed
            append(new(Token, ("int", source[pos:end], value, line, col)))
        elif source[pos] == '"':
            text, consumed = _read_string(source, pos, line, col)
            end = pos + consumed
            append(new(Token, ("string", text, 0, line, col)))
        else:
            raise LexError(f"unexpected character {source[pos]!r}", line, col)
        newlines = source.count("\n", pos, end)
        if newlines:
            line += newlines
            line_start = source.rfind("\n", pos, end) + 1
        pos = end
    append(new(Token, ("eof", "", 0, line, pos - line_start + 1)))
    return tokens


def _read_char(source: str, pos: int, line: int, col: int) -> tuple:
    """Parse a character literal at ``pos``; return (value, chars consumed)."""
    cursor = pos + 1
    if cursor >= len(source):
        raise LexError("unterminated character literal", line, col)
    if source[cursor] == "\\":
        escape = source[cursor + 1] if cursor + 1 < len(source) else ""
        if escape not in _ESCAPES:
            raise LexError(f"unknown escape \\{escape}", line, col)
        value = _ESCAPES[escape]
        cursor += 2
    else:
        value = ord(source[cursor])
        cursor += 1
    if cursor >= len(source) or source[cursor] != "'":
        raise LexError("unterminated character literal", line, col)
    return value, cursor + 1 - pos


def _read_string(source: str, pos: int, line: int, col: int) -> tuple:
    """Parse a string literal; return (decoded text, chars consumed)."""
    cursor = pos + 1
    out: List[str] = []
    while cursor < len(source):
        ch = source[cursor]
        if ch == '"':
            return "".join(out), cursor + 1 - pos
        if ch == "\n":
            break
        if ch == "\\":
            escape = source[cursor + 1] if cursor + 1 < len(source) else ""
            if escape not in _ESCAPES:
                raise LexError(f"unknown escape \\{escape}", line, col)
            out.append(chr(_ESCAPES[escape]))
            cursor += 2
            continue
        out.append(ch)
        cursor += 1
    raise LexError("unterminated string literal", line, col)
