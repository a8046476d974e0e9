"""AST node definitions for mini-C.

Expression nodes carry a ``ctype`` slot filled in by semantic analysis
(:mod:`repro.lang.sema`); the parser leaves it ``None``.  ``lvalue`` marks
expressions that denote storage.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional

from repro.lang.ctypes import CType


# ---------------------------------------------------------------------------
# Expressions
# ---------------------------------------------------------------------------

@dataclass
class Expr:
    line: int = 0
    ctype: Optional[CType] = None
    lvalue: bool = False


@dataclass
class IntLit(Expr):
    value: int = 0


@dataclass
class StrLit(Expr):
    text: str = ""
    #: label of the anonymous global the string is materialised into.
    symbol: str = ""


@dataclass
class Ident(Expr):
    name: str = ""
    #: 'local' | 'param' | 'global' | 'function' — set by sema.
    binding: str = ""


@dataclass
class Unary(Expr):
    op: str = ""           #: '-', '!', '~'
    operand: Expr = None


@dataclass
class Deref(Expr):
    pointer: Expr = None


@dataclass
class AddressOf(Expr):
    operand: Expr = None


@dataclass
class Binary(Expr):
    op: str = ""           #: arithmetic/relational/logical operator
    left: Expr = None
    right: Expr = None


@dataclass
class Conditional(Expr):
    cond: Expr = None
    then: Expr = None
    otherwise: Expr = None


@dataclass
class Assign(Expr):
    op: str = "="          #: '=' or a compound op like '+='
    target: Expr = None
    value: Expr = None


@dataclass
class IncDec(Expr):
    op: str = "++"
    target: Expr = None
    postfix: bool = True


@dataclass
class Call(Expr):
    func: Expr = None      #: Ident naming a function, or a pointer expr
    args: List[Expr] = field(default_factory=list)


@dataclass
class Index(Expr):
    base: Expr = None
    index: Expr = None


@dataclass
class Member(Expr):
    base: Expr = None
    name: str = ""
    arrow: bool = False    #: True for '->'
    #: byte offset of the member, set by sema.
    offset: int = 0


@dataclass
class Cast(Expr):
    target_type: CType = None
    operand: Expr = None


@dataclass
class SizeofType(Expr):
    query_type: CType = None


@dataclass
class SizeofExpr(Expr):
    operand: Expr = None


# ---------------------------------------------------------------------------
# Statements
# ---------------------------------------------------------------------------

@dataclass
class Stmt:
    line: int = 0


@dataclass
class Block(Stmt):
    body: List[Stmt] = field(default_factory=list)


@dataclass
class VarDecl(Stmt):
    name: str = ""
    var_type: CType = None
    init: Optional[Expr] = None
    #: array/struct initialiser lists arrive as a Python list of Expr.
    init_list: Optional[List[Expr]] = None


@dataclass
class ExprStmt(Stmt):
    expr: Expr = None


@dataclass
class If(Stmt):
    cond: Expr = None
    then: Stmt = None
    otherwise: Optional[Stmt] = None


@dataclass
class While(Stmt):
    cond: Expr = None
    body: Stmt = None
    #: True when this node came from a do-while (condition checked last).
    check_after: bool = False


@dataclass
class For(Stmt):
    init: Optional[Stmt] = None
    cond: Optional[Expr] = None
    step: Optional[Expr] = None
    body: Stmt = None


@dataclass
class SwitchCase:
    """One `case N:` (or `default:` when value is None) and the
    statements up to the next label (C fallthrough semantics)."""

    value: Optional[int]
    body: List[Stmt] = field(default_factory=list)


@dataclass
class Switch(Stmt):
    scrutinee: Expr = None
    cases: List[SwitchCase] = field(default_factory=list)


@dataclass
class Return(Stmt):
    value: Optional[Expr] = None


@dataclass
class Break(Stmt):
    pass


@dataclass
class Continue(Stmt):
    pass


# ---------------------------------------------------------------------------
# Top-level declarations
# ---------------------------------------------------------------------------

@dataclass
class Param:
    name: str
    type: CType
    line: int = 0


@dataclass
class FuncDef:
    name: str
    ret: CType
    params: List[Param]
    body: Optional[Block]  #: None for a prototype-only declaration
    line: int = 0
    varargs: bool = False


@dataclass
class GlobalVar:
    name: str
    var_type: CType
    init: Optional[Expr] = None
    init_list: Optional[List[Expr]] = None
    line: int = 0


@dataclass
class TranslationUnit:
    """The parser's output: every top-level declaration in source order."""

    functions: List[FuncDef] = field(default_factory=list)
    globals: List[GlobalVar] = field(default_factory=list)
    structs: List = field(default_factory=list)  #: List[StructType]
