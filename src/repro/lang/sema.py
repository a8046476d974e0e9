"""Semantic analysis for mini-C: symbol resolution and type checking.

``analyze`` turns the parser's untyped translation unit into a typed
:class:`Program`:

* every expression node gets its ``ctype`` and ``lvalue`` flags set;
* identifiers get their binding class (local / param / global / function);
* member accesses get their byte ``offset``;
* string literals are interned into synthetic globals;
* calls are checked against function signatures, including the builtin
  (libc/runtime) signatures in :data:`BUILTIN_SIGNATURES`.

The checker is deliberately permissive in the places C is (implicit
integer conversions, ``void*`` interchange, integer/pointer casts) and
strict where the compiler downstream needs guarantees (struct member
existence, call arity, lvalue-ness of assignment targets).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.errors import TypeError_
from repro.lang import astnodes as ast
from repro.lang.ctypes import (
    CHAR, CType, FunctionType, INT, LONG, PointerType, StructType, UINT, ULONG,
    USHORT, VOID, VOID_PTR, common_int_type, decay,
)

# ---------------------------------------------------------------------------
# Builtin (libc + IFP runtime) function signatures.  These are the
# *uninstrumented* functions of the paper's evaluation: the compiler knows
# their types but treats their pointer results as legacy pointers.
# ---------------------------------------------------------------------------

_CHAR_PTR = PointerType(CHAR)

BUILTIN_SIGNATURES: Dict[str, FunctionType] = {
    # allocation (rewritten by instrumentation to the runtime's allocators)
    "malloc": FunctionType(VOID_PTR, (ULONG,)),
    "calloc": FunctionType(VOID_PTR, (ULONG, ULONG)),
    "realloc": FunctionType(VOID_PTR, (VOID_PTR, ULONG)),
    "free": FunctionType(VOID, (VOID_PTR,)),
    # memory / string (legacy libc: never instrumented)
    "memcpy": FunctionType(VOID_PTR, (VOID_PTR, VOID_PTR, ULONG)),
    "memmove": FunctionType(VOID_PTR, (VOID_PTR, VOID_PTR, ULONG)),
    "memset": FunctionType(VOID_PTR, (VOID_PTR, INT, ULONG)),
    "memcmp": FunctionType(INT, (VOID_PTR, VOID_PTR, ULONG)),
    "strlen": FunctionType(ULONG, (_CHAR_PTR,)),
    "strcmp": FunctionType(INT, (_CHAR_PTR, _CHAR_PTR)),
    "strncmp": FunctionType(INT, (_CHAR_PTR, _CHAR_PTR, ULONG)),
    "strcpy": FunctionType(_CHAR_PTR, (_CHAR_PTR, _CHAR_PTR)),
    "strncpy": FunctionType(_CHAR_PTR, (_CHAR_PTR, _CHAR_PTR, ULONG)),
    "strcat": FunctionType(_CHAR_PTR, (_CHAR_PTR, _CHAR_PTR)),
    "strchr": FunctionType(_CHAR_PTR, (_CHAR_PTR, INT)),
    "atoi": FunctionType(INT, (_CHAR_PTR,)),
    # ctype.h-style helpers (legacy double-pointer table pattern — see the
    # paper's anagram discussion — is modelled in repro.runtime.libc)
    "isalpha": FunctionType(INT, (INT,)),
    "isdigit": FunctionType(INT, (INT,)),
    "isspace": FunctionType(INT, (INT,)),
    "tolower": FunctionType(INT, (INT,)),
    "toupper": FunctionType(INT, (INT,)),
    "__ctype_b_loc": FunctionType(PointerType(PointerType(USHORT)), ()),
    # process / io
    "exit": FunctionType(VOID, (INT,)),
    "abort": FunctionType(VOID, ()),
    "puts": FunctionType(INT, (_CHAR_PTR,)),
    "putchar": FunctionType(INT, (INT,)),
    "printf": FunctionType(INT, (_CHAR_PTR,), varargs=True),
    "print_int": FunctionType(VOID, (LONG,)),
    # misc
    "rand": FunctionType(INT, ()),
    "srand": FunctionType(VOID, (UINT,)),
    "clock": FunctionType(LONG, ()),
    "isqrt": FunctionType(LONG, (LONG,)),  # integer sqrt helper
    "labs": FunctionType(LONG, (LONG,)),
    "abs": FunctionType(INT, (INT,)),
}


@dataclass
class StringLiteral:
    """An interned string literal destined for the globals segment."""

    symbol: str
    data: bytes  #: includes the trailing NUL


@dataclass
class Program:
    """The typed program: what the compiler consumes."""

    functions: Dict[str, ast.FuncDef]
    globals: Dict[str, ast.GlobalVar]
    structs: List[StructType]
    strings: List[StringLiteral]
    #: functions in definition order (drives code emission order)
    function_order: List[str] = field(default_factory=list)

    def struct(self, name: str) -> StructType:
        for struct_type in self.structs:
            if struct_type.name == name:
                return struct_type
        raise KeyError(name)


def analyze(unit: ast.TranslationUnit) -> Program:
    """Type-check a translation unit; returns the typed program."""
    return _Checker(unit).run()


class _Scope:
    def __init__(self, parent: Optional["_Scope"] = None):
        self.parent = parent
        self.vars: Dict[str, Tuple[str, CType]] = {}

    def define(self, name: str, binding: str, ctype: CType, line: int) -> None:
        if name in self.vars:
            raise TypeError_(f"redefinition of {name!r}", line)
        self.vars[name] = (binding, ctype)

    def lookup(self, name: str) -> Optional[Tuple[str, CType]]:
        scope: Optional[_Scope] = self
        while scope is not None:
            if name in scope.vars:
                return scope.vars[name]
            scope = scope.parent
        return None


class _Checker:
    def __init__(self, unit: ast.TranslationUnit):
        self.unit = unit
        self.functions: Dict[str, ast.FuncDef] = {}
        self.globals: Dict[str, ast.GlobalVar] = {}
        self.strings: List[StringLiteral] = []
        self._string_index: Dict[bytes, str] = {}
        self.current_ret: CType = VOID
        self.function_order: List[str] = []

    # -- driver ---------------------------------------------------------------

    def run(self) -> Program:
        for struct_type in self.unit.structs:
            if not struct_type.complete:
                raise TypeError_(f"struct {struct_type.name} never defined")
        for func in self.unit.functions:
            existing = self.functions.get(func.name)
            if existing is not None and existing.body is not None \
                    and func.body is not None:
                raise TypeError_(f"redefinition of function {func.name!r}",
                                 func.line)
            if existing is None or func.body is not None:
                self.functions[func.name] = func
        for var in self.unit.globals:
            if var.name in self.globals:
                raise TypeError_(f"redefinition of global {var.name!r}",
                                 var.line)
            self.globals[var.name] = var
        for var in self.unit.globals:
            self._check_global(var)
        for func in self.unit.functions:
            if func.body is not None:
                self.function_order.append(func.name)
                self._check_function(func)
        return Program(self.functions, self.globals, list(self.unit.structs),
                       self.strings, self.function_order)

    # -- declarations ------------------------------------------------------------

    def _check_global(self, var: ast.GlobalVar) -> None:
        if var.var_type.is_void or var.var_type.is_function:
            raise TypeError_(f"global {var.name!r} has invalid type", var.line)
        scope = _Scope()
        if var.init is not None:
            self._check_expr(var.init, scope)
            self._require_convertible(var.init.ctype, var.var_type, var.line)
        if var.init_list is not None:
            for item in var.init_list:
                self._check_expr(item, scope)

    def _check_function(self, func: ast.FuncDef) -> None:
        scope = _Scope()
        for param in func.params:
            param_type = decay(param.type)
            scope.define(param.name, "param", param_type, func.line)
        self.current_ret = func.ret
        self._check_block(func.body, _Scope(scope))

    # -- statements -----------------------------------------------------------------

    def _check_block(self, block: ast.Block, scope: _Scope) -> None:
        inner = _Scope(scope)
        for stmt in block.body:
            self._check_stmt(stmt, inner)

    def _check_stmt(self, stmt: ast.Stmt, scope: _Scope) -> None:
        if isinstance(stmt, ast.Block):
            self._check_block(stmt, scope)
        elif isinstance(stmt, ast.VarDecl):
            self._check_vardecl(stmt, scope)
        elif isinstance(stmt, ast.ExprStmt):
            self._check_expr(stmt.expr, scope)
        elif isinstance(stmt, ast.If):
            self._check_scalar(stmt.cond, scope)
            self._check_stmt(stmt.then, scope)
            if stmt.otherwise is not None:
                self._check_stmt(stmt.otherwise, scope)
        elif isinstance(stmt, ast.While):
            self._check_scalar(stmt.cond, scope)
            self._check_stmt(stmt.body, scope)
        elif isinstance(stmt, ast.For):
            inner = _Scope(scope)
            if stmt.init is not None:
                self._check_stmt(stmt.init, inner)
            if stmt.cond is not None:
                self._check_scalar(stmt.cond, inner)
            if stmt.step is not None:
                self._check_expr(stmt.step, inner)
            self._check_stmt(stmt.body, inner)
        elif isinstance(stmt, ast.Switch):
            self._check_expr(stmt.scrutinee, scope)
            if not decay(stmt.scrutinee.ctype).is_integer:
                raise TypeError_("switch scrutinee must be an integer",
                                 stmt.line)
            seen_values = set()
            for case in stmt.cases:
                if case.value is not None:
                    if case.value in seen_values:
                        raise TypeError_(
                            f"duplicate case value {case.value}", stmt.line)
                    seen_values.add(case.value)
                inner = _Scope(scope)
                for inner_stmt in case.body:
                    self._check_stmt(inner_stmt, inner)
        elif isinstance(stmt, ast.Return):
            if stmt.value is not None:
                self._check_expr(stmt.value, scope)
                if self.current_ret.is_void:
                    raise TypeError_("return with value in void function",
                                     stmt.line)
                self._require_convertible(stmt.value.ctype, self.current_ret,
                                          stmt.line)
            elif not self.current_ret.is_void:
                raise TypeError_("return without value", stmt.line)
        elif isinstance(stmt, (ast.Break, ast.Continue)):
            pass
        else:  # pragma: no cover - parser produces no other nodes
            raise TypeError_(f"unknown statement {type(stmt).__name__}",
                             stmt.line)

    def _check_vardecl(self, decl: ast.VarDecl, scope: _Scope) -> None:
        if decl.var_type.is_void or decl.var_type.is_function:
            raise TypeError_(f"variable {decl.name!r} has invalid type",
                             decl.line)
        scope.define(decl.name, "local", decl.var_type, decl.line)
        if decl.init is not None:
            self._check_expr(decl.init, scope)
            self._require_convertible(decl.init.ctype, decl.var_type,
                                      decl.line)
        if decl.init_list is not None:
            if not decl.var_type.is_aggregate:
                raise TypeError_("brace initialiser on non-aggregate",
                                 decl.line)
            for item in decl.init_list:
                self._check_expr(item, scope)

    def _check_scalar(self, expr: ast.Expr, scope: _Scope) -> None:
        self._check_expr(expr, scope)
        if not decay(expr.ctype).is_scalar:
            raise TypeError_("condition must be scalar", expr.line)

    # -- expressions ------------------------------------------------------------------

    def _check_expr(self, expr: ast.Expr, scope: _Scope) -> CType:
        handler = getattr(self, "_expr_" + type(expr).__name__)
        ctype = handler(expr, scope)
        expr.ctype = ctype
        return ctype

    def _expr_IntLit(self, expr: ast.IntLit, scope: _Scope) -> CType:
        return INT if -(1 << 31) <= expr.value < (1 << 31) else LONG

    def _expr_StrLit(self, expr: ast.StrLit, scope: _Scope) -> CType:
        data = expr.text.encode("latin-1") + b"\x00"
        symbol = self._string_index.get(data)
        if symbol is None:
            symbol = f"__str{len(self.strings)}"
            self._string_index[data] = symbol
            self.strings.append(StringLiteral(symbol, data))
        expr.symbol = symbol
        return PointerType(CHAR)

    def _expr_Ident(self, expr: ast.Ident, scope: _Scope) -> CType:
        found = scope.lookup(expr.name)
        if found is not None:
            expr.binding, ctype = found
            expr.lvalue = not ctype.is_array  # arrays are not assignable
            if ctype.is_array:
                expr.lvalue = True  # addressable, but not assignable; lowering cares about addresses
            return ctype
        if expr.name in self.globals:
            expr.binding = "global"
            expr.lvalue = True
            return self.globals[expr.name].var_type
        if expr.name in self.functions:
            expr.binding = "function"
            func = self.functions[expr.name]
            return FunctionType(func.ret,
                                tuple(decay(p.type) for p in func.params),
                                func.varargs)
        if expr.name in BUILTIN_SIGNATURES:
            expr.binding = "function"
            return BUILTIN_SIGNATURES[expr.name]
        raise TypeError_(f"undeclared identifier {expr.name!r}", expr.line)

    def _expr_Unary(self, expr: ast.Unary, scope: _Scope) -> CType:
        operand = decay(self._check_expr(expr.operand, scope))
        if expr.op == "!":
            if not operand.is_scalar:
                raise TypeError_("operand of ! must be scalar", expr.line)
            return INT
        if not operand.is_integer:
            raise TypeError_(f"operand of {expr.op} must be integer",
                             expr.line)
        return common_int_type(operand, INT)

    def _expr_Deref(self, expr: ast.Deref, scope: _Scope) -> CType:
        pointer = decay(self._check_expr(expr.pointer, scope))
        if not pointer.is_pointer:
            raise TypeError_("cannot dereference non-pointer", expr.line)
        pointee = pointer.pointee
        if pointee.is_void:
            raise TypeError_("cannot dereference void*", expr.line)
        expr.lvalue = not pointee.is_function
        return pointee

    def _expr_AddressOf(self, expr: ast.AddressOf, scope: _Scope) -> CType:
        operand_type = self._check_expr(expr.operand, scope)
        if operand_type.is_function:
            return PointerType(operand_type)
        if not expr.operand.lvalue:
            raise TypeError_("cannot take address of rvalue", expr.line)
        return PointerType(operand_type)

    def _expr_Binary(self, expr: ast.Binary, scope: _Scope) -> CType:
        left = decay(self._check_expr(expr.left, scope))
        right = decay(self._check_expr(expr.right, scope))
        op = expr.op
        if op in ("&&", "||"):
            if not (left.is_scalar and right.is_scalar):
                raise TypeError_(f"operands of {op} must be scalar", expr.line)
            return INT
        if op in ("==", "!=", "<", ">", "<=", ">="):
            if left.is_pointer or right.is_pointer:
                return INT  # pointer comparisons (incl. against 0)
            if left.is_integer and right.is_integer:
                return INT
            raise TypeError_(f"invalid operands of {op}", expr.line)
        if op == "+":
            if left.is_pointer and right.is_integer:
                return left
            if left.is_integer and right.is_pointer:
                return right
        if op == "-":
            if left.is_pointer and right.is_integer:
                return left
            if left.is_pointer and right.is_pointer:
                return LONG
        if left.is_integer and right.is_integer:
            return common_int_type(left, right)
        raise TypeError_(f"invalid operands of {op} "
                         f"({left} vs {right})", expr.line)

    def _expr_Conditional(self, expr: ast.Conditional, scope: _Scope) -> CType:
        self._check_scalar(expr.cond, scope)
        then = decay(self._check_expr(expr.then, scope))
        otherwise = decay(self._check_expr(expr.otherwise, scope))
        if then.is_pointer and otherwise.is_integer:
            return then
        if otherwise.is_pointer and then.is_integer:
            return otherwise
        if then.is_pointer and otherwise.is_pointer:
            return then
        if then.is_integer and otherwise.is_integer:
            return common_int_type(then, otherwise)
        if type(then) is type(otherwise):
            return then
        raise TypeError_("incompatible conditional arms", expr.line)

    def _expr_Assign(self, expr: ast.Assign, scope: _Scope) -> CType:
        target = self._check_expr(expr.target, scope)
        self._check_expr(expr.value, scope)
        if not expr.target.lvalue or target.is_array:
            raise TypeError_("assignment target is not an lvalue", expr.line)
        if expr.op == "=":
            self._require_convertible(expr.value.ctype, target, expr.line)
        else:
            base_op = expr.op[:-1]
            value = decay(expr.value.ctype)
            if target.is_pointer:
                if base_op not in ("+", "-") or not value.is_integer:
                    raise TypeError_(f"invalid pointer compound {expr.op}",
                                     expr.line)
            elif not (target.is_integer and value.is_integer):
                raise TypeError_(f"invalid operands of {expr.op}", expr.line)
        return target

    def _expr_IncDec(self, expr: ast.IncDec, scope: _Scope) -> CType:
        target = self._check_expr(expr.target, scope)
        if not expr.target.lvalue:
            raise TypeError_(f"{expr.op} target is not an lvalue", expr.line)
        if not (target.is_integer or target.is_pointer):
            raise TypeError_(f"{expr.op} needs integer or pointer", expr.line)
        return target

    def _expr_Call(self, expr: ast.Call, scope: _Scope) -> CType:
        func_type = self._check_expr(expr.func, scope)
        callee = decay(func_type)
        if callee.is_pointer and callee.pointee.is_function:
            signature = callee.pointee
        elif func_type.is_function:
            signature = func_type
        else:
            raise TypeError_("called object is not a function", expr.line)
        params = signature.params
        if signature.varargs:
            if len(expr.args) < len(params):
                raise TypeError_("too few arguments", expr.line)
        elif len(expr.args) != len(params):
            name = expr.func.name if isinstance(expr.func, ast.Ident) else "?"
            raise TypeError_(
                f"call to {name}: expected {len(params)} args, "
                f"got {len(expr.args)}", expr.line)
        for index, arg in enumerate(expr.args):
            self._check_expr(arg, scope)
            if index < len(params):
                self._require_convertible(arg.ctype, params[index], expr.line)
        return signature.ret

    def _expr_Index(self, expr: ast.Index, scope: _Scope) -> CType:
        base = decay(self._check_expr(expr.base, scope))
        index = decay(self._check_expr(expr.index, scope))
        if not base.is_pointer:
            raise TypeError_("subscripted value is not array or pointer",
                             expr.line)
        if not index.is_integer:
            raise TypeError_("array subscript is not an integer", expr.line)
        expr.lvalue = True
        return base.pointee

    def _expr_Member(self, expr: ast.Member, scope: _Scope) -> CType:
        base = self._check_expr(expr.base, scope)
        if expr.arrow:
            base = decay(base)
            if not base.is_pointer or not base.pointee.is_struct:
                raise TypeError_("-> on non-struct-pointer", expr.line)
            struct_type = base.pointee
        else:
            if not base.is_struct:
                raise TypeError_(". on non-struct", expr.line)
            struct_type = base
        field_info = struct_type.field(expr.name)
        if field_info is None:
            raise TypeError_(
                f"struct {struct_type.name} has no member {expr.name!r}",
                expr.line)
        expr.offset = field_info.offset
        expr.lvalue = True
        return field_info.type

    def _expr_Cast(self, expr: ast.Cast, scope: _Scope) -> CType:
        operand = decay(self._check_expr(expr.operand, scope))
        target = expr.target_type
        if target.is_void:
            return VOID
        if not (operand.is_scalar and target.is_scalar):
            raise TypeError_(f"invalid cast {operand} -> {target}", expr.line)
        return target

    def _expr_SizeofType(self, expr: ast.SizeofType, scope: _Scope) -> CType:
        return ULONG

    def _expr_SizeofExpr(self, expr: ast.SizeofExpr, scope: _Scope) -> CType:
        self._check_expr(expr.operand, scope)
        return ULONG

    # -- conversions ------------------------------------------------------------------

    def _require_convertible(self, source: CType, target: CType,
                             line: int) -> None:
        source = decay(source)
        target_decayed = decay(target)
        if source.is_integer and target_decayed.is_integer:
            return
        if source.is_pointer and target_decayed.is_pointer:
            return  # C-permissive; void* interchange and struct punning
        if source.is_integer and target_decayed.is_pointer:
            return  # NULL and integer-to-pointer idioms
        if source.is_pointer and target_decayed.is_integer \
                and target_decayed.size == 8:
            return
        if source.is_struct and target_decayed.is_struct \
                and source is target_decayed:
            return
        raise TypeError_(f"cannot convert {source} to {target}", line)
