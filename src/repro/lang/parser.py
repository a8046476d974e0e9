"""Recursive-descent parser for mini-C.

Produces an untyped :class:`~repro.lang.astnodes.TranslationUnit`; semantic
analysis (:mod:`repro.lang.sema`) types it.  The grammar is a C subset:

* declarations: ``struct`` definitions, ``typedef``, globals with
  initialisers, function definitions and prototypes;
* declarators: pointers (``*``), arrays (``[N]`` with constant
  expressions), and function pointers (``ret (*name)(params)``);
* the full C expression grammar minus comma-expressions and floats.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.errors import ParseError
from repro.lang import astnodes as ast
from repro.lang.ctypes import (
    ArrayType, CHAR, CType, FunctionType, INT, LONG, PointerType, SHORT,
    StructType, UCHAR, UINT, ULONG, UnionType, USHORT, VOID,
)
from repro.lang.lexer import Token, tokenize

#: Tokens that can begin a type specifier.
_TYPE_KEYWORDS = frozenset({
    "void", "char", "short", "int", "long", "unsigned", "signed",
    "const", "struct", "union", "static", "extern",
})

_ASSIGN_OPS = frozenset({
    "=", "+=", "-=", "*=", "/=", "%=", "&=", "|=", "^=", "<<=", ">>=",
})

#: Binary operator precedence levels, loosest first.
_BINARY_LEVELS: List[List[str]] = [
    ["||"],
    ["&&"],
    ["|"],
    ["^"],
    ["&"],
    ["==", "!="],
    ["<", ">", "<=", ">="],
    ["<<", ">>"],
    ["+", "-"],
    ["*", "/", "%"],
]

#: Binary operator -> its index in :data:`_BINARY_LEVELS`.
_BINARY_PRECEDENCE: Dict[str, int] = {
    op: level for level, ops in enumerate(_BINARY_LEVELS) for op in ops}


def parse(source: str) -> ast.TranslationUnit:
    """Parse mini-C source into a translation unit."""
    return _Parser(tokenize(source)).parse_unit()


class _Parser:
    def __init__(self, tokens: List[Token]):
        self.tokens = tokens
        self.pos = 0
        #: the current token, ``tokens[pos]``; only :meth:`next` moves it
        self.tok = tokens[0]
        self.structs: Dict[str, StructType] = {}
        self.typedefs: Dict[str, CType] = {}
        self.unit = ast.TranslationUnit()

    # -- token plumbing -----------------------------------------------------

    def peek(self, ahead: int = 1) -> Token:
        index = min(self.pos + ahead, len(self.tokens) - 1)
        return self.tokens[index]

    def next(self) -> Token:
        token = self.tok
        if token.kind != "eof":
            self.pos += 1
            self.tok = self.tokens[self.pos]
        return token

    def expect(self, text: str) -> Token:
        token = self.tok
        if token.text != text:
            raise ParseError(f"expected {text!r}, found {token.text!r}",
                             token.line, token.col)
        return self.next()

    def accept(self, text: str) -> bool:
        if self.tok.text == text:
            self.next()
            return True
        return False

    def expect_ident(self) -> Token:
        token = self.tok
        if token.kind != "ident":
            raise ParseError(f"expected identifier, found {token.text!r}",
                             token.line, token.col)
        return self.next()

    # -- top level -----------------------------------------------------------

    def parse_unit(self) -> ast.TranslationUnit:
        while self.tok.kind != "eof":
            if self.tok.text == "typedef":
                self._parse_typedef()
            elif self.tok.text in ("struct", "union") \
                    and self.peek().kind == "ident" \
                    and self.peek(2).text in ("{", ";"):
                self._parse_struct_decl()
            else:
                self._parse_global_or_function()
        return self.unit

    def _parse_typedef(self) -> None:
        self.expect("typedef")
        base = self._parse_type_specifier()
        name_token, full_type = self._parse_declarator(base)
        self.expect(";")
        self.typedefs[name_token.text] = full_type

    def _parse_struct_decl(self) -> None:
        struct_type = self._parse_struct_specifier()
        self.expect(";")
        del struct_type  # registered as a side effect

    def _parse_global_or_function(self) -> None:
        line = self.tok.line
        base = self._parse_type_specifier()
        if self.accept(";"):
            return  # bare 'struct S { ... };' handled via specifier
        name_token, full_type = self._parse_declarator(base)
        if isinstance(full_type, FunctionType):
            self._parse_function_rest(name_token, full_type, line)
            return
        # Global variable (possibly a list: int a, b;).
        self._finish_global(name_token, full_type, line)
        while self.accept(","):
            name_token, next_type = self._parse_declarator(base)
            self._finish_global(name_token, next_type, self.tok.line)
        self.expect(";")

    def _finish_global(self, name_token: Token, var_type: CType,
                       line: int) -> None:
        init: Optional[ast.Expr] = None
        init_list: Optional[List[ast.Expr]] = None
        if self.accept("="):
            if self.tok.text == "{":
                init_list = self._parse_init_list()
            else:
                init = self.parse_assignment()
        self.unit.globals.append(ast.GlobalVar(
            name_token.text, var_type, init, init_list, line))

    def _parse_function_rest(self, name_token: Token,
                             func_type: FunctionType, line: int) -> None:
        params = [ast.Param(param_name, param_type, line)
                  for param_name, param_type
                  in zip(self._last_param_names, func_type.params)]
        body: Optional[ast.Block] = None
        if self.tok.text == "{":
            body = self.parse_block()
        else:
            self.expect(";")
        self.unit.functions.append(ast.FuncDef(
            name_token.text, func_type.ret, params, body, line,
            func_type.varargs))

    def _parse_init_list(self) -> List[ast.Expr]:
        self.expect("{")
        items: List[ast.Expr] = []
        while not self.accept("}"):
            if self.tok.text == "{":
                # Nested brace groups are flattened (row-major).
                items.extend(self._parse_init_list())
            else:
                items.append(self.parse_assignment())
            if self.tok.text != "}":
                self.expect(",")
        return items

    # -- types ----------------------------------------------------------------

    def looks_like_type(self) -> bool:
        token = self.tok
        if token.kind == "keyword" and token.text in _TYPE_KEYWORDS:
            return True
        return token.kind == "ident" and token.text in self.typedefs

    def _parse_type_specifier(self) -> CType:
        """Parse a base type: int kinds / void / struct / typedef name."""
        while self.tok.text in ("const", "static", "extern"):
            self.next()
        token = self.tok
        if token.text in ("struct", "union"):
            return self._parse_struct_specifier()
        if token.kind == "ident" and token.text in self.typedefs:
            self.next()
            return self.typedefs[token.text]
        signedness: Optional[bool] = None
        if token.text in ("unsigned", "signed"):
            signedness = token.text == "signed"
            self.next()
        base = self.tok
        if base.text in ("void", "char", "short", "int", "long"):
            self.next()
            if base.text == "long":
                self.accept("long")  # 'long long' == long
                self.accept("int")
            elif base.text == "short":
                self.accept("int")
            return self._int_type(base.text, signedness)
        if signedness is not None:
            return INT if signedness else UINT
        raise ParseError(f"expected type, found {base.text!r}",
                         base.line, base.col)

    @staticmethod
    def _int_type(name: str, signedness: Optional[bool]) -> CType:
        signed = True if signedness is None else signedness
        table = {
            ("void", True): VOID, ("void", False): VOID,
            ("char", True): CHAR, ("char", False): UCHAR,
            ("short", True): SHORT, ("short", False): USHORT,
            ("int", True): INT, ("int", False): UINT,
            ("long", True): LONG, ("long", False): ULONG,
        }
        return table[(name, signed)]

    def _parse_struct_specifier(self) -> StructType:
        keyword = self.next().text  # 'struct' or 'union'
        name_token = self.expect_ident()
        struct_type = self.structs.get(name_token.text)
        if struct_type is None:
            struct_type = (UnionType(name_token.text) if keyword == "union"
                           else StructType(name_token.text))
            self.structs[name_token.text] = struct_type
            self.unit.structs.append(struct_type)
        if self.tok.text == "{":
            self.next()
            members: List[Tuple[str, CType]] = []
            while not self.accept("}"):
                member_base = self._parse_type_specifier()
                while True:
                    member_token, member_type = \
                        self._parse_declarator(member_base)
                    members.append((member_token.text, member_type))
                    if not self.accept(","):
                        break
                self.expect(";")
            struct_type.define(members)
        return struct_type

    def _parse_declarator(self, base: CType) -> Tuple[Token, CType]:
        """Parse ``* ... name suffixes`` around a base type.

        Handles plain names, pointer stars, array suffixes, function
        parameter lists (direct functions), and the parenthesised
        function-pointer form ``(*name)(params)``.
        """
        while self.accept("*"):
            while self.tok.text == "const":
                self.next()
            base = PointerType(base)
        if self.tok.text == "(" and self.peek().text == "*":
            # Function pointer declarator: (*name)(params) [array suffix]
            self.expect("(")
            self.expect("*")
            name_token = self.expect_ident()
            array_counts = self._parse_array_suffixes()
            self.expect(")")
            params, varargs = self._parse_param_list()
            func = FunctionType(base, tuple(t for _n, t in params), varargs)
            declared: CType = PointerType(func)
            for count in reversed(array_counts):
                declared = ArrayType(declared, count)
            return name_token, declared
        name_token = self.expect_ident()
        if self.tok.text == "(":
            params, varargs = self._parse_param_list()
            self._last_param_names = [n for n, _t in params]
            return name_token, FunctionType(
                base, tuple(t for _n, t in params), varargs)
        declared = base
        for count in reversed(self._parse_array_suffixes()):
            declared = ArrayType(declared, count)
        return name_token, declared

    def _parse_array_suffixes(self) -> List[int]:
        counts: List[int] = []
        while self.accept("["):
            counts.append(self._parse_const_int())
            self.expect("]")
        return counts

    def _parse_param_list(self) -> Tuple[List[Tuple[str, CType]], bool]:
        self.expect("(")
        params: List[Tuple[str, CType]] = []
        varargs = False
        if self.accept(")"):
            return params, varargs
        if self.tok.text == "void" and self.peek().text == ")":
            self.next()
            self.expect(")")
            return params, varargs
        while True:
            if self.accept("..."):
                varargs = True
                break
            param_base = self._parse_type_specifier()
            while self.accept("*"):
                param_base = PointerType(param_base)
            if self.tok.text in (",", ")"):
                param_name = f"__anon{len(params)}"
                param_type: CType = param_base
            elif self.tok.text == "(" and self.peek().text == "*":
                # Function-pointer parameter.
                self.expect("(")
                self.expect("*")
                param_name = self.expect_ident().text
                self.expect(")")
                inner_params, inner_varargs = self._parse_param_list()
                param_type = PointerType(FunctionType(
                    param_base, tuple(t for _n, t in inner_params),
                    inner_varargs))
            else:
                name_token = self.expect_ident()
                param_name = name_token.text
                param_type = param_base
                for count in reversed(self._parse_array_suffixes()):
                    param_type = ArrayType(param_type, count)
                # Array parameters decay to pointers.
                if isinstance(param_type, ArrayType):
                    param_type = PointerType(param_type.element)
            params.append((param_name, param_type))
            if not self.accept(","):
                break
        self.expect(")")
        return params, varargs

    def _parse_const_int(self) -> int:
        expr = self.parse_conditional()
        value = _fold(expr)
        if value is None:
            raise ParseError("expected constant expression",
                             self.tok.line, self.tok.col)
        return value

    # -- statements --------------------------------------------------------------

    def parse_block(self) -> ast.Block:
        start = self.expect("{")
        body: List[ast.Stmt] = []
        while not self.accept("}"):
            body.append(self.parse_statement())
        return ast.Block(start.line, body)

    def parse_statement(self) -> ast.Stmt:
        token = self.tok
        if token.text == "{":
            return self.parse_block()
        if token.text == ";":
            self.next()
            return ast.Block(token.line, [])
        if token.text == "if":
            return self._parse_if()
        if token.text == "while":
            return self._parse_while()
        if token.text == "do":
            return self._parse_do_while()
        if token.text == "for":
            return self._parse_for()
        if token.text == "switch":
            return self._parse_switch()
        if token.text == "return":
            self.next()
            value = None if self.tok.text == ";" else self.parse_expression()
            self.expect(";")
            return ast.Return(token.line, value)
        if token.text == "break":
            self.next()
            self.expect(";")
            return ast.Break(token.line)
        if token.text == "continue":
            self.next()
            self.expect(";")
            return ast.Continue(token.line)
        if self.looks_like_type() and not (
                token.text in ("struct", "union")
                and self.peek(2).text == "{"):
            return self._parse_local_decl()
        expr = self.parse_expression()
        self.expect(";")
        return ast.ExprStmt(token.line, expr)

    def _parse_local_decl(self) -> ast.Stmt:
        line = self.tok.line
        base = self._parse_type_specifier()
        decls: List[ast.Stmt] = []
        while True:
            name_token, var_type = self._parse_declarator(base)
            init: Optional[ast.Expr] = None
            init_list: Optional[List[ast.Expr]] = None
            if self.accept("="):
                if self.tok.text == "{":
                    init_list = self._parse_init_list()
                else:
                    init = self.parse_assignment()
            decls.append(ast.VarDecl(line, name_token.text, var_type,
                                     init, init_list))
            if not self.accept(","):
                break
        self.expect(";")
        if len(decls) == 1:
            return decls[0]
        return ast.Block(line, decls)

    def _parse_if(self) -> ast.Stmt:
        token = self.expect("if")
        self.expect("(")
        cond = self.parse_expression()
        self.expect(")")
        then = self.parse_statement()
        otherwise = self.parse_statement() if self.accept("else") else None
        return ast.If(token.line, cond, then, otherwise)

    def _parse_while(self) -> ast.Stmt:
        token = self.expect("while")
        self.expect("(")
        cond = self.parse_expression()
        self.expect(")")
        body = self.parse_statement()
        return ast.While(token.line, cond, body)

    def _parse_do_while(self) -> ast.Stmt:
        token = self.expect("do")
        body = self.parse_statement()
        self.expect("while")
        self.expect("(")
        cond = self.parse_expression()
        self.expect(")")
        self.expect(";")
        return ast.While(token.line, cond, body, check_after=True)

    def _parse_switch(self) -> ast.Stmt:
        token = self.expect("switch")
        self.expect("(")
        scrutinee = self.parse_expression()
        self.expect(")")
        self.expect("{")
        cases: list = []
        current = None
        seen_default = False
        while not self.accept("}"):
            if self.tok.text in ("case", "default"):
                is_default = self.next().text == "default"
                value = None
                if not is_default:
                    value = self._parse_const_int()
                else:
                    if seen_default:
                        raise ParseError("duplicate default label",
                                         self.tok.line, self.tok.col)
                    seen_default = True
                self.expect(":")
                current = ast.SwitchCase(value)
                cases.append(current)
            else:
                if current is None:
                    raise ParseError("statement before first case label",
                                     self.tok.line, self.tok.col)
                current.body.append(self.parse_statement())
        return ast.Switch(token.line, scrutinee, cases)

    def _parse_for(self) -> ast.Stmt:
        token = self.expect("for")
        self.expect("(")
        init: Optional[ast.Stmt] = None
        if self.tok.text != ";":
            if self.looks_like_type():
                init = self._parse_local_decl()
            else:
                init = ast.ExprStmt(self.tok.line, self.parse_expression())
                self.expect(";")
        else:
            self.next()
        cond = None if self.tok.text == ";" else self.parse_expression()
        self.expect(";")
        step = None if self.tok.text == ")" else self.parse_expression()
        self.expect(")")
        body = self.parse_statement()
        return ast.For(token.line, init, cond, step, body)

    # -- expressions ---------------------------------------------------------------

    def parse_expression(self) -> ast.Expr:
        return self.parse_assignment()

    def parse_assignment(self) -> ast.Expr:
        left = self.parse_conditional()
        if self.tok.text in _ASSIGN_OPS:
            op = self.next().text
            right = self.parse_assignment()
            return ast.Assign(left.line, None, False, op, left, right)
        return left

    def parse_conditional(self) -> ast.Expr:
        cond = self._parse_binary(0)
        if self.accept("?"):
            then = self.parse_expression()
            self.expect(":")
            otherwise = self.parse_conditional()
            return ast.Conditional(cond.line, None, False, cond, then,
                                   otherwise)
        return cond

    def _parse_binary(self, min_level: int) -> ast.Expr:
        """Precedence climbing over the operators at ``min_level`` or
        tighter; every level is left-associative."""
        left = self.parse_unary()
        while True:
            token = self.tok
            level = _BINARY_PRECEDENCE.get(token.text, -1)
            if level < min_level or token.kind != "op":
                return left
            self.next()
            right = self._parse_binary(level + 1)
            left = ast.Binary(left.line, None, False, token.text, left, right)

    def parse_unary(self) -> ast.Expr:
        token = self.tok
        if token.text in ("-", "!", "~"):
            self.next()
            return ast.Unary(token.line, None, False, token.text,
                             self.parse_unary())
        if token.text == "+":
            self.next()
            return self.parse_unary()
        if token.text == "*":
            self.next()
            return ast.Deref(token.line, None, False, self.parse_unary())
        if token.text == "&":
            self.next()
            return ast.AddressOf(token.line, None, False, self.parse_unary())
        if token.text in ("++", "--"):
            self.next()
            target = self.parse_unary()
            return ast.IncDec(token.line, None, False, token.text, target,
                              postfix=False)
        if token.text == "sizeof":
            self.next()
            if self.tok.text == "(" and self._paren_is_type():
                self.expect("(")
                query = self._parse_abstract_type()
                self.expect(")")
                return ast.SizeofType(token.line, None, False, query)
            return ast.SizeofExpr(token.line, None, False, self.parse_unary())
        if token.text == "(" and self._paren_is_type():
            self.expect("(")
            target = self._parse_abstract_type()
            self.expect(")")
            return ast.Cast(token.line, None, False, target,
                            self.parse_unary())
        return self.parse_postfix()

    def _paren_is_type(self) -> bool:
        """Disambiguate '(' type ')' from a parenthesised expression."""
        after = self.peek()
        if after.kind == "keyword" and after.text in _TYPE_KEYWORDS:
            return True
        return after.kind == "ident" and after.text in self.typedefs

    def _parse_abstract_type(self) -> CType:
        base = self._parse_type_specifier()
        while self.accept("*"):
            base = PointerType(base)
        return base

    def parse_postfix(self) -> ast.Expr:
        expr = self.parse_primary()
        while True:
            token = self.tok
            if token.text == "[":
                self.next()
                index = self.parse_expression()
                self.expect("]")
                expr = ast.Index(token.line, None, False, expr, index)
            elif token.text == "(":
                args = self._parse_call_args()
                expr = ast.Call(token.line, None, False, expr, args)
            elif token.text == ".":
                self.next()
                name = self.expect_ident().text
                expr = ast.Member(token.line, None, False, expr, name, False)
            elif token.text == "->":
                self.next()
                name = self.expect_ident().text
                expr = ast.Member(token.line, None, False, expr, name, True)
            elif token.text in ("++", "--"):
                self.next()
                expr = ast.IncDec(token.line, None, False, token.text, expr,
                                  postfix=True)
            else:
                return expr

    def _parse_call_args(self) -> List[ast.Expr]:
        self.expect("(")
        args: List[ast.Expr] = []
        if not self.accept(")"):
            while True:
                args.append(self.parse_assignment())
                if not self.accept(","):
                    break
            self.expect(")")
        return args

    def parse_primary(self) -> ast.Expr:
        token = self.tok
        if token.kind == "int":
            self.next()
            return ast.IntLit(token.line, None, False, token.value)
        if token.text == "NULL":
            self.next()
            return ast.IntLit(token.line, None, False, 0)
        if token.kind == "string":
            self.next()
            text = token.text
            # C adjacent string-literal concatenation.
            while self.tok.kind == "string":
                text += self.next().text
            return ast.StrLit(token.line, None, False, text)
        if token.kind == "ident":
            self.next()
            return ast.Ident(token.line, None, False, token.text)
        if token.text == "(":
            self.next()
            expr = self.parse_expression()
            self.expect(")")
            return expr
        raise ParseError(f"unexpected token {token.text!r}",
                         token.line, token.col)


# ---------------------------------------------------------------------------
# Constant folding for array dimensions
# ---------------------------------------------------------------------------

def _fold(expr: ast.Expr) -> Optional[int]:
    if isinstance(expr, ast.IntLit):
        return expr.value
    if isinstance(expr, ast.SizeofType):
        return expr.query_type.size
    if isinstance(expr, ast.Unary):
        inner = _fold(expr.operand)
        if inner is None:
            return None
        return {"-": -inner, "~": ~inner, "!": int(not inner)}[expr.op]
    if isinstance(expr, ast.Binary):
        left, right = _fold(expr.left), _fold(expr.right)
        if left is None or right is None:
            return None
        ops = {
            "+": lambda: left + right, "-": lambda: left - right,
            "*": lambda: left * right, "/": lambda: left // right,
            "%": lambda: left % right, "<<": lambda: left << right,
            ">>": lambda: left >> right, "&": lambda: left & right,
            "|": lambda: left | right, "^": lambda: left ^ right,
        }
        handler = ops.get(expr.op)
        return handler() if handler else None
    return None
