"""Compilation driver: typed program → IR program image.

Responsibilities beyond per-function lowering:

* building the global-object table (init bytes for constant initialisers,
  a synthetic ``__init_globals`` function for address-valued ones — the
  moral equivalent of C runtime init);
* reserving appended-metadata space for escaping globals that will be
  registered under the local-offset scheme;
* serialising the interned layout tables into image objects.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.errors import CompileError
from repro.compiler.codegen import FunctionCodegen
from repro.compiler.ir import (
    GlobalObject, IRFunction, IRProgram, LayoutTableObject,
    assign_bin_codes,
)
from repro.compiler.layout_gen import LayoutTableRegistry
from repro.compiler.options import CompilerOptions
from repro.compiler.safety import analyze_escapes
from repro.ifp.schemes.local_offset import METADATA_BYTES, align_up
from repro.lang import astnodes as ast
from repro.lang.ctypes import PointerType, VOID
from repro.lang.parser import parse
from repro.lang.sema import Program, analyze


def compile_source(source: str,
                   options: CompilerOptions = CompilerOptions()) -> IRProgram:
    """Front door: mini-C source text → executable IR program."""
    return compile_program(analyze(parse(source)), options)


def compile_program(program: Program,
                    options: CompilerOptions = CompilerOptions()) -> IRProgram:
    options.ifp.validate()
    registry = LayoutTableRegistry(
        max_entries=options.ifp.subheap_max_layout_entries)
    escapes = analyze_escapes(program)

    functions: Dict[str, IRFunction] = {}
    for name in program.function_order:
        func = program.functions[name]
        codegen = FunctionCodegen(
            program, func, options, registry,
            escapes.locals_by_function.get(name, set()),
            escapes.globals_escaping)
        functions[name] = codegen.run()

    globals_out: Dict[str, GlobalObject] = {}
    runtime_inits: List[ast.Stmt] = []
    for gname, gvar in program.globals.items():
        init_bytes = _constant_init_bytes(gvar)
        if init_bytes is None:
            runtime_inits.append(_runtime_init_stmt(gvar))
            init_bytes = b""
        needs_reg = options.instrument and gname in escapes.globals_escaping
        layout_symbol = ""
        reserve = 0
        align = max(gvar.var_type.align, 1)
        if needs_reg:
            if options.narrowing:
                layout_symbol = registry.symbol_for(gvar.var_type)
            if gvar.var_type.size <= options.ifp.local_max_object:
                align = max(align, options.ifp.granule)
                reserve = (align_up(gvar.var_type.size, options.ifp.granule)
                           - gvar.var_type.size + METADATA_BYTES)
        globals_out[gname] = GlobalObject(
            name=gname, size=gvar.var_type.size, align=align,
            init=init_bytes, needs_registration=needs_reg,
            layout_symbol=layout_symbol, metadata_reserve=reserve)

    for literal in program.strings:
        globals_out[literal.symbol] = GlobalObject(
            name=literal.symbol, size=len(literal.data), align=1,
            init=literal.data)

    if runtime_inits:
        init_func = ast.FuncDef("__init_globals", VOID, [],
                                ast.Block(0, runtime_inits), 0)
        program.functions["__init_globals"] = init_func
        codegen = FunctionCodegen(program, init_func, options, registry,
                                  set(), escapes.globals_escaping)
        functions["__init_globals"] = codegen.run()

    layout_tables = {
        symbol: LayoutTableObject(symbol, table.serialize())
        for symbol, table in registry.tables.items()
    }
    program_out = IRProgram(
        functions=functions, globals=globals_out,
        layout_tables=layout_tables, entry="main",
        instrumented=options.instrument,
        allocator=options.allocator if options.instrument else "glibc",
        defense=options.defense if (options.instrument
                                    or options.defense in ("asan", "mpx"))
        else "none")
    if options.defense == "asan":
        from repro.baselines.asan import apply_asan_pass
        apply_asan_pass(program_out)
    assign_bin_codes(program_out)
    return program_out


# ---------------------------------------------------------------------------
# Global initialisers
# ---------------------------------------------------------------------------

def _constant_init_bytes(gvar: ast.GlobalVar) -> Optional[bytes]:
    """Encode a constant initialiser, or None if it needs runtime code."""
    size = gvar.var_type.size
    if gvar.init is None and gvar.init_list is None:
        return bytes(size)
    if gvar.init is not None:
        value = _const_value(gvar.init)
        if value is None:
            return None
        if isinstance(gvar.var_type, PointerType):
            return None if value != 0 else bytes(size)
        return _encode_scalar(value, gvar.var_type)
    # Initialiser list: every element must be constant.
    from repro.compiler.codegen import _scalar_leaves
    leaves = _scalar_leaves(gvar.var_type)
    if len(gvar.init_list) > len(leaves):
        raise CompileError(f"too many initialisers for {gvar.name}")
    image = bytearray(size)
    for item, (offset, leaf_type) in zip(gvar.init_list, leaves):
        value = _const_value(item)
        if value is None:
            raise CompileError(
                f"global {gvar.name}: initialiser list items must be constant")
        image[offset:offset + leaf_type.size] = _encode_scalar(
            value, leaf_type)
    return bytes(image)


def _encode_scalar(value: int, ctype) -> bytes:
    size = max(ctype.size, 1)
    return (value & ((1 << (size * 8)) - 1)).to_bytes(size, "little")


def _const_value(expr: ast.Expr) -> Optional[int]:
    if isinstance(expr, ast.IntLit):
        return expr.value
    if isinstance(expr, ast.SizeofType):
        return expr.query_type.size
    if isinstance(expr, ast.Unary):
        inner = _const_value(expr.operand)
        if inner is None:
            return None
        return {"-": -inner, "~": ~inner, "!": int(not inner)}[expr.op]
    if isinstance(expr, ast.Cast):
        return _const_value(expr.operand)
    if isinstance(expr, ast.Binary):
        left, right = _const_value(expr.left), _const_value(expr.right)
        if left is None or right is None:
            return None
        try:
            return {
                "+": left + right, "-": left - right, "*": left * right,
                "/": left // right if right else None,
                "%": left % right if right else None,
                "<<": left << right, ">>": left >> right,
                "&": left & right, "|": left | right, "^": left ^ right,
            }[expr.op]
        except KeyError:
            return None
    return None


def _runtime_init_stmt(gvar: ast.GlobalVar) -> ast.Stmt:
    """Build ``<global> = <init expr>;`` for the synthetic init function."""
    if gvar.init_list is not None:
        raise CompileError(
            f"global {gvar.name}: non-constant initialiser lists unsupported")
    target = ast.Ident(gvar.line, gvar.var_type, True, gvar.name, "global")
    assign = ast.Assign(gvar.line, gvar.var_type, False, "=",
                        target, gvar.init)
    return ast.ExprStmt(gvar.line, assign)
