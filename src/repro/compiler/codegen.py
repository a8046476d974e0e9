"""AST → IR lowering with optional In-Fat Pointer instrumentation.

One lowering path serves every configuration; ``CompilerOptions`` decides
whether the IFP behaviours are woven in:

* address-taken locals are placed in memory and *registered* (metadata
  appended per the local-offset scheme, or the global-table fallback for
  oversize objects), with deregistration in a common epilogue;
* escaping globals are fetched through per-global ``getptr`` runtime calls
  (registered on first use — the paper's lazy global registration);
* pointer loads and legacy-call results are eagerly ``promote``-d (the
  paper's hoisting: only pointers *not* derived from another pointer need
  promote);
* pointer arithmetic uses ``ifpadd`` (tag-maintaining), member/array
  descents accumulate ``ifpidx`` deltas that are applied when a subobject
  pointer is materialised as a value, along with a static ``ifpbnd``
  narrowing;
* variable-indexed accesses to statically-known aggregates get a static
  ``ifpbnd`` so the implicit check enforces the *subobject* bound;
* pointer stores are preceded by ``ifpextract`` (demote);
* allocator calls are rewritten to the IFP runtime with deduced layout
  tables (type deduction only succeeds at direct, typed call sites —
  allocation wrappers and function-pointer calls defeat it, exactly as
  the paper reports for CoreMark/bzip2/wolfcrypt).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.baselines.mpx import MPX_TABLE_BASE
from repro.errors import CompileError
from repro.compiler.ir import IRFunction, Instr, LocalObjectInfo, Op
from repro.compiler.layout_gen import LayoutTableRegistry, member_delta
from repro.compiler.options import CompilerOptions
from repro.ifp.schemes.local_offset import align_up
from repro.ifp.tag import Scheme
from repro.lang import astnodes as ast
from repro.lang.ctypes import (
    ArrayType, CType, FunctionType, INT, IntType, LONG, PointerType,
    StructType, ULONG, VOID, decay,
)
from repro.lang.sema import Program

#: builtins whose calls are rewritten to the IFP runtime when instrumenting
_ALLOC_BUILTINS = {"malloc", "calloc", "realloc", "free"}

#: comparison operator -> (BIN name, swap operands)
_CMP_OPS = {
    "==": ("seq", False), "!=": ("sne", False),
    "<": ("slt", False), ">": ("slt", True),
    "<=": ("sle", False), ">=": ("sle", True),
}

_ARITH_OPS = {
    "+": "add", "-": "sub", "*": "mul", "/": "div", "%": "rem",
    "&": "and", "|": "or", "^": "xor", "<<": "shl", ">>": "shr",
}


@dataclass
class Value:
    """An rvalue held in a virtual register."""

    reg: int
    ctype: CType
    has_bounds: bool = False


@dataclass
class AddrInfo:
    """An lvalue: an address plus static narrowing context."""

    reg: int
    ctype: CType          #: type of the object at the address
    has_bounds: bool      #: the address register carries an IFPR bounds
    idx_delta: int = 0    #: accumulated subobject-index delta
    narrow_ok: bool = False  #: tag context known (deltas are meaningful)
    at_top: bool = True   #: still at the whole-object entry
    is_sub: bool = False  #: a strict subobject of some registered object


@dataclass
class _VarInfo:
    kind: str             #: 'reg' | 'frame'
    ctype: CType
    reg: int = -1         #: value register ('reg' kind)
    has_bounds: bool = False
    slot: int = 0         #: frame offset ('frame' kind)
    registered: bool = False
    tagged_reg: int = -1  #: register holding the registered tagged pointer
    layout_symbol: str = ""
    scheme: str = ""


class FunctionCodegen:
    """Lowers one function body."""

    def __init__(self, program: Program, func: ast.FuncDef,
                 options: CompilerOptions, registry: LayoutTableRegistry,
                 escaping_locals: set, escaping_globals: set):
        self.program = program
        self.func = func
        self.options = options
        self.registry = registry
        self.escaping_locals = escaping_locals
        self.escaping_globals = escaping_globals
        self.instrs: List[Instr] = []
        self.num_regs = 0
        self.frame_size = 0
        self.vars: Dict[str, _VarInfo] = {}
        self.scopes: List[List[str]] = [[]]
        self.labels: Dict[int, int] = {}
        self.next_label = 0
        self.loop_stack: List[Tuple[int, int]] = []  # (break, continue)
        self.ret_reg = -1
        self.epilogue_label = -1
        self.local_objects: List[LocalObjectInfo] = []
        self.makes_calls = False
        self.param_regs: List[int] = []
        self.param_is_pointer: List[bool] = []
        #: MPX-like baseline mode (bounds table keyed by pointer location)
        self.mpx = options.defense == "mpx" and not options.instrument

    # -- small helpers ---------------------------------------------------------

    @property
    def inst(self) -> bool:
        return self.options.instrument

    def reg(self) -> int:
        self.num_regs += 1
        return self.num_regs - 1

    def emit(self, op: Op, **kw) -> Instr:
        ins = Instr(op, **kw)
        self.instrs.append(ins)
        return ins

    def label(self) -> int:
        self.next_label += 1
        return self.next_label - 1

    def place(self, label: int) -> None:
        self.labels[label] = len(self.instrs)

    def alloc_slot(self, size: int, align: int) -> int:
        self.frame_size = (self.frame_size + align - 1) & ~(align - 1)
        offset = self.frame_size
        self.frame_size += size
        return offset

    def li(self, value: int) -> int:
        dst = self.reg()
        self.emit(Op.LI, dst=dst, imm=value)
        return dst

    # -- entry point -----------------------------------------------------------

    def run(self) -> IRFunction:
        func = self.func
        self.ret_reg = self.reg()
        self.epilogue_label = self.label()
        # Parameters.
        for param in func.params:
            ptype = decay(param.type)
            preg = self.reg()
            self.param_regs.append(preg)
            self.param_is_pointer.append(ptype.is_pointer)
            if param.name in self.escaping_locals:
                info = self._declare_memory_local(param.name, ptype)
                addr = self.reg()
                self.emit(Op.FRAME, dst=addr, imm=info.slot)
                self.emit(Op.STORE, a=addr, b=preg, size=ptype.size)
            else:
                self.vars[param.name] = _VarInfo(
                    "reg", ptype, reg=preg,
                    has_bounds=(self.inst or self.mpx)
                    and ptype.is_pointer)
            self.scopes[0].append(param.name)
        self.lower_block(func.body)
        # Fall off the end: return 0 for main, void otherwise.
        if func.name == "main" and not func.ret.is_void:
            self.emit(Op.LI, dst=self.ret_reg, imm=0)
        self.emit(Op.JMP, target=self.epilogue_label)
        # Epilogue: deregistrations, then return.
        self.place(self.epilogue_label)
        self._emit_deregistrations()
        if func.ret.is_void:
            self.emit(Op.RET)
        else:
            self.emit(Op.RET, a=self.ret_reg)
        self._insert_bounds_spills()
        self._resolve_labels()
        ir = IRFunction(
            name=func.name,
            param_regs=self.param_regs,
            param_is_pointer=self.param_is_pointer,
            num_regs=self.num_regs,
            frame_size=align_up(self.frame_size, 16) if self.frame_size else 0,
            instrs=self.instrs,
            ret_is_pointer=decay(func.ret).is_pointer,
            instrumented=self.inst,
            local_objects=self.local_objects,
        )
        return ir

    def _resolve_labels(self) -> None:
        for ins in self.instrs:
            if ins.op in (Op.JMP, Op.BZ, Op.BNZ):
                ins.target = self.labels[ins.target]

    def _insert_bounds_spills(self) -> None:
        """Model callee-saved bounds spills (stbnd/ldbnd) for pointer
        parameters that stay live across calls (paper Section 4.1.2).

        With 32 bounds registers paired to the GPRs, small functions keep
        every live bounds value in callee-saved registers; spills only
        appear under register pressure.  The pressure proxy is the
        function's pointer-parameter count plus its virtual-register
        count (large bodies exhaust the callee-saved set)."""
        if not (self.inst and self.options.bounds_spills and self.makes_calls):
            return
        pointer_params = [r for r, is_ptr
                          in zip(self.param_regs, self.param_is_pointer)
                          if is_ptr]
        # Callee-saved bounds registers absorb the first few live pointer
        # values; larger bodies (more virtual registers) leave fewer free.
        capacity = max(0, 2 - self.num_regs // 96)
        pointer_params = pointer_params[capacity:]
        if not pointer_params:
            return
        prologue: List[Instr] = []
        epilogue: List[Instr] = []
        for preg in pointer_params:
            slot = self.alloc_slot(16, 16)
            addr_in = self.reg()
            prologue.append(Instr(Op.FRAME, dst=addr_in, imm=slot))
            prologue.append(Instr(Op.STBND, a=addr_in, b=preg))
            addr_out = self.reg()
            epilogue.append(Instr(Op.FRAME, dst=addr_out, imm=slot))
            epilogue.append(Instr(Op.LDBND, dst=preg, a=addr_out))
        # Prologue goes first; epilogue right before the final RET.
        ret_index = len(self.instrs) - 1
        self.instrs = (prologue + self.instrs[:ret_index]
                       + epilogue + self.instrs[ret_index:])
        shift = len(prologue)
        for label, index in self.labels.items():
            self.labels[label] = index + shift
        self.frame_size = align_up(self.frame_size, 16)

    # -- declarations -------------------------------------------------------------

    def _declare_memory_local(self, name: str, ctype: CType) -> _VarInfo:
        """Create a frame-resident local, registering it when instrumented."""
        register = self.inst
        layout_symbol = ""
        scheme = ""
        if register:
            size = ctype.size
            if self.options.narrowing:
                layout_symbol = self.registry.symbol_for(ctype)
            cfg = self.options.ifp
            local_scheme = "local_offset" in cfg.schemes_enabled \
                and 0 < size <= cfg.local_max_object
            if local_scheme and layout_symbol:
                table = self.registry.tables[layout_symbol]
                if len(table) > cfg.local_max_layout_entries:
                    layout_symbol = ""  # index field cannot address the table
            if local_scheme:
                slot = self.alloc_slot(align_up(size, cfg.granule) + 16,
                                       max(16, ctype.align))
                scheme = "local_offset"
            else:
                slot = self.alloc_slot(size, max(ctype.align, 8))
                scheme = "global_table"
        else:
            slot = self.alloc_slot(max(ctype.size, 1), max(ctype.align, 1))
        info = _VarInfo("frame", ctype, slot=slot, registered=register,
                        layout_symbol=layout_symbol, scheme=scheme)
        self.vars[name] = info
        self.scopes[-1].append(name)
        if register:
            self._emit_registration(name, info)
        return info

    def _emit_registration(self, name: str, info: _VarInfo) -> None:
        """Emit the object-metadata initialisation for a stack object."""
        cfg = self.options.ifp
        size = info.ctype.size
        base = self.reg()
        self.emit(Op.FRAME, dst=base, imm=info.slot)
        lt_reg = self.reg()
        if info.layout_symbol:
            self.emit(Op.GLOB, dst=lt_reg, name=info.layout_symbol)
        else:
            self.emit(Op.LI, dst=lt_reg, imm=0)
        if info.scheme == "local_offset":
            aligned = align_up(size, cfg.granule)
            md = self.reg()
            self.emit(Op.BINI, dst=md, a=base, imm=aligned, name="add")
            mac = self.reg()
            self.emit(Op.IFPMAC, dst=mac, a=md, b=lt_reg, imm=size)
            self.emit(Op.STORE, a=md, b=lt_reg, size=8)
            size_reg = self.li(size)
            self.emit(Op.STORE, a=md, b=size_reg, imm=8, size=2)
            self.emit(Op.STORE, a=md, b=mac, imm=10, size=6)
            tagged = self.reg()
            payload = (aligned // cfg.granule) << cfg.local_subobj_bits
            tag16 = (int(Scheme.LOCAL_OFFSET) << 12) | payload
            self.emit(Op.IFPMD, dst=tagged, a=base, imm=tag16,
                      name="local+lt" if info.layout_symbol else "local")
            bounded = self.reg()
            self.emit(Op.IFPBND, dst=bounded, a=tagged, imm=size)
            info.tagged_reg = bounded
        else:
            size_reg = self.li(size)
            tagged = self.reg()
            self.makes_calls = True
            self.emit(Op.CALL, dst=tagged, name="__ifp_register_gt",
                      args=[base, size_reg, lt_reg],
                      signed=bool(info.layout_symbol))
            info.tagged_reg = tagged

    def _emit_deregistrations(self) -> None:
        for name in [n for scope in self.scopes for n in scope]:
            info = self.vars.get(name)
            if info is None or not info.registered:
                continue
            if info.scheme == "local_offset":
                base = self.reg()
                self.emit(Op.FRAME, dst=base, imm=info.slot)
                md = self.reg()
                self.emit(Op.BINI, dst=md, a=base,
                          imm=align_up(info.ctype.size,
                                       self.options.ifp.granule), name="add")
                zero = self.li(0)
                self.emit(Op.STORE, a=md, b=zero, size=8)
                self.emit(Op.STORE, a=md, b=zero, imm=8, size=8)
            else:
                self.emit(Op.CALL, dst=-1, name="__ifp_deregister_gt",
                          args=[info.tagged_reg])

    # -- statements -------------------------------------------------------------------

    def lower_block(self, block: ast.Block) -> None:
        self.scopes.append([])
        for stmt in block.body:
            self.lower_stmt(stmt)
        # NOTE: deregistration happens in the common epilogue (objects live
        # for the whole frame), matching stack-slot lifetime in the VM.
        self.scopes.pop()

    def lower_stmt(self, stmt: ast.Stmt) -> None:
        if isinstance(stmt, ast.Block):
            self.lower_block(stmt)
        elif isinstance(stmt, ast.VarDecl):
            self._lower_vardecl(stmt)
        elif isinstance(stmt, ast.ExprStmt):
            self.lower_expr(stmt.expr)
        elif isinstance(stmt, ast.If):
            self._lower_if(stmt)
        elif isinstance(stmt, ast.While):
            self._lower_while(stmt)
        elif isinstance(stmt, ast.For):
            self._lower_for(stmt)
        elif isinstance(stmt, ast.Switch):
            self._lower_switch(stmt)
        elif isinstance(stmt, ast.Return):
            if stmt.value is not None:
                value = self.lower_expr(stmt.value)
                value = self.coerce(value, self.func.ret)
                self.emit(Op.MV, dst=self.ret_reg, a=value.reg)
            self.emit(Op.JMP, target=self.epilogue_label)
        elif isinstance(stmt, ast.Break):
            if not self.loop_stack:
                raise CompileError("break outside loop")
            self.emit(Op.JMP, target=self.loop_stack[-1][0])
        elif isinstance(stmt, ast.Continue):
            if not self.loop_stack or self.loop_stack[-1][1] < 0:
                raise CompileError("continue outside loop")
            self.emit(Op.JMP, target=self.loop_stack[-1][1])
        else:  # pragma: no cover
            raise CompileError(f"unknown statement {type(stmt).__name__}")

    def _lower_vardecl(self, decl: ast.VarDecl) -> None:
        name, ctype = decl.name, decl.var_type
        needs_memory = ctype.is_aggregate or name in self.escaping_locals
        if needs_memory:
            # Scope shadowing: rename previously-declared vars of same name.
            if name in self.vars:
                self.vars[f"{name}@{len(self.instrs)}"] = self.vars.pop(name)
            info = self._declare_memory_local(name, ctype)
            if decl.init is not None:
                value = self.lower_expr(decl.init, ptr_hint=_pointee_hint(ctype))
                value = self.coerce(value, ctype)
                addr = self._frame_addr(info)
                self._store_scalar(addr, value, ctype)
            if decl.init_list is not None:
                self._lower_aggregate_init(info, ctype, decl.init_list)
        else:
            if name in self.vars:
                self.vars[f"{name}@{len(self.instrs)}"] = self.vars.pop(name)
            vreg = self.reg()
            info = _VarInfo("reg", ctype, reg=vreg)
            self.vars[name] = info
            self.scopes[-1].append(name)
            if decl.init is not None:
                value = self.lower_expr(decl.init, ptr_hint=_pointee_hint(ctype))
                value = self.coerce(value, ctype)
                self.emit(Op.MV, dst=vreg, a=value.reg)
                info.has_bounds = value.has_bounds
            else:
                self.emit(Op.LI, dst=vreg, imm=0)

    def _frame_addr(self, info: _VarInfo) -> int:
        reg = self.reg()
        self.emit(Op.FRAME, dst=reg, imm=info.slot)
        return reg

    def _lower_aggregate_init(self, info: _VarInfo, ctype: CType,
                              items: List[ast.Expr]) -> None:
        """Flattened scalar initialisation of an array/struct local."""
        leaves = _scalar_leaves(ctype)
        if len(items) > len(leaves):
            raise CompileError("too many initialisers")
        base = self._frame_addr(info)
        for item, (offset, leaf_type) in zip(items, leaves):
            value = self.lower_expr(item)
            value = self.coerce(value, leaf_type)
            self.emit(Op.STORE, a=base, b=value.reg, imm=offset,
                      size=leaf_type.size)

    def _lower_if(self, stmt: ast.If) -> None:
        cond = self.lower_expr(stmt.cond)
        else_label = self.label()
        self.emit(Op.BZ, a=cond.reg, target=else_label)
        self.lower_stmt(stmt.then)
        if stmt.otherwise is not None:
            end_label = self.label()
            self.emit(Op.JMP, target=end_label)
            self.place(else_label)
            self.lower_stmt(stmt.otherwise)
            self.place(end_label)
        else:
            self.place(else_label)

    def _lower_while(self, stmt: ast.While) -> None:
        head = self.label()
        end = self.label()
        body_start = self.label()
        if stmt.check_after:
            self.place(body_start)
            self.loop_stack.append((end, head))
            self.lower_stmt(stmt.body)
            self.loop_stack.pop()
            self.place(head)
            cond = self.lower_expr(stmt.cond)
            self.emit(Op.BNZ, a=cond.reg, target=body_start)
            self.place(end)
        else:
            self.place(head)
            cond = self.lower_expr(stmt.cond)
            self.emit(Op.BZ, a=cond.reg, target=end)
            self.loop_stack.append((end, head))
            self.lower_stmt(stmt.body)
            self.loop_stack.pop()
            self.emit(Op.JMP, target=head)
            self.place(end)

    def _lower_for(self, stmt: ast.For) -> None:
        if stmt.init is not None:
            self.lower_stmt(stmt.init)
        head = self.label()
        step_label = self.label()
        end = self.label()
        self.place(head)
        if stmt.cond is not None:
            cond = self.lower_expr(stmt.cond)
            self.emit(Op.BZ, a=cond.reg, target=end)
        self.loop_stack.append((end, step_label))
        self.lower_stmt(stmt.body)
        self.loop_stack.pop()
        self.place(step_label)
        if stmt.step is not None:
            self.lower_expr(stmt.step)
        self.emit(Op.JMP, target=head)
        self.place(end)

    def _lower_switch(self, stmt: ast.Switch) -> None:
        """Lower a switch to a compare chain with fallthrough bodies
        (the dispatch shape RISC-V compilers emit for sparse cases)."""
        scrutinee = self.lower_expr(stmt.scrutinee)
        end = self.label()
        body_labels = [self.label() for _case in stmt.cases]
        default_label = end
        for case, body_label in zip(stmt.cases, body_labels):
            if case.value is None:
                default_label = body_label
                continue
            match = self.reg()
            value_reg = self.li(case.value)
            self.emit(Op.BIN, dst=match, a=scrutinee.reg, b=value_reg,
                      name="seq")
            self.emit(Op.BNZ, a=match, target=body_label)
        self.emit(Op.JMP, target=default_label)
        # break inside a switch exits the switch; continue still belongs
        # to the enclosing loop (if any).
        enclosing_continue = self.loop_stack[-1][1] if self.loop_stack \
            else -1
        self.loop_stack.append((end, enclosing_continue))
        for case, body_label in zip(stmt.cases, body_labels):
            self.place(body_label)
            for inner in case.body:
                self.lower_stmt(inner)
            # no jump: C fallthrough into the next case body
        self.loop_stack.pop()
        self.place(end)

    # -- lvalues ---------------------------------------------------------------------

    def lower_addr(self, expr: ast.Expr, for_escape: bool = False) -> AddrInfo:
        if isinstance(expr, ast.Ident):
            return self._addr_ident(expr, for_escape)
        if isinstance(expr, ast.Deref):
            pointer = self.lower_expr(expr.pointer)
            pointer = self._ensure_promoted(pointer)
            pointee = decay(pointer.ctype).pointee
            return AddrInfo(pointer.reg, pointee, pointer.has_bounds,
                            idx_delta=0, narrow_ok=self.inst, at_top=False,
                            is_sub=False)
        if isinstance(expr, ast.Member):
            return self._addr_member(expr, for_escape)
        if isinstance(expr, ast.Index):
            return self._addr_index(expr, for_escape)
        if isinstance(expr, ast.StrLit):
            reg = self.reg()
            self.emit(Op.GLOB, dst=reg, name=expr.symbol)
            return AddrInfo(reg, ArrayType(decay(expr.ctype).pointee,
                                           1), False, narrow_ok=False)
        raise CompileError(
            f"expression is not an lvalue: {type(expr).__name__}")

    def _addr_ident(self, expr: ast.Ident, for_escape: bool) -> AddrInfo:
        name = expr.name
        if expr.binding in ("local", "param"):
            info = self.vars[name]
            if info.kind == "reg":
                raise CompileError(
                    f"address of register variable {name!r} "
                    "(escape analysis should have placed it in memory)")
            if info.registered and info.tagged_reg >= 0:
                return AddrInfo(info.tagged_reg, info.ctype, True,
                                narrow_ok=bool(info.layout_symbol),
                                at_top=True)
            reg = self._frame_addr(info)
            return AddrInfo(reg, info.ctype, False, narrow_ok=False,
                            at_top=True)
        if expr.binding == "global":
            gvar = self.program.globals[name]
            if self.inst and for_escape and name in self.escaping_globals:
                tagged = self.reg()
                self.makes_calls = True
                self.emit(Op.CALL, dst=tagged,
                          name=f"__ifp_getptr_{name}", args=[])
                return AddrInfo(tagged, gvar.var_type, True,
                                narrow_ok=True, at_top=True)
            reg = self.reg()
            self.emit(Op.GLOB, dst=reg, name=name)
            return AddrInfo(reg, gvar.var_type, False, narrow_ok=False,
                            at_top=True)
        raise CompileError(f"cannot take address of {name!r}")

    def _addr_member(self, expr: ast.Member,
                     for_escape: bool = False) -> AddrInfo:
        if expr.arrow:
            pointer = self.lower_expr(expr.base)
            pointer = self._ensure_promoted(pointer)
            struct_type = decay(pointer.ctype).pointee
            base = AddrInfo(pointer.reg, struct_type, pointer.has_bounds,
                            narrow_ok=self.inst, at_top=False)
        else:
            base = self.lower_addr(expr.base, for_escape)
            struct_type = base.ctype
        if not isinstance(struct_type, StructType):
            raise CompileError("member access on non-struct")
        field_info = struct_type.field(expr.name)
        reg = self._pointer_add_imm(base, field_info.offset)
        delta = 0
        if base.narrow_ok and self.options.narrowing:
            try:
                delta = member_delta(struct_type, expr.name)
            except KeyError:  # pragma: no cover
                delta = 0
        return AddrInfo(reg, field_info.type, base.has_bounds,
                        idx_delta=base.idx_delta + delta,
                        narrow_ok=base.narrow_ok, at_top=False, is_sub=True)

    def _addr_index(self, expr: ast.Index,
                    for_escape: bool = False) -> AddrInfo:
        base_type = expr.base.ctype
        if base_type is not None and base_type.is_array:
            base = self.lower_addr(expr.base, for_escape)
            element = base_type.element
            idx_delta = base.idx_delta
            # Descending from a whole-object array into its array entry.
            if base.at_top and base.narrow_ok and self.options.narrowing \
                    and isinstance(base.ctype, ArrayType):
                idx_delta += 1
            # Static narrowing: bound the access to this array subobject.
            bounded_reg = base.reg
            if (self.inst or self.mpx) \
                    and not isinstance(expr.index, ast.IntLit):
                bounded_reg = self.reg()
                self.emit(Op.IFPBND, dst=bounded_reg, a=base.reg,
                          imm=base_type.size)
            base = AddrInfo(bounded_reg, base.ctype,
                            base.has_bounds or (bounded_reg != base.reg),
                            idx_delta=idx_delta, narrow_ok=base.narrow_ok,
                            at_top=False, is_sub=base.is_sub)
        else:
            pointer = self.lower_expr(expr.base)
            pointer = self._ensure_promoted(pointer)
            element = decay(pointer.ctype).pointee
            base = AddrInfo(pointer.reg, element, pointer.has_bounds,
                            narrow_ok=self.inst, at_top=False)
        if element.size == 0:
            raise CompileError("indexing incomplete element type")
        if isinstance(expr.index, ast.IntLit):
            reg = self._pointer_add_imm(base, expr.index.value * element.size)
        else:
            index = self.lower_expr(expr.index)
            scaled = self.reg()
            self.emit(Op.BINI, dst=scaled, a=index.reg, imm=element.size,
                      name="mul")
            reg = self.reg()
            if self.inst or self.mpx:
                self.emit(Op.IFPADD, dst=reg, a=base.reg, b=scaled)
            else:
                self.emit(Op.BIN, dst=reg, a=base.reg, b=scaled, name="add")
        return AddrInfo(reg, element, base.has_bounds,
                        idx_delta=base.idx_delta, narrow_ok=base.narrow_ok,
                        at_top=False, is_sub=base.is_sub)

    def _pointer_add_imm(self, base: AddrInfo, offset: int) -> int:
        if offset == 0:
            return base.reg
        reg = self.reg()
        if self.inst or self.mpx:
            self.emit(Op.IFPADD, dst=reg, a=base.reg, imm=offset)
        else:
            self.emit(Op.BINI, dst=reg, a=base.reg, imm=offset, name="add")
        return reg

    def materialize(self, addr: AddrInfo) -> Value:
        """Turn an lvalue path into a first-class pointer value, applying
        the accumulated ``ifpidx`` delta and a static ``ifpbnd`` narrow."""
        reg = addr.reg
        pointee = addr.ctype
        if self.inst and self.options.narrowing and addr.narrow_ok \
                and addr.idx_delta:
            out = self.reg()
            self.emit(Op.IFPIDX, dst=out, a=reg, imm=addr.idx_delta)
            reg = out
        if (self.inst and addr.is_sub and pointee.size > 0) \
                or (self.mpx and pointee.size > 0):
            # MPX creates bounds (bndmk) at every address-taken site;
            # IFP only needs the static narrow for strict subobjects.
            out = self.reg()
            self.emit(Op.IFPBND, dst=out, a=reg, imm=pointee.size)
            reg = out
            has_bounds = True
        else:
            has_bounds = addr.has_bounds
        if isinstance(pointee, ArrayType):
            return Value(reg, PointerType(pointee.element), has_bounds)
        return Value(reg, PointerType(pointee), has_bounds)

    # -- expressions -----------------------------------------------------------------

    def lower_expr(self, expr: ast.Expr,
                   ptr_hint: Optional[CType] = None) -> Value:
        method = getattr(self, "_e_" + type(expr).__name__)
        if isinstance(expr, (ast.Call, ast.Cast)):
            return method(expr, ptr_hint)
        return method(expr)

    def _e_IntLit(self, expr: ast.IntLit) -> Value:
        return Value(self.li(expr.value), expr.ctype)

    def _e_StrLit(self, expr: ast.StrLit) -> Value:
        reg = self.reg()
        self.emit(Op.GLOB, dst=reg, name=expr.symbol)
        return Value(reg, expr.ctype)

    def _e_SizeofType(self, expr: ast.SizeofType) -> Value:
        return Value(self.li(expr.query_type.size), ULONG)

    def _e_SizeofExpr(self, expr: ast.SizeofExpr) -> Value:
        return Value(self.li(expr.operand.ctype.size), ULONG)

    def _ensure_promoted(self, value: Value) -> Value:
        """Lazily promote a pointer whose bounds state is unknown (e.g. an
        int-to-pointer cast) before it is dereferenced."""
        if self.inst and not value.has_bounds \
                and decay(value.ctype).is_pointer:
            out = self.reg()
            self.emit(Op.PROMOTE, dst=out, a=value.reg)
            return Value(out, value.ctype, has_bounds=True)
        return value

    def _e_Ident(self, expr: ast.Ident) -> Value:
        if expr.binding == "function":
            reg = self.reg()
            self.emit(Op.GLOB, dst=reg, name=f"__func_{expr.name}")
            return Value(reg, PointerType(expr.ctype))
        if expr.ctype.is_aggregate:
            addr = self.lower_addr(expr, for_escape=True)
            return self.materialize(addr)
        info = self.vars.get(expr.name) if expr.binding != "global" else None
        if info is not None and info.kind == "reg":
            return Value(info.reg, info.ctype, info.has_bounds)
        # Memory-resident scalar (local or global).
        addr = self.lower_addr(expr)
        return self._load_scalar(addr, expr.ctype)

    def _load_scalar(self, addr: AddrInfo, ctype: CType) -> Value:
        ctype = decay(ctype)
        if self.inst and self.options.explicit_checks and addr.has_bounds:
            # Explicit-check ablation: an ifpchk instruction per access
            # instead of relying on implicit bounds-checked IFPRs.
            checked = self.reg()
            self.emit(Op.IFPCHK, dst=checked, a=addr.reg,
                      imm=max(ctype.size, 1))
            addr = AddrInfo(checked, addr.ctype, addr.has_bounds,
                            addr.idx_delta, addr.narrow_ok, addr.at_top,
                            addr.is_sub)
        dst = self.reg()
        self.emit(Op.LOAD, dst=dst, a=addr.reg, size=max(ctype.size, 1),
                  signed=isinstance(ctype, IntType) and ctype.signed)
        value = Value(dst, ctype)
        if self.inst and ctype.is_pointer:
            # Eager promote after pointer loads (the paper's hoisting).
            out = self.reg()
            self.emit(Op.PROMOTE, dst=out, a=dst)
            value = Value(out, ctype, has_bounds=True)
        elif self.mpx and ctype.is_pointer:
            # bndldx: reload the pointer's bounds from the table entry
            # of its storage location.
            value = Value(dst, ctype,
                          has_bounds=self._mpx_bounds_load(addr.reg, dst))
        return value

    def _mpx_entry(self, location_reg: int) -> int:
        slot = self.reg()
        self.emit(Op.BINI, dst=slot, a=location_reg, imm=3, name="shr")
        scaled = self.reg()
        self.emit(Op.BINI, dst=scaled, a=slot, imm=4, name="shl")
        entry = self.reg()
        self.emit(Op.BINI, dst=entry, a=scaled, imm=MPX_TABLE_BASE,
                  name="add")
        return entry

    def _mpx_bounds_load(self, location_reg: int, pointer_reg: int) -> bool:
        entry = self._mpx_entry(location_reg)
        self.emit(Op.LDBND, dst=pointer_reg, a=entry)
        return True

    def _store_scalar(self, addr_reg: int, value: Value,
                      ctype: CType) -> None:
        ctype = decay(ctype)
        if self.inst and self.options.explicit_checks:
            checked = self.reg()
            self.emit(Op.IFPCHK, dst=checked, a=addr_reg,
                      imm=max(ctype.size, 1))
            addr_reg = checked
        reg = value.reg
        if self.inst and ctype.is_pointer and value.has_bounds:
            out = self.reg()
            self.emit(Op.IFPEXTRACT, dst=out, a=reg)
            reg = out
        self.emit(Op.STORE, a=addr_reg, b=reg, size=max(ctype.size, 1))
        if self.mpx and ctype.is_pointer:
            # bndstx: persist the pointer's bounds keyed by its location.
            entry = self._mpx_entry(addr_reg)
            self.emit(Op.STBND, a=entry, b=value.reg)

    def _e_Deref(self, expr: ast.Deref) -> Value:
        addr = self.lower_addr(expr)
        if addr.ctype.is_aggregate:
            return self.materialize(addr)
        return self._load_scalar(addr, expr.ctype)

    def _e_Index(self, expr: ast.Index) -> Value:
        # An aggregate-typed element decays to a first-class pointer
        # here, which is an escape of the root object (mirrors the
        # aggregate branch of _e_Ident and the escape analysis).
        addr = self.lower_addr(expr,
                               for_escape=bool(expr.ctype.is_aggregate))
        if addr.ctype.is_aggregate:
            return self.materialize(addr)
        return self._load_scalar(addr, expr.ctype)

    def _e_Member(self, expr: ast.Member) -> Value:
        addr = self.lower_addr(expr,
                               for_escape=bool(expr.ctype.is_aggregate))
        if addr.ctype.is_aggregate:
            return self.materialize(addr)
        return self._load_scalar(addr, expr.ctype)

    def _e_AddressOf(self, expr: ast.AddressOf) -> Value:
        if isinstance(expr.operand, ast.Ident) \
                and expr.operand.binding == "function":
            reg = self.reg()
            self.emit(Op.GLOB, dst=reg, name=f"__func_{expr.operand.name}")
            return Value(reg, expr.ctype)
        addr = self.lower_addr(expr.operand, for_escape=True)
        value = self.materialize(addr)
        return Value(value.reg, expr.ctype, value.has_bounds)

    def _e_Unary(self, expr: ast.Unary) -> Value:
        operand = self.lower_expr(expr.operand)
        dst = self.reg()
        name = {"-": "neg", "!": "lnot", "~": "bnot"}[expr.op]
        self.emit(Op.BINI, dst=dst, a=operand.reg, name=name)
        return Value(dst, expr.ctype)

    def _e_Binary(self, expr: ast.Binary) -> Value:
        op = expr.op
        if op in ("&&", "||"):
            return self._short_circuit(expr)
        left = self.lower_expr(expr.left)
        right = self.lower_expr(expr.right)
        left_t, right_t = decay(left.ctype), decay(right.ctype)
        dst = self.reg()
        if op in _CMP_OPS:
            name, swap = _CMP_OPS[op]
            a, b = (right, left) if swap else (left, right)
            pointerish = left_t.is_pointer or right_t.is_pointer
            if pointerish:
                name = "p" + name  # address-only comparison (tag-blind)
            signed = (not pointerish
                      and isinstance(left_t, IntType) and left_t.signed
                      and isinstance(right_t, IntType) and right_t.signed)
            self.emit(Op.BIN, dst=dst, a=a.reg, b=b.reg, name=name,
                      signed=signed)
            return Value(dst, INT)
        # Pointer arithmetic.
        if op in ("+", "-") and (left_t.is_pointer or right_t.is_pointer):
            return self._pointer_arith(op, left, right, expr.ctype, dst)
        name = _ARITH_OPS[op]
        signed = (isinstance(expr.ctype, IntType) and expr.ctype.signed)
        if name == "shr" and signed:
            name = "sar"
        self.emit(Op.BIN, dst=dst, a=left.reg, b=right.reg, name=name,
                  signed=signed)
        value = Value(dst, expr.ctype)
        return self._wrap_if_needed(value)

    def _wrap_if_needed(self, value: Value) -> Value:
        """Keep sub-64-bit arithmetic within its type's range."""
        ctype = value.ctype
        if isinstance(ctype, IntType) and ctype.size < 8:
            dst = self.reg()
            self.emit(Op.TRUNC, dst=dst, a=value.reg, size=ctype.size,
                      signed=ctype.signed)
            return Value(dst, ctype)
        return value

    def _pointer_arith(self, op: str, left: Value, right: Value,
                       result_type: CType, dst: int) -> Value:
        left_t, right_t = decay(left.ctype), decay(right.ctype)
        if left_t.is_pointer and right_t.is_pointer:
            # Pointer difference: (a - b) / sizeof(*a)
            diff = self.reg()
            self.emit(Op.BIN, dst=diff, a=left.reg, b=right.reg, name="psub")
            elem = max(left_t.pointee.size, 1)
            self.emit(Op.BINI, dst=dst, a=diff, imm=elem, name="div",
                      signed=True)
            return Value(dst, LONG)
        pointer, integer = (left, right) if left_t.is_pointer else (right, left)
        pointer_t = decay(pointer.ctype)
        elem = max(pointer_t.pointee.size, 1)
        scaled = self.reg()
        self.emit(Op.BINI, dst=scaled, a=integer.reg, imm=elem, name="mul")
        if op == "-":
            negated = self.reg()
            self.emit(Op.BINI, dst=negated, a=scaled, name="neg")
            scaled = negated
        if self.inst or self.mpx:
            self.emit(Op.IFPADD, dst=dst, a=pointer.reg, b=scaled)
        else:
            self.emit(Op.BIN, dst=dst, a=pointer.reg, b=scaled, name="add")
        return Value(dst, pointer_t, pointer.has_bounds)

    def _short_circuit(self, expr: ast.Binary) -> Value:
        dst = self.reg()
        end = self.label()
        if expr.op == "&&":
            self.emit(Op.LI, dst=dst, imm=0)
            left = self.lower_expr(expr.left)
            self.emit(Op.BZ, a=left.reg, target=end)
            right = self.lower_expr(expr.right)
            self.emit(Op.BZ, a=right.reg, target=end)
            self.emit(Op.LI, dst=dst, imm=1)
        else:
            self.emit(Op.LI, dst=dst, imm=1)
            left = self.lower_expr(expr.left)
            self.emit(Op.BNZ, a=left.reg, target=end)
            right = self.lower_expr(expr.right)
            self.emit(Op.BNZ, a=right.reg, target=end)
            self.emit(Op.LI, dst=dst, imm=0)
        self.place(end)
        return Value(dst, INT)

    def _e_Conditional(self, expr: ast.Conditional) -> Value:
        dst = self.reg()
        cond = self.lower_expr(expr.cond)
        else_label = self.label()
        end = self.label()
        self.emit(Op.BZ, a=cond.reg, target=else_label)
        then = self.lower_expr(expr.then)
        self.emit(Op.MV, dst=dst, a=then.reg)
        self.emit(Op.JMP, target=end)
        self.place(else_label)
        otherwise = self.lower_expr(expr.otherwise)
        self.emit(Op.MV, dst=dst, a=otherwise.reg)
        self.place(end)
        return Value(dst, expr.ctype,
                     then.has_bounds and otherwise.has_bounds)

    def _e_Assign(self, expr: ast.Assign) -> Value:
        target = expr.target
        if expr.op != "=":
            return self._compound_assign(expr)
        # Struct assignment lowers to memcpy.
        if decay(expr.ctype).is_struct:
            dst_addr = self.lower_addr(target, for_escape=False)
            src_addr = self.lower_addr(expr.value, for_escape=False)
            size_reg = self.li(expr.ctype.size)
            self.makes_calls = True
            self.emit(Op.CALL, dst=-1, name="memcpy",
                      args=[dst_addr.reg, src_addr.reg, size_reg])
            return Value(dst_addr.reg, expr.ctype)
        value = self.lower_expr(expr.value,
                                ptr_hint=_pointee_hint(target.ctype))
        value = self.coerce(value, target.ctype)
        if isinstance(target, ast.Ident) and target.binding != "global":
            info = self.vars[target.name]
            if info.kind == "reg":
                self.emit(Op.MV, dst=info.reg, a=value.reg)
                info.has_bounds = value.has_bounds
                return Value(info.reg, target.ctype, value.has_bounds)
        addr = self.lower_addr(target)
        self._store_scalar(addr.reg, value, target.ctype)
        return value

    def _compound_assign(self, expr: ast.Assign) -> Value:
        base_op = expr.op[:-1]
        target = expr.target
        synthetic = ast.Binary(expr.line, expr.ctype, False, base_op,
                               target, expr.value)
        synthetic.ctype = expr.ctype if not decay(expr.ctype).is_pointer \
            else target.ctype
        # Evaluate as target = target op value, re-lowering the target
        # lvalue (single-evaluation of complex lvalues is preserved for
        # the common Ident case, which is what the workloads use).
        if isinstance(target, ast.Ident) and target.binding != "global" \
                and target.name in self.vars \
                and self.vars[target.name].kind == "reg":
            info = self.vars[target.name]
            value = self._binary_inplace(base_op, Value(
                info.reg, info.ctype, info.has_bounds), expr.value)
            value = self.coerce(value, target.ctype)
            self.emit(Op.MV, dst=info.reg, a=value.reg)
            info.has_bounds = value.has_bounds
            return Value(info.reg, target.ctype, value.has_bounds)
        addr = self.lower_addr(target)
        current = self._load_scalar(
            AddrInfo(addr.reg, addr.ctype, addr.has_bounds), target.ctype)
        value = self._binary_inplace(base_op, current, expr.value)
        value = self.coerce(value, target.ctype)
        self._store_scalar(addr.reg, value, target.ctype)
        return value

    def _binary_inplace(self, op: str, current: Value,
                        value_expr: ast.Expr) -> Value:
        right = self.lower_expr(value_expr)
        current_t = decay(current.ctype)
        dst = self.reg()
        if current_t.is_pointer:
            return self._pointer_arith(op, current, right, current_t, dst)
        name = _ARITH_OPS[op]
        signed = isinstance(current_t, IntType) and current_t.signed
        if name == "shr" and signed:
            name = "sar"
        self.emit(Op.BIN, dst=dst, a=current.reg, b=right.reg, name=name,
                  signed=signed)
        return self._wrap_if_needed(Value(dst, current.ctype))

    def _e_IncDec(self, expr: ast.IncDec) -> Value:
        delta = 1 if expr.op == "++" else -1
        target = expr.target
        target_t = decay(target.ctype)
        step = delta * (max(target_t.pointee.size, 1)
                        if target_t.is_pointer else 1)
        if isinstance(target, ast.Ident) and target.binding != "global" \
                and target.name in self.vars \
                and self.vars[target.name].kind == "reg":
            info = self.vars[target.name]
            old = info.reg
            result_reg = old
            if expr.postfix:
                saved = self.reg()
                self.emit(Op.MV, dst=saved, a=old)
                result_reg = saved
            updated = self.reg()
            if target_t.is_pointer and (self.inst or self.mpx):
                self.emit(Op.IFPADD, dst=updated, a=old, imm=step)
            else:
                self.emit(Op.BINI, dst=updated, a=old, imm=step, name="add")
            wrapped = self._wrap_if_needed(Value(updated, info.ctype))
            self.emit(Op.MV, dst=info.reg, a=wrapped.reg)
            return Value(result_reg, target.ctype, info.has_bounds)
        addr = self.lower_addr(target)
        current = self._load_scalar(
            AddrInfo(addr.reg, addr.ctype, addr.has_bounds), target.ctype)
        result_reg = current.reg
        if expr.postfix:
            saved = self.reg()
            self.emit(Op.MV, dst=saved, a=current.reg)
            result_reg = saved
        updated = self.reg()
        if target_t.is_pointer and (self.inst or self.mpx):
            self.emit(Op.IFPADD, dst=updated, a=current.reg, imm=step)
        else:
            self.emit(Op.BINI, dst=updated, a=current.reg, imm=step,
                      name="add")
        wrapped = self._wrap_if_needed(Value(updated, target.ctype))
        self._store_scalar(addr.reg, Value(wrapped.reg, target.ctype,
                                           current.has_bounds), target.ctype)
        return Value(result_reg, target.ctype, current.has_bounds)

    def _e_Cast(self, expr: ast.Cast, ptr_hint: Optional[CType]) -> Value:
        target = expr.target_type
        hint = target.pointee if isinstance(target, PointerType) else ptr_hint
        value = self.lower_expr(expr.operand, ptr_hint=hint)
        if isinstance(target, IntType) and target.size < 8:
            dst = self.reg()
            self.emit(Op.TRUNC, dst=dst, a=value.reg, size=target.size,
                      signed=target.signed)
            return Value(dst, target)
        return Value(value.reg, target if not target.is_void else VOID,
                     value.has_bounds and target.is_pointer)

    def _e_Call(self, expr: ast.Call, ptr_hint: Optional[CType]) -> Value:
        self.makes_calls = True
        # Direct calls by name.
        if isinstance(expr.func, ast.Ident) and expr.func.binding == "function":
            name = expr.func.name
            if self.inst and name in _ALLOC_BUILTINS:
                return self._lower_alloc_call(name, expr, ptr_hint)
            if self.mpx and name in _ALLOC_BUILTINS:
                return self._lower_mpx_alloc_call(name, expr, ptr_hint)
            signature = expr.func.ctype
            args = self._lower_args(expr.args, signature)
            dst = self.reg() if not signature.ret.is_void else -1
            self.emit(Op.CALL, dst=dst, name=name,
                      args=[a.reg for a in args])
            return self._call_result(dst, signature.ret,
                                     internal=name in self.program.functions
                                     and self.program.functions[name].body
                                     is not None)
        # Indirect call through a function pointer.
        callee = self.lower_expr(expr.func)
        signature = decay(expr.func.ctype).pointee \
            if decay(expr.func.ctype).is_pointer else expr.func.ctype
        args = self._lower_args(expr.args, signature)
        dst = self.reg() if not signature.ret.is_void else -1
        self.emit(Op.CALLPTR, dst=dst, a=callee.reg,
                  args=[a.reg for a in args])
        return self._call_result(dst, signature.ret, internal=False)

    def _lower_args(self, arg_exprs: List[ast.Expr],
                    signature: FunctionType) -> List[Value]:
        args = []
        for index, arg in enumerate(arg_exprs):
            hint = None
            if index < len(signature.params):
                param = signature.params[index]
                hint = param.pointee if isinstance(param, PointerType) else None
            value = self.lower_expr(arg, ptr_hint=hint)
            if index < len(signature.params):
                value = self.coerce(value, signature.params[index])
            args.append(value)
        return args

    def _call_result(self, dst: int, ret: CType, internal: bool) -> Value:
        if dst < 0 or ret.is_void:
            return Value(self.li(0), VOID)
        ret = decay(ret)
        if self.inst and ret.is_pointer and not internal:
            # Legacy/unknown callee: promote the returned pointer.
            out = self.reg()
            self.emit(Op.PROMOTE, dst=out, a=dst)
            return Value(out, ret, has_bounds=True)
        return Value(dst, ret, has_bounds=self.inst and ret.is_pointer
                     and internal)

    def _lower_alloc_call(self, name: str, expr: ast.Call,
                          ptr_hint: Optional[CType]) -> Value:
        """Rewrite malloc/calloc/realloc/free to the IFP runtime."""
        if name == "free":
            pointer = self.lower_expr(expr.args[0])
            self.emit(Op.CALL, dst=-1, name="__ifp_free", args=[pointer.reg])
            return Value(self.li(0), VOID)
        # Deduce the allocation's element type for layout-table metadata.
        lt_symbol = ""
        elem_size = 0
        hint = ptr_hint
        if hint is not None and isinstance(hint, StructType) \
                and self.options.narrowing:
            lt_symbol = self.registry.symbol_for(hint)
            elem_size = hint.size
        lt_reg = self.reg()
        if lt_symbol:
            self.emit(Op.GLOB, dst=lt_reg, name=lt_symbol)
        else:
            self.emit(Op.LI, dst=lt_reg, imm=0)
        elem_reg = self.li(elem_size)
        dst = self.reg()
        if name == "malloc":
            size = self.lower_expr(expr.args[0])
            self.emit(Op.CALL, dst=dst, name="__ifp_malloc",
                      args=[size.reg, lt_reg, elem_reg])
        elif name == "calloc":
            count = self.lower_expr(expr.args[0])
            size = self.lower_expr(expr.args[1])
            self.emit(Op.CALL, dst=dst, name="__ifp_calloc",
                      args=[count.reg, size.reg, lt_reg, elem_reg])
        else:  # realloc
            pointer = self.lower_expr(expr.args[0])
            size = self.lower_expr(expr.args[1])
            self.emit(Op.CALL, dst=dst, name="__ifp_realloc",
                      args=[pointer.reg, size.reg, lt_reg, elem_reg])
        return Value(dst, PointerType(hint) if hint is not None else
                     decay(expr.ctype), has_bounds=True)

    def _lower_mpx_alloc_call(self, name: str, expr: ast.Call,
                              ptr_hint: Optional[CType]) -> Value:
        """MPX: plain libc allocation plus a bndmk (ifpbnd) with the
        requested size."""
        if name == "free":
            pointer = self.lower_expr(expr.args[0])
            self.emit(Op.CALL, dst=-1, name="free", args=[pointer.reg])
            return Value(self.li(0), VOID)
        dst = self.reg()
        if name == "malloc":
            size = self.lower_expr(expr.args[0])
            self.emit(Op.CALL, dst=dst, name="malloc", args=[size.reg])
            size_reg = size.reg
        elif name == "calloc":
            count = self.lower_expr(expr.args[0])
            size = self.lower_expr(expr.args[1])
            self.emit(Op.CALL, dst=dst, name="calloc",
                      args=[count.reg, size.reg])
            size_reg = self.reg()
            self.emit(Op.BIN, dst=size_reg, a=count.reg, b=size.reg,
                      name="mul")
        else:  # realloc
            pointer = self.lower_expr(expr.args[0])
            size = self.lower_expr(expr.args[1])
            self.emit(Op.CALL, dst=dst, name="realloc",
                      args=[pointer.reg, size.reg])
            size_reg = size.reg
        bounded = self.reg()
        self.emit(Op.IFPBND, dst=bounded, a=dst, b=size_reg)
        result_type = (PointerType(ptr_hint) if ptr_hint is not None
                       else decay(expr.ctype))
        return Value(bounded, result_type, has_bounds=True)

    # -- conversions --------------------------------------------------------------------

    def coerce(self, value: Value, target: CType) -> Value:
        target = decay(target)
        source = decay(value.ctype)
        if isinstance(target, IntType) and target.size < 8 \
                and not (isinstance(source, IntType)
                         and source.size <= target.size
                         and source.signed == target.signed):
            dst = self.reg()
            self.emit(Op.TRUNC, dst=dst, a=value.reg, size=target.size,
                      signed=target.signed)
            return Value(dst, target)
        return value


def _pointee_hint(ctype: Optional[CType]) -> Optional[CType]:
    """Element-type hint for allocation-site layout-table deduction."""
    if isinstance(ctype, PointerType):
        return ctype.pointee
    return None


def _scalar_leaves(ctype: CType, base: int = 0,
                   out: Optional[List[Tuple[int, CType]]] = None
                   ) -> List[Tuple[int, CType]]:
    """Flattened (offset, scalar type) leaves of an aggregate, in order."""
    if out is None:
        out = []
    if isinstance(ctype, StructType):
        for field_info in ctype.fields:
            _scalar_leaves(field_info.type, base + field_info.offset, out)
    elif isinstance(ctype, ArrayType):
        for i in range(ctype.count):
            _scalar_leaves(ctype.element, base + i * ctype.element.size,
                           out)
    else:
        out.append((base, ctype))
    return out
