"""The register-based IR executed by the VM.

The IR models the paper's RV64 target plus the In-Fat Pointer ISA
extension (Table 3).  Functions use unlimited virtual registers; the
calling convention passes up to eight arguments (with paired bounds for
pointers), mirroring the paper's extended RISC-V convention.

Instruction categories (used by the Figure 11 accounting):

* ``base`` — instructions present in the unmodified ISA;
* ``promote`` — the ``promote`` instruction;
* ``ifp_arith`` — single-cycle IFP instructions (``ifpadd``, ``ifpidx``,
  ``ifpbnd``, ``ifpchk``, ``ifpextract``, ``ifpmd``, ``ifpmac``);
* ``bounds_ls`` — ``ldbnd``/``stbnd``.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.errors import CompileError, LinkError


class Op(enum.IntEnum):
    """IR opcodes.  Base ISA first, then the IFP extension."""

    # -- base ISA -------------------------------------------------------------
    LI = 1        #: dst = imm
    MV = 2        #: dst = a
    BIN = 3       #: dst = a <name> b   (name: add/sub/mul/...)
    BINI = 4      #: dst = a <name> imm
    TRUNC = 5     #: dst = wrap(a) to size/signed
    LOAD = 6      #: dst = mem[a + imm] (size, signed)
    STORE = 7     #: mem[a + imm] = b   (size)
    JMP = 8       #: goto target
    BZ = 9        #: if a == 0 goto target
    BNZ = 10      #: if a != 0 goto target
    CALL = 11     #: dst = name(args...)
    CALLPTR = 12  #: dst = (*a)(args...)
    RET = 13      #: return a (optional)
    FRAME = 14    #: dst = frame_base + imm (address of a stack slot)
    GLOB = 15     #: dst = address of global symbol `name`

    # -- In-Fat Pointer extension (paper Table 3) -------------------------------
    PROMOTE = 32     #: dst = promote(a); bounds[dst] set from metadata
    IFPMAC = 33      #: dst = MAC(key, a=md_addr, b=layout_ptr, imm=size)
    LDBND = 34       #: bounds[dst] = mem[a + imm] (16-byte spill format)
    STBND = 35       #: mem[a + imm] = bounds[b]
    IFPBND = 36      #: dst = a; bounds[dst] = [addr(a), addr(a) + imm_or_b)
    IFPADD = 37      #: dst = a + (b or imm), tag-maintaining pointer add
    IFPIDX = 38      #: dst = a with subobject index += imm
    IFPCHK = 39      #: dst = a, poison updated by access-size check of imm
    IFPEXTRACT = 40  #: dst = a (poison refreshed); bounds[dst] cleared
    IFPMD = 41       #: dst = addr(a) | (imm16 << 48) — install a tag

    @property
    def category(self) -> str:
        if self is Op.PROMOTE:
            return "promote"
        if self in (Op.LDBND, Op.STBND):
            return "bounds_ls"
        if self.value >= Op.PROMOTE:
            return "ifp_arith"
        return "base"


#: Mnemonics matching the paper's Table 3 where applicable.
MNEMONICS: Dict[Op, str] = {
    Op.LI: "li", Op.MV: "mv", Op.BIN: "bin", Op.BINI: "bini",
    Op.TRUNC: "trunc", Op.LOAD: "ld", Op.STORE: "sd", Op.JMP: "j",
    Op.BZ: "beqz", Op.BNZ: "bnez", Op.CALL: "call", Op.CALLPTR: "callr",
    Op.RET: "ret", Op.FRAME: "addi.sp", Op.GLOB: "la",
    Op.PROMOTE: "promote", Op.IFPMAC: "ifpmac", Op.LDBND: "ldbnd",
    Op.STBND: "stbnd", Op.IFPBND: "ifpbnd", Op.IFPADD: "ifpadd",
    Op.IFPIDX: "ifpidx", Op.IFPCHK: "ifpchk", Op.IFPEXTRACT: "ifpextract",
    Op.IFPMD: "ifpmd",
}


#: Integer codes for BIN/BINI variants.  Assigned once per program by
#: :func:`assign_bin_codes` (at compile or load time) so every execution
#: engine dispatches on a small int instead of the mnemonic string.
BIN_CODES: Dict[str, int] = {
    "add": 0, "sub": 1, "mul": 2, "div": 3, "rem": 4, "and": 5, "or": 6,
    "xor": 7, "shl": 8, "shr": 9, "sar": 10, "seq": 11, "sne": 12,
    "slt": 13, "sle": 14, "neg": 15, "lnot": 16, "bnot": 17,
    "pseq": 18, "psne": 19, "pslt": 20, "psle": 21, "psub": 22,
}


def assign_bin_codes(program: "IRProgram") -> None:
    """Assign :data:`BIN_CODES` to every BIN/BINI instruction, once.

    Ran by ``compile_source`` for compiled programs and by the VM loader
    for hand-built ones, so an unknown variant surfaces as a
    :class:`~repro.errors.LinkError` at link time — not on the first
    ``Machine`` construction of a campaign that builds thousands.
    """
    if program.codes_assigned:
        return
    for func in program.functions.values():
        for ins in func.instrs:
            if ins.op in (Op.BIN, Op.BINI):
                try:
                    ins.code = BIN_CODES[ins.name]
                except KeyError:
                    raise LinkError(
                        f"unknown BIN variant {ins.name!r}") from None
    program.codes_assigned = True


class Instr:
    """One IR instruction.

    A single flexible record keeps the interpreter dispatch simple and
    fast.  Field meaning depends on ``op`` (see :class:`Op` comments).
    """

    __slots__ = ("op", "dst", "a", "b", "imm", "size", "signed", "name",
                 "args", "target", "code")

    def __init__(self, op: Op, dst: int = -1, a: int = -1, b: int = -1,
                 imm: int = 0, size: int = 8, signed: bool = False,
                 name: str = "", args: Optional[List[int]] = None,
                 target: int = -1):
        self.op = op
        self.dst = dst
        self.a = a
        self.b = b
        self.imm = imm
        self.size = size
        self.signed = signed
        self.name = name
        self.args = args if args is not None else []
        self.target = target
        self.code = -1  # integer op-variant code assigned by the VM loader

    def __repr__(self) -> str:
        return f"Instr({MNEMONICS[self.op]}, dst=r{self.dst})"


@dataclass
class LocalObjectInfo:
    """A stack object the instrumentation registered (for statistics)."""

    name: str
    slot: int            #: frame offset
    size: int
    scheme: str          #: 'local_offset' | 'global_table'
    layout_symbol: str   #: '' when no layout table


@dataclass
class IRFunction:
    """A compiled function body."""

    name: str
    param_regs: List[int]
    param_is_pointer: List[bool]
    num_regs: int
    frame_size: int
    instrs: List[Instr]
    ret_is_pointer: bool = False
    instrumented: bool = False
    local_objects: List[LocalObjectInfo] = field(default_factory=list)

    def dump(self) -> str:
        """Readable assembly listing (used by examples and docs)."""
        lines = [f"{self.name}: (regs={self.num_regs}, frame={self.frame_size})"]
        for index, ins in enumerate(self.instrs):
            parts = [f"  {index:4d}: {MNEMONICS[ins.op]:11s}"]
            if ins.dst >= 0:
                parts.append(f"r{ins.dst}")
            if ins.a >= 0:
                parts.append(f"r{ins.a}")
            if ins.b >= 0:
                parts.append(f"r{ins.b}")
            if ins.op in (Op.JMP, Op.BZ, Op.BNZ):
                parts.append(f"-> {ins.target}")
            if ins.name:
                parts.append(ins.name)
            if ins.imm:
                parts.append(f"#{ins.imm}")
            if ins.args:
                parts.append("(" + ", ".join(f"r{r}" for r in ins.args) + ")")
            lines.append(" ".join(parts))
        return "\n".join(lines)


@dataclass
class GlobalObject:
    """A global variable in the program image."""

    name: str
    size: int
    align: int
    init: bytes = b""
    #: True when some code takes the object's address (escapes), so the
    #: instrumentation must be able to register it (getptr pattern).
    needs_registration: bool = False
    layout_symbol: str = ""
    #: assigned by the linker
    address: int = 0
    #: extra bytes reserved after the object for appended metadata
    metadata_reserve: int = 0


@dataclass
class LayoutTableObject:
    """A compile-time generated layout table placed in the image."""

    symbol: str
    data: bytes
    address: int = 0


@dataclass
class IRProgram:
    """A complete compiled program, ready for the VM's loader."""

    functions: Dict[str, IRFunction]
    globals: Dict[str, GlobalObject]
    layout_tables: Dict[str, LayoutTableObject]
    entry: str = "main"
    instrumented: bool = False
    allocator: str = "glibc"
    #: which defense this image was built with: 'ifp'|'asan'|'mpx'|'none'
    defense: str = "none"
    #: True once :func:`assign_bin_codes` has run over this program
    codes_assigned: bool = False

    def function(self, name: str) -> IRFunction:
        func = self.functions.get(name)
        if func is None:
            raise CompileError(f"undefined function {name!r}")
        return func

    def total_instr_count(self) -> int:
        return sum(len(f.instrs) for f in self.functions.values())
