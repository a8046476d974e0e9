"""Closure-compiled fast execution engine (basic-block compilation).

The reference interpreter (:mod:`repro.vm.interp`) re-decodes every
instruction on every execution: a ~30-arm ``if/elif`` chain plus a dozen
``ins.*`` attribute loads per step.  This engine translates each
:class:`~repro.compiler.ir.IRFunction` **once** (lazily, on first call)
into specialized closures.  Straight-line runs of instructions are fused
into a single Python function compiled at translate time — operands,
immediates, resolved global addresses, and static cycle costs are inlined
as literals — so a fused block executes with *no* per-instruction
dispatch at all.  Every handler is such a block of 1..n instructions,
built by one compiler; instructions that transfer control to other
functions (``call``/``callptr``) are blocks of their own.  A block that
jumps back to a small loop header translates with a copy of the header
into a *loop region*, one handler that iterates inside itself.  A
register that never leaves its block lives in a Python local.  The hot
loop is just::

    while ip >= 0:
        ip = handlers[ip](st)

Each handler returns the next instruction index; ``ret`` returns -1.

Equivalence contract (enforced by ``tests/test_fastpath.py`` and the CI
differential gate): guest output, trap class/message, ``RunStats`` and
``IFPUnitStats`` are **byte-identical** to the reference interpreter for
every program.  The compiled code replicates the reference's accounting
exactly, including at trap time:

* ``executed``, the deferred stat counters (``st.c``) and the block's
  tallies of inline L1 hits and implicit checks are settled once per
  block, at its exit (each iteration, in a loop region); a raising
  instruction records its ordinal first, and a trap settles the counts
  through it from a literal table before it propagates, so any trap
  observes precisely the counts the reference's per-instruction
  accounting would have produced.  A call block settles before its
  call.
* A block checks the instruction budget once on entry against its
  static length.  If the budget could trip inside the block, it hands
  the activation (registers, bounds, frame) to the reference
  interpreter's loop at the block's leader, which raises
  :class:`StepBudgetExceeded` within the block's instructions, before
  any call.  The slot past a function's last instruction hands over
  too, so both traps, their messages, pcs, counts, tracer records and
  events come from the reference itself.
* Trap-time cycle corner cases are compensated inline (a poison/bounds-
  trapped access counts its instruction but not its cycle; a division by
  zero charges one cycle less than a completed division).

Runs with the wall-clock watchdog armed use the same fused tables: the
dispatch loop polls the deadline between handlers whenever the executed
count has crossed a multiple of 4096 since the previous handler started.
Blocks end before every branch target and at every call, so each loop
back-edge, call entry and call return passes a poll; a loop region
returns to the dispatch loop at its back-edge whenever its iteration
crossed such a multiple, so the same poll runs there.

Observed runs compile a *second variant* instead of falling back to the
reference interpreter.  The machine has one instrument slot,
``machine.obs`` (a :class:`~repro.obs.observer.Observer`, which may
carry an instruction tracer), and translations are keyed by
``(function name, armed)`` with ``armed = machine.obs is not None``:

* the disarmed variant is the zero-cost one: no guard, no emit, not
  even a dead branch — observability costs literally nothing;
* the armed variant compiles the observer's emits inline at the
  reference's exact sites: ``CheckEvent`` between the bounds predicate
  and the trap, ``PromoteEvent`` (with ``obs.site`` attribution
  bracketing the IFP-unit call), ``BoundsSpillEvent`` before the
  bounds-table access, and ``scheme_assigned`` after local-object
  registration.  When the observer carries a tracer at translate time,
  every instruction is also prefixed with a direct call to the tracer's
  bound ``record`` method, placed exactly where the reference calls it
  (on pre-execution register values; a block that hands over records
  nothing itself, and the reference records from the leader on).

Fault injectors need no translation support at all: they live in the
shared IFP unit / metadata port, which both engines call through the
same bound methods, and they affect no translation key.  The event
*stream* (kinds, payloads, order), the ``RunStats``, and trap forensics
are byte-identical to the reference in either variant; the only
latitude is that ``executed`` and the deferred counters lag by at most
one block (one region iteration) mid-block, which no event payload (and
hence no sink) can observe.

The one knowable divergence is the watchdog's poll point: the
reference polls at the instruction that reaches a multiple of 4096, this
engine at the next block boundary, and its timeout
names that block's leader pc and the instructions completed before it.
Which instruction a timeout lands on is host-timing dependent in either
engine, and no simulated counter differs.
"""

from __future__ import annotations

import builtins
import os
import re
import threading
import time
from bisect import bisect_left
from functools import reduce
from operator import attrgetter, or_
from types import CodeType, FunctionType
from typing import Dict, List, Optional, Tuple

from repro.cache import LINE_BYTES, LINE_SHIFT
from repro.errors import (
    BoundsTrap, LinkError, PoisonTrap, SimTrap, TemporalViolation,
)
from repro.compiler.ir import IRFunction, Op
from repro.ifp.bounds import Bounds
from repro.mem.layout import ADDRESS_MASK
from repro.obs.events import BoundsSpillEvent, CheckEvent, PromoteEvent
from repro.temporal import temporal_violation
from repro.vm.interp import (
    Interpreter, U64, _CALL_EXTRA, _DEADLINE_MASK, _DIV_EXTRA, _MUL_EXTRA,
    _SCHEME_NAMES, _signed,
)

#: clears both poison bits of a tagged pointer
_PCLR = ~(3 << 62)

#: the sign bit of a 64-bit register.  Registers hold values in
#: ``[0, 2**64)``, so the emitted text reads ``(x ^ SGN) - SGN`` for
#: ``_signed(x)`` and orders signed values by ``x ^ SGN``
_SGN = 1 << 63

# instruction classification for accounting
_SIMPLE = 0    #: cannot raise; fusable anywhere in a block
_RAISING = 1   #: may raise; stores its ordinal in the trap marker first
_TERM = 2      #: branch/ret; the last instruction of its block
_CALL = 3      #: call/callptr; a block of its own, settled before it

#: block formation reads only the ops: a block ends after a branch or
#: ``ret`` (the ``_TERM`` ops), and a call/callptr barrier is always a
#: block of its own
_TERM_OPS = frozenset((Op.BZ, Op.BNZ, Op.JMP, Op.RET))
_BARRIER_OPS = frozenset((Op.CALL, Op.CALLPTR))

#: the :class:`~repro.compiler.ir.Instr` fields the emitted text reads
#: (a call's ``args`` apart: a list, keyed as a tuple)
_INSTR_FIELDS = attrgetter("op", "dst", "a", "b", "imm", "size", "signed",
                           "name", "target", "code")

#: register-file slots: value register ``n`` is slot ``2n``, its bounds
#: register slot ``2n + 1``; for each op, the ``(field, bounds?)`` slots
#: its text reads, then those it writes (a negative field names no
#: register; a call also reads both slots of each argument).  Reads come
#: first: an op may write the register it reads.
_D, _A, _B = 1, 2, 3   # dst, a, b in _INSTR_FIELDS order
_VALUE = ((_D, 0), (_D, 1))
_SLOTS = {
    Op.LI: ((), _VALUE),
    Op.MV: (((_A, 0), (_A, 1)), _VALUE),
    Op.BIN: (((_A, 0), (_B, 0)), _VALUE),
    Op.BINI: (((_A, 0),), _VALUE),
    Op.TRUNC: (((_A, 0),), _VALUE),
    Op.LOAD: (((_A, 0), (_A, 1)), _VALUE),
    Op.STORE: (((_A, 0), (_A, 1), (_B, 0)), ()),
    Op.JMP: ((), ()),
    Op.BZ: (((_A, 0),), ()),
    Op.BNZ: (((_A, 0),), ()),
    Op.CALL: ((), _VALUE),
    Op.CALLPTR: (((_A, 0),), _VALUE),
    Op.RET: (((_A, 0), (_A, 1)), ()),
    Op.FRAME: ((), _VALUE),
    Op.GLOB: ((), _VALUE),
    Op.PROMOTE: (((_A, 0),), _VALUE),
    Op.IFPMAC: (((_A, 0), (_B, 0)), _VALUE),
    Op.LDBND: (((_A, 0),), ((_D, 1),)),
    Op.STBND: (((_A, 0), (_B, 1)), ()),
    Op.IFPBND: (((_A, 0), (_B, 0)), _VALUE),
    Op.IFPADD: (((_A, 0), (_B, 0), (_A, 1)), _VALUE),
    Op.IFPIDX: (((_A, 0), (_A, 1)), _VALUE),
    Op.IFPCHK: (((_A, 0), (_A, 1)), _VALUE),
    Op.IFPEXTRACT: (((_A, 0), (_A, 1)), _VALUE),
    Op.IFPMD: (((_A, 0),), _VALUE),
}

#: a loop header's non-branch ops: the base ops that cannot raise (a
#: ``bin`` but for div/rem, see :meth:`_FuncCompiler._loop_head`)
_HEAD_OPS = frozenset((Op.LI, Op.MV, Op.BIN, Op.BINI, Op.TRUNC, Op.FRAME))
_HEAD_MAX = 4

#: a register-file reference in emitted text
_SLOT_REF = re.compile(r"\b(?:regs|bnds)\[\d+\]")

#: for each switch :meth:`_FuncCompiler.switches` returns, in order, the
#: ops whose emitted text reads it; a block keys a switch only when it
#: holds one of them, so blocks that never read it are shared across
#: its values
_SWITCH_READERS = (
    frozenset((Op.LOAD, Op.STORE, Op.PROMOTE, Op.IFPCHK, Op.IFPMD,
               Op.LDBND, Op.STBND)),         # armed
    frozenset(Op),                           # tracer attached
    frozenset((Op.LOAD, Op.STORE, Op.PROMOTE)),  # temporal
    frozenset((Op.PROMOTE,)),                # promote as a move
    frozenset((Op.IFPIDX, Op.IFPADD)),       # local-offset geometry
    frozenset((Op.IFPIDX,)),                 # subheap subobject bits
    frozenset((Op.IFPMAC,)),                 # MAC latency
)
#: the same table by op: bit ``i`` is set when the op reads switch ``i``
_OP_READS = {op: sum(1 << i for i, readers in enumerate(_SWITCH_READERS)
                     if op in readers)
             for op in Op}

#: Process-wide code cache, one entry per distinct block: the key
#: :meth:`_FuncCompiler.blocks` gives it -> ``(names, values, bounds,
#: codes)``, the block's :meth:`~_FuncCompiler._summary` and its
#: ``(code, site ips)`` by block-local set.  First-in-first-out past
#: the cap.
_BLOCK_CACHE: Dict[tuple, tuple] = {}
_BLOCK_CACHE_CAP = 2048
#: serializes misses; ``repro.serve`` translates on a thread pool
_BLOCK_CACHE_LOCK = threading.Lock()


def _reset_block_cache_lock() -> None:
    # a forked repro.par worker must not inherit a lock held at fork
    global _BLOCK_CACHE_LOCK
    _BLOCK_CACHE_LOCK = threading.Lock()


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_reset_block_cache_lock)


class _Act:
    """Per-activation state threaded through the compiled handlers.

    ``c`` is the deferred-counter block, indexed as ``[base, promote,
    ifp_arith, bounds_ls, extra_cycles, loads, stores]``.  Total cycles
    at flush = ``c[0] + c[2] + c[3] + c[4]`` (every base / ifp-arith /
    bounds-ls instruction costs its baseline cycle; extras — cache
    accesses, mul/div/call latencies, promote results — accumulate in
    ``c[4]``).
    """

    __slots__ = ("regs", "bnds", "frame_base", "c", "ret", "retb")


#: value expressions for the single-cycle BIN/BINI variants, keyed by the
#: IR-assigned code (see repro.compiler.ir.BIN_CODES).  {a}/{b} are
#: replaced with operand expressions at translate time.  mul (2) and
#: div/rem (3/4) carry extra cycles and are emitted separately.
_BIN_EXPR = {
    0: "({a} + {b}) & U64",
    1: "({a} - {b}) & U64",
    5: "{a} & {b}",
    6: "{a} | {b}",
    7: "{a} ^ {b}",
    8: "({a} << ({b} & 63)) & U64",
    9: "{a} >> ({b} & 63)",
    10: "((({a} ^ SGN) - SGN) >> ({b} & 63)) & U64",
    11: "int({a} == {b})",
    12: "int({a} != {b})",
    13: "int({a} < {b})",
    14: "int({a} <= {b})",
    15: "(-{a}) & U64",
    16: "int({a} == 0)",
    17: "(~{a}) & U64",
    18: "int(({a} & ADDRESS_MASK) == ({b} & ADDRESS_MASK))",
    19: "int(({a} & ADDRESS_MASK) != ({b} & ADDRESS_MASK))",
    20: "int(({a} & ADDRESS_MASK) < ({b} & ADDRESS_MASK))",
    21: "int(({a} & ADDRESS_MASK) <= ({b} & ADDRESS_MASK))",
    22: "(({a} & ADDRESS_MASK) - ({b} & ADDRESS_MASK)) & U64",
}

#: signed overrides (only slt/sle interpret their operands as signed);
#: {b} is the operand already offset by SGN (see :meth:`_emit_bin`)
_BIN_EXPR_SIGNED = {
    13: "int(({a} ^ SGN) < {b})",
    14: "int(({a} ^ SGN) <= {b})",
}


class _Emitted:
    """Source fragment for one instruction."""

    __slots__ = ("counts", "lines", "kind", "ret_expr")

    def __init__(self, counts, lines, kind, ret_expr=None):
        self.counts = counts      #: static 7-tuple of st.c deltas
        self.lines = lines        #: statements (may embed their own indent)
        self.kind = kind
        self.ret_expr = ret_expr  #: next-ip expression for _TERM


_NO_COUNTS = (0, 0, 0, 0, 0, 0, 0)


def _flush(stats, c: List[int]) -> None:
    """Move the deferred counters ``c`` (see :class:`_Act`) into
    ``stats`` and zero them."""
    stats.base_instructions += c[0]
    stats.promote_instructions += c[1]
    stats.ifp_arith_instructions += c[2]
    stats.bounds_ls_instructions += c[3]
    stats.cycles += c[0] + c[2] + c[3] + c[4]
    stats.loads += c[5]
    stats.stores += c[6]
    c[:] = _NO_COUNTS


def _fallback(interp: "FastInterpreter", func: IRFunction):
    """``_fb(st, ip)``: run the rest of ``func``'s activation from ``ip``
    in the reference interpreter, then return as a ``ret`` block does.
    The stats are made current first, as at a call, so the reference
    loop continues from exactly the state it would have reached."""
    resume = interp._resume
    stats = interp.stats

    def _fb(st, ip):
        _flush(stats, st.c)
        st.ret, st.retb = resume(func, ip, st.regs, st.bnds, st.frame_base)
        return -1
    return _fb


class _FuncCompiler:
    """Compiles one IRFunction into its handler table for a
    FastInterpreter: one compiled block per leader (see
    :meth:`compile_fused`), used by every dispatch loop, deadline-armed
    or not.

    A block is emitted and compiled once per distinct key (see
    :meth:`blocks`) and block-local set per process
    (:meth:`compile_fused`): machines and
    functions with the same block share its code object, and every
    block of one translation runs in the one namespace ``ns``, where
    ``_fb`` is the function's hand-over to the reference interpreter.

    ``armed`` compiles the machine's observer emits inline, plus its
    tracer's ``record`` calls when it carries one; unarmed produces the
    variant with no emit code at all.
    """

    def __init__(self, interp: "FastInterpreter", func: IRFunction,
                 armed: bool = False):
        self.interp = interp
        self.func = func
        self.armed = armed
        obs = interp.machine.obs if armed else None
        self.trace = obs is not None and obs.tracer is not None
        #: ips whose ``S{ip}`` site tuple the block being emitted names
        self.sites: List[int] = []
        self.ns = {
            # FunctionType, unlike exec, does not add the builtins
            "__builtins__": builtins,
            "U64": U64, "ADDRESS_MASK": ADDRESS_MASK, "SGN": _SGN,
            "Bounds": Bounds, "SimTrap": SimTrap, "PoisonTrap": PoisonTrap,
            "BoundsTrap": BoundsTrap, "LinkError": LinkError,
            "I": interp, "stats": interp.stats, "_flush": _flush,
            "access": interp.hierarchy.access_cycles,
            "mem_load": interp.memory.load_int,
            "mem_store": interp.memory.store_int,
            "memory": interp.memory,
            "mac_compute": interp.ifp.mac.compute,
            "promote": interp.ifp.promote,
            "call_function": interp.call_function,
            "FBA": interp.functions_by_address,
            "FN": func.name, "LIMIT": interp._limit, "PCLR": _PCLR,
            "_fb": _fallback(interp, func),
        }
        # Inlined memory hierarchy: LOAD/STORE test the L1 set for a hit
        # (its MRU line first) and slice the page themselves, calling
        # ``access``/``mem_load``/``mem_store`` only off that path.  The
        # L1 line is also the granularity of ``IFPUnit.snoop_store``
        # (``SNOOP``, the memory's watcher), which snoops every store of
        # the machine (a line never straddles a page).
        memory, l1d, ifp = interp.memory, interp.hierarchy.l1d, interp.ifp
        self.ns.update(
            L1S=l1d._sets, L1ST=l1d.stats, SMASK=l1d._set_mask,
            HIT=interp.hierarchy._hit_cycles, PAGES=memory._pages,
            PSH=memory.page_size.bit_length() - 1,
            PMASK=memory.page_size - 1, PORT=ifp.port,
            DEPS=ifp._promote_deps, SNOOP=memory.watcher)
        # Temporal lock-and-key (repro.temporal): check lines are only
        # *emitted* when the machine's registry exists, so a temporal=off
        # machine compiles exactly the code it always did — zero cost.
        # The switch is part of the process-wide cache key
        # (:meth:`switches`), so machines with and without a registry
        # never share code.
        self.temporal = interp._temporal is not None
        if self.temporal:
            self.ns["tprobe"] = interp._temporal.probe
            self.ns["tviol"] = temporal_violation
            self.ns["TemporalViolation"] = TemporalViolation
        if self.trace:
            # the bound method, resolved once at translate time: a traced
            # instruction costs one direct call, no attribute walk
            self.ns["T"] = obs.tracer.record
            self.ns["INS"] = func.instrs
        if armed:
            self.ns["OB"] = obs
            # Observer.emit only forwards to its bus: bind the bus's emit
            # directly, skipping one call frame per event
            self.ns["OBE"] = obs.bus.emit
            self.ns["CK"] = CheckEvent
            self.ns["PE"] = PromoteEvent
            self.ns["BSE"] = BoundsSpillEvent
            self.ns["SCHEME"] = _SCHEME_NAMES

    def _site(self, ip: int) -> str:
        """Intern the ``(function, ip)`` site tuple as a translate-time
        constant; emit sites reference it by name instead of building a
        fresh tuple per event (:meth:`compile_fused` defines the
        name)."""
        if ip not in self.sites:
            self.sites.append(ip)
        return f"S{ip}"

    # -- per-instruction source ---------------------------------------------

    def emit(self, ins, ip: int) -> _Emitted:
        op = ins.op
        nip = ip + 1
        d, a, b, imm = ins.dst, ins.a, ins.b, ins.imm

        if op == Op.BIN or op == Op.BINI:
            return self._emit_bin(ins)
        if op == Op.LOAD or op == Op.STORE:
            kind = "load" if op == Op.LOAD else "store"
            lines = [
                f"_p = regs[{a}]",
                "if _p >> 62:",
                "    c[4] -= 1",
                f"    raise PoisonTrap('{kind} through poisoned pointer',"
                f" _p, pc=(FN, {ip}))",
                ("_ea = _p & ADDRESS_MASK" if imm == 0 else
                 f"_ea = ((_p & ADDRESS_MASK) + {imm}) & ADDRESS_MASK"),
                f"_bd = bnds[{a}]",
                "if _bd is not None:",
                "    _ic += 1",
            ]
            if self.armed:
                # the reference emits the CheckEvent between computing
                # the predicate and delivering the trap
                lines += [
                    f"    _ps = (_bd.lower <= _ea"
                    f" and _ea + {ins.size} <= _bd.upper)",
                    f"    OBE(CK({self._site(ip)}, '{kind}', False, _ea,"
                    f" {ins.size}, _ps))",
                    "    if not _ps:",
                ]
            else:
                lines += [
                    f"    if not (_bd.lower <= _ea"
                    f" and _ea + {ins.size} <= _bd.upper):",
                ]
            lines += [
                "        stats.check_failures += 1",
                "        c[4] -= 1",
                f"        raise BoundsTrap('{kind} out of bounds', _p,"
                f" _bd.lower, _bd.upper, pc=(FN, {ip}))",
            ]
            if self.temporal:
                # lock==key probe, exactly where the reference runs it:
                # after the bounds check passes, before the access is
                # charged (hence the c[4] -= 1 on the trap path — the
                # reference raises before its ``cycles += 1 + access``)
                lines += [
                    "    _tk = _bd.tkey",
                    "    if _tk:",
                    "        stats.temporal_checks += 1",
                    "        _te = tprobe(_bd.tbase)",
                    "        if _te is None or not _te[1]"
                    " or _te[0] != _tk:",
                    "            stats.temporal_failures += 1",
                    "            c[4] -= 1",
                    f"            raise tviol('{kind}', _p, _bd.tbase,"
                    f" _tk, _te, pc=(FN, {ip}))",
                ]
            size = ins.size
            if op == Op.LOAD:
                if size == 1 and not ins.signed:
                    value = "_pg[_o]"
                else:
                    value = (f"int.from_bytes(_pg[_o:_o + {size}],"
                             " 'little'" + (", signed=True) & U64"
                                            if ins.signed else ")"))
                lines += [f"_ln = _ea >> {LINE_SHIFT}"]
                lines += self._inline_access(
                    size, "_rh", f"regs[{d}] = {value}", [
                        f"c[4] += access(_ea, {size}, False)",
                        f"regs[{d}] = mem_load(_ea, {size},"
                        f" {bool(ins.signed)}) & U64",
                    ]) + [f"bnds[{d}] = None"]
                return _Emitted((1, 0, 0, 0, 0, 1, 0), lines, _RAISING)
            # the snoop runs before the write, as ``mem_store`` runs
            # it, whenever it can act: the stored line is the buffered
            # metadata line or a promote-cache dependency (off the
            # inline path ``mem_store`` runs it again, which changes
            # nothing: a second snoop finds nothing left to drop)
            effect = (f"_pg[_o] = regs[{b}] & 255" if size == 1 else
                      f"_pg[_o:_o + {size}] = (regs[{b}]"
                      f" & {(1 << size * 8) - 1}).to_bytes({size},"
                      " 'little')")
            lines += [
                f"_ln = _ea >> {LINE_SHIFT}",
                "if _ln in DEPS or PORT._buffered_line == _ln:",
                f"    SNOOP(_ea, {size})",
            ] + self._inline_access(size, "_wh", effect, [
                    f"c[4] += access(_ea, {size}, True)",
                    f"mem_store(_ea, regs[{b}], {size})",
                ])
            return _Emitted((1, 0, 0, 0, 0, 0, 1), lines, _RAISING)
        if op == Op.MV:
            return _Emitted((1, 0, 0, 0, 0, 0, 0),
                            [f"regs[{d}] = regs[{a}]",
                             f"bnds[{d}] = bnds[{a}]"], _SIMPLE)
        if op == Op.LI:
            return _Emitted((1, 0, 0, 0, 0, 0, 0),
                            [f"regs[{d}] = {imm & U64}",
                             f"bnds[{d}] = None"], _SIMPLE)
        if op == Op.BZ:
            return _Emitted((1, 0, 0, 0, 0, 0, 0), [], _TERM,
                            f"{ins.target} if regs[{a}] == 0 else {nip}")
        if op == Op.BNZ:
            return _Emitted((1, 0, 0, 0, 0, 0, 0), [], _TERM,
                            f"{ins.target} if regs[{a}] != 0 else {nip}")
        if op == Op.JMP:
            return _Emitted((1, 0, 0, 0, 0, 0, 0), [], _TERM,
                            f"{ins.target}")
        if op == Op.TRUNC:
            bits = ins.size * 8
            mask = (1 << bits) - 1
            if ins.signed:
                lines = [
                    f"_v = regs[{a}] & {mask}",
                    f"if _v & {1 << (bits - 1)}:",
                    f"    _v |= {U64 >> bits << bits}",
                    f"regs[{d}] = _v",
                    f"bnds[{d}] = None",
                ]
            else:
                lines = [f"regs[{d}] = regs[{a}] & {mask}",
                         f"bnds[{d}] = None"]
            return _Emitted((1, 0, 0, 0, 0, 0, 0), lines, _SIMPLE)
        if op == Op.FRAME:
            return _Emitted((1, 0, 0, 0, 0, 0, 0),
                            [f"regs[{d}] = st.frame_base + {imm}",
                             f"bnds[{d}] = None"], _SIMPLE)
        if op == Op.GLOB:
            address = self.interp.symbols.get(ins.name)
            if address is None:
                msg = f"undefined symbol {ins.name!r}"
                return _Emitted((1, 0, 0, 0, 0, 0, 0),
                                [f"raise LinkError({msg!r})"], _RAISING)
            return _Emitted((1, 0, 0, 0, 0, 0, 0),
                            [f"regs[{d}] = {address}",
                             f"bnds[{d}] = None"], _SIMPLE)
        if op == Op.CALL or op == Op.CALLPTR:
            return _Emitted((1, 0, 0, 0, _CALL_EXTRA, 0, 0),
                            self._emit_call(ins), _CALL)
        if op == Op.RET:
            if a >= 0:
                lines = [f"st.ret = regs[{a}]", f"st.retb = bnds[{a}]"]
            else:
                lines = ["st.ret = 0", "st.retb = None"]
            return _Emitted((1, 0, 0, 0, _CALL_EXTRA, 0, 0), lines,
                            _TERM, "-1")
        if op == Op.PROMOTE:
            if self.interp._no_promote:
                return _Emitted((0, 1, 0, 0, 1, 0, 0),
                                [f"regs[{d}] = regs[{a}]",
                                 f"bnds[{d}] = None"], _SIMPLE)
            if self.armed:
                # site attribution brackets the unit call so unit-level
                # events (metadata fetch, MAC, narrow) inherit it; if
                # promote raises, site stays set — as in the reference
                site = self._site(ip)
                if self.temporal:
                    promote_call = [
                        "try:",
                        "    _pr = promote(_pv)",
                        "except TemporalViolation as _tv:",
                        f"    _tv.pc = {site}",
                        "    raise",
                    ]
                else:
                    promote_call = ["_pr = promote(_pv)"]
                lines = [
                    f"_pv = regs[{a}]",
                    f"OB.site = {site}",
                ] + promote_call + [
                    "c[4] += _pr.cycles",
                    f"regs[{d}] = _pr.pointer",
                    f"bnds[{d}] = _pr.bounds",
                    f"OBE(PE({site}, _pv,"
                    " SCHEME[(_pv >> 60) & 3], _pr.outcome.value,"
                    " _pr.narrowed, _pr.cycles))",
                    "OB.site = None",
                ]
                return _Emitted((0, 1, 0, 0, 0, 0, 0), lines, _RAISING)
            if self.temporal:
                # stamp the promote site on a temporal trap, as the
                # reference does (no cycle compensation: the reference
                # raises before charging the promote's result cycles,
                # and a promote contributes no baseline cycle)
                lines = [
                    "try:",
                    f"    _pr = promote(regs[{a}])",
                    "except TemporalViolation as _tv:",
                    f"    _tv.pc = (FN, {ip})",
                    "    raise",
                ]
            else:
                lines = [f"_pr = promote(regs[{a}])"]
            lines += [
                "c[4] += _pr.cycles",
                f"regs[{d}] = _pr.pointer",
                f"bnds[{d}] = _pr.bounds",
            ]
            return _Emitted((0, 1, 0, 0, 0, 0, 0), lines, _RAISING)
        if op == Op.IFPADD:
            # a register delta needs no _signed: 2**64 vanishes mod 2**48
            delta = f"{imm}" if b < 0 else f"regs[{b}]"
            # ``Interpreter._ifpadd_tagged`` inline: every tag recomputes
            # its poison bits from the bounds, and local offset (scheme
            # 1) first re-encodes its granule offset, with the geometry
            # as literals (``IFPConfig.validate`` makes the offset and
            # subobject fields fill the 12-bit payload).  ``_gd`` is the
            # distance from the new pointer's granule to the metadata's.
            interp = self.interp
            lsb, gsh = interp._local_sub_bits, interp._granule_shift
            gclear = ADDRESS_MASK & ~interp._granule_mask
            lines = [
                f"_v = regs[{a}]",
                f"_ad = ((_v & ADDRESS_MASK) + {delta}) & ADDRESS_MASK",
                "_tg = _v >> 48",
                "if _tg == 0:",
                f"    regs[{d}] = _ad",
                "else:",
                "    _pz = _tg >> 14",
                "    _pl = _tg & 16383",
                "    if _pl >> 12 == 1:",
                f"        _gd = ((_v & {gclear}) - (_ad & {gclear})"
                f" + ((_pl & 4095) >> {lsb} << {gsh}))",
                f"        if 0 <= _gd < {1 << interp._local_off_bits << gsh}:",
                f"            _pl = {1 << 12} | (_gd >> {gsh} << {lsb})"
                f" | (_tg & {(1 << lsb) - 1})",
                "        else:",
                "            _pz = 2",
                f"    if _pz < 2 and (_bd := bnds[{a}]) is not None:",
                "        _pz = 0 if _bd.lower <= _ad < _bd.upper else 1",
                f"    regs[{d}] = (_pz << 62) | (_pl << 48) | _ad",
                f"bnds[{d}] = bnds[{a}]",
            ]
            return _Emitted((0, 0, 1, 0, 0, 0, 0), lines, _SIMPLE)
        if op == Op.IFPBND:
            size = f"{imm}" if b < 0 else f"regs[{b}]"
            lines = [
                f"_v = regs[{a}]",
                f"_sz = {size}",
                "_ad = _v & ADDRESS_MASK",
                f"regs[{d}] = _v",
                f"bnds[{d}] = Bounds(_ad, _ad + _sz)",
            ]
            return _Emitted((0, 0, 1, 0, 0, 0, 0), lines, _SIMPLE)
        if op == Op.IFPIDX:
            lb = self.interp._local_sub_bits
            sb = self.interp._subheap_sub_bits
            lines = [
                f"_v = regs[{a}]",
                "_s = (_v >> 60) & 3",
                f"_w = {lb} if _s == 1 else {sb} if _s == 2 else 0",
                "if _w:",
                "    _m = (1 << _w) - 1",
                f"    _f = (((_v >> 48) & _m) + {imm}) & _m",
                "    _v = (_v & ~(_m << 48)) | (_f << 48)",
                f"regs[{d}] = _v",
                f"bnds[{d}] = bnds[{a}]",
            ]
            return _Emitted((0, 0, 1, 0, 0, 0, 0), lines, _SIMPLE)
        if op == Op.IFPCHK:
            lines = [
                f"_v = regs[{a}]",
                f"_bd = bnds[{a}]",
                "if _bd is not None:",
                "    _ad = _v & ADDRESS_MASK",
                "    _ic += 1",
            ]
            if self.armed:
                lines += [
                    f"    _ps = (_bd.lower <= _ad"
                    f" and _ad + {imm} <= _bd.upper)",
                    f"    OBE(CK({self._site(ip)}, 'ifpchk', True, _ad,"
                    f" {imm}, _ps))",
                    "    if not _ps:",
                ]
            else:
                lines += [
                    f"    if not (_bd.lower <= _ad"
                    f" and _ad + {imm} <= _bd.upper):",
                ]
            lines += [
                "        stats.check_failures += 1",
                f"        _v = (_v & PCLR) | {1 << 62}",
                f"regs[{d}] = _v",
                f"bnds[{d}] = _bd",
            ]
            return _Emitted((0, 0, 1, 0, 0, 0, 0), lines, _SIMPLE)
        if op == Op.IFPEXTRACT:
            lines = [
                f"_v = regs[{a}]",
                f"_bd = bnds[{a}]",
                "if _bd is not None:",
                "    _ad = _v & ADDRESS_MASK",
                "    _v = (_v & PCLR) | ((0 if _bd.lower <= _ad"
                " < _bd.upper else 1) << 62)",
                f"regs[{d}] = _v",
                f"bnds[{d}] = None",
            ]
            return _Emitted((0, 0, 1, 0, 0, 0, 0), lines, _SIMPLE)
        if op == Op.IFPMD:
            lines = [f"regs[{d}] = (regs[{a}] & ADDRESS_MASK)"
                     f" | {imm << 48}",
                     f"bnds[{d}] = None"]
            if ins.name:
                lines.append("stats.local_objects += 1")
                if ins.name == "local+lt":
                    lines.append("stats.local_objects_lt += 1")
                if self.armed:
                    lines += [
                        f"OB.site = {self._site(ip)}",
                        f"OB.scheme_assigned('local', regs[{d}], 0,"
                        f" {ins.name == 'local+lt'})",
                        "OB.site = None",
                    ]
            return _Emitted((0, 0, 1, 0, 0, 0, 0), lines, _SIMPLE)
        if op == Op.IFPMAC:
            mac_cycles = self.interp.machine.config.ifp.mac_cycles
            lines = [
                f"regs[{d}] = mac_compute((regs[{a}] & ADDRESS_MASK,"
                f" {imm}, regs[{b}]))",
                f"bnds[{d}] = None",
            ]
            return _Emitted((0, 0, 1, 0, mac_cycles, 0, 0), lines,
                            _SIMPLE)
        if op == Op.LDBND:
            lines = ([f"OBE(BSE({self._site(ip)}, False))"]
                     if self.armed else []) + [
                f"_ea = (regs[{a}] & ADDRESS_MASK) + {imm}",
                "c[4] += access(_ea, 16, False)",
                "if not memory.is_mapped(_ea, 16):",
                "    memory.map_range(_ea, 16)",
                "_lo = memory.load_u64(_ea)",
                "_hi = memory.load_u64(_ea + 8)",
                f"bnds[{d}] = None if _lo == 0 and _hi == 0"
                " else Bounds(_lo, _hi)",
            ]
            return _Emitted((0, 0, 0, 1, 0, 0, 0), lines, _RAISING)
        if op == Op.STBND:
            lines = ([f"OBE(BSE({self._site(ip)}, True))"]
                     if self.armed else []) + [
                f"_ea = (regs[{a}] & ADDRESS_MASK) + {imm}",
                "c[4] += access(_ea, 16, True)",
                "if not memory.is_mapped(_ea, 16):",
                "    memory.map_range(_ea, 16)",
                f"_bd = bnds[{b}]",
                "if _bd is None:",
                "    memory.store_u64(_ea, 0)",
                "    memory.store_u64(_ea + 8, 0)",
                "else:",
                "    memory.store_u64(_ea, _bd.lower)",
                "    memory.store_u64(_ea + 8, _bd.upper)",
            ]
            return _Emitted((0, 0, 0, 1, 0, 0, 0), lines, _RAISING)
        # Unreachable from compiled programs; message rendered now so it
        # matches what the reference would produce at run time.
        msg = f"unimplemented opcode {op}"
        return _Emitted((0, 0, 0, 0, 0, 0, 0),
                        [f"raise SimTrap({msg!r})"], _RAISING)

    @staticmethod
    def _inline_access(size: int, tally: str, effect: str,
                       calls: List[str]) -> List[str]:
        """Lines for an access to ``_ea`` with the L1 hit and the page
        access inline: when the access stays inside the L1 line the
        caller has set in ``_ln``, the page is mapped and ``_ln`` is
        resident in its set, count the hit in the block's ``tally``
        (settled into the L1 statistics and its ``HIT`` cycles with the
        block's counts) and run ``effect`` on page
        ``_pg`` at offset ``_o``; otherwise run ``calls``, the
        out-of-line path.  The MRU line is tested first, so its hit
        costs no more than before; a hit on any other way moves the line
        to MRU, as ``Cache._touch_line`` does."""
        within = (f" and _ea & {LINE_BYTES - 1} <= {LINE_BYTES - size}"
                  if size > 1 else "")
        rest = (f"{within}"
                " and (_pg := PAGES.get(_ea >> PSH)) is not None")
        hit = [
            f"    {tally} += 1",
            "    _o = _ea & PMASK",
            f"    {effect}",
        ]
        return [
            "_cs = L1S[_ln & SMASK]",
            f"if _cs and _cs[-1] == _ln{rest}:",
        ] + hit + [
            f"elif _ln in _cs{rest}:",
            "    _cs.remove(_ln)",
            "    _cs.append(_ln)",
        ] + hit + ["else:"] + [f"    {line}" for line in calls]

    def _emit_bin(self, ins) -> _Emitted:
        d, a = ins.dst, ins.a
        is_imm = ins.op == Op.BINI
        code = ins.code
        aex = f"regs[{a}]"
        bex = f"({ins.imm})" if is_imm else f"regs[{ins.b}]"
        if code == 2:
            return _Emitted(
                (1, 0, 0, 0, _MUL_EXTRA + 1, 0, 0),
                [f"regs[{d}] = ({aex} * {bex}) & U64",
                 f"bnds[{d}] = None"], _SIMPLE)
        if code == 3 or code == 4:
            lines = [
                f"_b = {bex}",
                "if _b == 0:",
                "    c[4] -= 1",
                "    raise SimTrap('division by zero')",
                f"_a = {aex}",
            ]
            if ins.signed:
                lines += ["_sa = (_a ^ SGN) - SGN",
                          f"_sb = {_signed(ins.imm)}" if is_imm
                          else "_sb = (_b ^ SGN) - SGN"]
            else:
                lines += ["_sa = _a", "_sb = _b"]
            lines += [
                "_q = abs(_sa) // abs(_sb)",
                "if (_sa < 0) != (_sb < 0):",
                "    _q = -_q",
                (f"regs[{d}] = _q & U64" if code == 3 else
                 f"regs[{d}] = (_sa - _q * _sb) & U64"),
                f"bnds[{d}] = None",
            ]
            return _Emitted((1, 0, 0, 0, _DIV_EXTRA + 1, 0, 0), lines,
                            _RAISING)
        expr = _BIN_EXPR.get(code)
        if ins.signed and code in _BIN_EXPR_SIGNED:
            expr = _BIN_EXPR_SIGNED[code]
            # an immediate, which may be a negative int, is folded
            # through _signed here
            bex = (f"{_signed(ins.imm) + _SGN}" if is_imm
                   else f"({bex} ^ SGN)")
        if expr is None:
            # The reference raises before charging the instruction's
            # trailing cycle; compensate the baseline cycle c[0] implies.
            return _Emitted((1, 0, 0, 0, 0, 0, 0),
                            ["c[4] -= 1",
                             f"raise SimTrap('bad BIN code {code}')"],
                            _RAISING)
        if is_imm and code in (8, 9, 10):
            bex = f"{ins.imm & 63}"  # constant-fold the shift count
        return _Emitted((1, 0, 0, 0, 0, 0, 0),
                        [f"regs[{d}] = {expr.format(a=aex, b=bex)}",
                         f"bnds[{d}] = None"], _SIMPLE)

    def _emit_call(self, ins) -> List[str]:
        """Lines for a call/callptr barrier: flush, then dispatch."""
        args = ", ".join(f"regs[{r}]" for r in ins.args)
        bounds = ", ".join(f"bnds[{r}]" for r in ins.args)
        lines = [
            f"_as = [{args}]",
            f"_bs = [{bounds}]",
        ]
        if ins.op == Op.CALL:
            target = f"{ins.name!r}"
        else:
            lines += [
                f"_ad = regs[{ins.a}] & ADDRESS_MASK",
                "_nm = FBA.get(_ad)",
                "if _nm is None:",
                "    raise SimTrap('indirect call to non-function"
                " address 0x%x' % _ad)",
            ]
            target = "_nm"
        # Flush the deferred counters before recursing so nested runs
        # see consistent global stats (the reference does the same).
        lines += [
            "_flush(stats, c)",
            f"_v, _rb = call_function({target}, _as, _bs)",
        ]
        if ins.dst >= 0:
            lines += [f"regs[{ins.dst}] = _v", f"bnds[{ins.dst}] = _rb"]
        return lines

    # -- block assembly ------------------------------------------------------

    @staticmethod
    def _compile(lines: List[str]) -> CodeType:
        """The code object of ``def _b(st):`` with body ``lines``."""
        src = "def _b(st):\n" + "".join(f"    {line}\n" for line in lines)
        module = compile(src, "<string>", "exec")
        return next(const for const in module.co_consts
                    if isinstance(const, CodeType))

    @staticmethod
    def _localize(emitted: list, local: tuple) -> list:
        """``emitted`` with the block-local slots ``local`` (see
        :meth:`_summary`) taken out of the register file: each becomes
        the Python local ``r{n}`` (value) or ``b{n}`` (bounds)."""
        values, bounds = local
        if not values | bounds:
            return emitted
        names = {f"regs[{n}]": f"r{n}" for n in _bits(values)}
        names.update({f"bnds[{n}]": f"b{n}" for n in _bits(bounds)})

        def rename(match):
            return names.get(match.group(0), match.group(0))

        out = []
        for ip, em in emitted:
            lines = [_SLOT_REF.sub(rename, line) for line in em.lines]
            ret = em.ret_expr and _SLOT_REF.sub(rename, em.ret_expr)
            out.append((ip, _Emitted(em.counts, lines, em.kind, ret)))
        return out

    @staticmethod
    def _settle(executed: str, counts, tallies) -> List[str]:
        """Lines that make ``I.executed``, the deferred counters ``c``
        and the statistics a block tallies in locals current:
        ``executed`` is a source expression and each of the seven
        ``counts`` an int or one (0 or '' adds nothing).  The tallies
        are ``_rh``/``_wh``,
        the block's inline L1 read/write hits (each also costs ``HIT``
        cycles), and ``_ic``, its implicit checks.  The one settle
        routine of every block: at its exit, at a trap (from the trap
        table), and before a call."""
        lines = [f"I.executed = {executed}"]
        hits = " + ".join(t for t in ("_rh", "_wh") if t in tallies)
        for i, n in enumerate(counts):
            if i == 4 and hits:
                n = f"{n} + ({hits}) * HIT" if n else f"({hits}) * HIT"
            if n:
                lines.append(f"c[{i}] += {n}")
        for tally, total in (("_rh", "L1ST.read_hits"),
                             ("_wh", "L1ST.write_hits"),
                             ("_ic", "stats.implicit_checks")):
            if tally in tallies:
                lines.append(f"{total} += {tally}")
        return lines

    def _body(self, emitted: list) -> Tuple[List[str], List[str], list]:
        """``(lines, tallies, counts)`` for the instructions
        ``emitted``: their statements in order, after zeroing the
        tallies they use (see :meth:`_settle`), those tallies, and the
        sum of their static counts.

        Each raising instruction first stores its ordinal in the marker
        ``_n``.  A ``try`` spans the first marker to the end of the last
        raising instruction; its handler settles the counts through the
        marked instruction from a literal table and re-raises, so a trap
        observes exactly the reference's counts (and costs nothing when
        nothing raises).  A terminator before the end (a loop region's
        ``jmp``) adds only its counts and tracer record."""
        lines: List[str] = []
        table = []
        first = last = 0
        counts = [0] * 7
        for index, (ip, em) in enumerate(emitted):
            body = em.lines
            if self.trace:
                # in program order, before the instruction's own effect
                # (and before any statement of it that can raise)
                body = [f"T(FN, {ip}, INS[{ip}], regs)"] + body
            counts = [x + y for x, y in zip(counts, em.counts)]
            if em.kind == _RAISING:
                if not table:
                    first = len(lines)
                lines.append(f"_n = {len(table)}")
                table.append((index + 1, *counts))
                lines += body
                last = len(lines)
            else:
                lines += body
        text = "\n".join(lines)
        tallies = [t for t in ("_rh", "_wh", "_ic")
                   if re.search(rf"\b{t}\b", text)]
        if table:
            settle = self._settle(
                "e0 + _t[0]", [f"_t[{i}]" if any(row[i] for row in table)
                               else "" for i in range(1, 8)], tallies)
            lines[first:last] = (
                ["try:"] + [f"    {line}" for line in lines[first:last]]
                + ["except BaseException:", f"    _t = {tuple(table)}[_n]"]
                + [f"    {line}" for line in settle] + ["    raise"])
        if tallies:
            lines.insert(0, " = ".join(tallies) + " = 0")
        return lines, tallies, counts

    @staticmethod
    def _loads(lines: List[str]) -> List[str]:
        """The register-file loads ``lines`` need."""
        text = "\n".join(lines)
        return [f"{name} = st.{name}" for name in ("regs", "bnds")
                if re.search(rf"\b{name}\b", text)] + ["c = st.c"]

    def compile_block(self, start: int, emitted: list,
                      head: Optional[list] = None) -> CodeType:
        """Compile the block starting at ``start`` into one code object.

        ``emitted`` is [(ip, _Emitted), ...] in order; the last entry may
        be a terminator.  A block settles its counts once (see
        :meth:`_settle`): at its exit, or at a trap (see :meth:`_body`).
        A call barrier is a block of its own and settles before its call
        (builtins read ``stats.cycles``).  When the instruction budget
        could trip inside the block, the function hands the activation
        to the reference interpreter at ``start``, which raises the
        budget trap at the exact instruction.  The empty block (the slot
        past the function's last instruction) always hands over, and the
        reference raises its fell-off-the-end trap.

        ``head``, the emitted instructions of a loop header (see
        :meth:`_loop_head`), makes the block a loop region instead: the
        block, then the header, repeated inside the one handler while
        the header branches back to ``start``.  Each iteration checks the
        budget and settles its counts; an iteration that crossed a
        multiple of 4096 instructions returns ``start`` to the dispatch
        loop, whose watchdog poll (when armed) then runs as before any
        handler.
        """
        if not emitted:
            return self._compile([f"return _fb(st, {start})"])
        if head is not None:
            return self._compile(self._region(start, emitted, head))
        k = len(emitted)
        lines, tallies, counts = self._body(emitted)
        settle = self._settle(f"e0 + {k}", counts, tallies)
        last = emitted[-1][1]
        if last.kind == _CALL:
            lines, settle = settle + lines, []
        ret = (last.ret_expr if last.kind == _TERM
               else emitted[-1][0] + 1)
        lines += settle + [f"return {ret}"]
        return self._compile(
            ["e0 = I.executed",
             f"if e0 + {k} > LIMIT:",
             f"    return _fb(st, {start})"]
            + self._loads(lines) + lines)

    def _region(self, start: int, emitted: list,
                head: list) -> List[str]:
        """The lines of a loop region (see :meth:`compile_block`)."""
        k = len(emitted) + len(head)
        lines, tallies, counts = self._body(emitted + head)
        loop = (
            [f"if e0 + {k} > LIMIT:",
             f"    return _fb(st, {start})"]
            + lines + [f"e0 += {k}"] + self._settle("e0", counts, tallies)
            + [f"_nx = {head[-1][1].ret_expr}",
               f"if _nx != {start} or (e0 & {_DEADLINE_MASK}) < {k}:",
               "    return _nx"])
        return (self._loads(loop) + ["e0 = I.executed", "while True:"]
                + [f"    {line}" for line in loop])

    # -- function-level translation ------------------------------------------

    def switches(self) -> tuple:
        """The translate-time switches :meth:`__init__` derives from the
        machine, each of which changes the text of the ops
        :data:`_SWITCH_READERS` names."""
        interp = self.interp
        return (self.armed, self.trace, self.temporal, interp._no_promote,
                (interp._local_sub_bits, interp._granule_mask + 1,
                 interp._local_off_bits),
                interp._subheap_sub_bits,
                interp.machine.config.ifp.mac_cycles)

    @staticmethod
    def _loop_head(fields: list, span: tuple, leader: int) -> bool:
        """Whether the block ``span`` heads a loop region whose body is
        the block at ``leader`` (which ends ``jmp`` to it): at most
        :data:`_HEAD_MAX` instructions, none of which can raise, the last
        a ``bz``/``bnz`` with ``leader`` as one of its successors."""
        start, end = span
        if end - start > _HEAD_MAX or end > len(fields):
            return False
        branch = fields[end - 1]
        if branch[0] not in (Op.BZ, Op.BNZ) or leader not in (branch[8],
                                                              end):
            return False
        for f in fields[start:end - 1]:
            if f[0] not in _HEAD_OPS or f[0] in (Op.BIN, Op.BINI) and (
                    f[9] != 2 and f[9] not in _BIN_EXPR):
                return False
        return True

    @staticmethod
    def _summary(fields: tuple, head: tuple = ()) -> tuple:
        """``(names, values, bounds)`` for a block's operand fields
        ``fields`` and, for a loop region, its header's ``head``, each a
        mask with bit ``n`` for register ``n``.  ``names``: the
        registers the block's fields (``dst``/``a``/``b``, call
        arguments) name; ``values`` and ``bounds``: the registers whose
        value or bounds slot (see :data:`_SLOTS`) the block, or the
        header, writes there before any read of it.

        In a function where no other block names the register, such a
        slot is block-local: it is dead at every block entry, so it may
        live in a Python local.  Neither the budget hand-over
        ``_fb(st, leader)`` nor the reference loop it resumes reads it,
        and nothing reads a register file after a trap."""
        names = 0
        for f in fields:
            for n in f[1:4] + (f[10] if f[0] in _BARRIER_OPS else ()):
                if n >= 0:
                    names |= 1 << n
        values = bounds = 0
        for part in (fields, head):
            first: Dict[int, int] = {}  # slot -> written first?
            for f in part:
                reads, writes = _SLOTS[f[0]]
                for field, bound in reads:
                    first.setdefault(f[field] << 1 | bound, 0)
                if f[0] in _BARRIER_OPS:
                    for n in f[10]:
                        first.setdefault(n << 1, 0)
                        first.setdefault(n << 1 | 1, 0)
                for field, bound in writes:
                    first.setdefault(f[field] << 1 | bound, 1)
            for slot, write in first.items():
                if write and slot >= 0:
                    if slot & 1:
                        bounds |= 1 << (slot >> 1)
                    else:
                        values |= 1 << (slot >> 1)
        return names, values, bounds

    def blocks(self) -> list:
        """``(leader, end, key, head)`` for every block, then for the
        end-of-function slot ``(count, count + 1)``, which holds no
        instruction.  A barrier stands alone; any other block stops
        before a barrier or a branch target, and after a terminator.
        ``head`` is ``None``, or for a block that ends ``jmp`` to a loop
        header (see :meth:`_loop_head`), that header's ``(leader,
        end)``: the block translates as a loop region.

        The key names every input the block's text depends on but its
        block-local slots (see :meth:`compile_fused`): the switches its
        ops read (the others are keyed as ``None``), the leader ip (the
        text names its ips), the instruction contents, with each call's
        argument registers and the address each ``GLOB`` inlines; a loop
        region's key pairs the block's key with its header's.  The
        function name is left out: the text refers to it as ``FN``."""
        symbols = self.interp.symbols
        instrs = self.func.instrs
        count = len(instrs)
        fields = list(map(_INSTR_FIELDS, instrs))
        reads = []
        cuts = {0, count}
        jumps = []
        for ip, f in enumerate(fields):
            op = f[0]
            reads.append(_OP_READS[op])
            if op in _TERM_OPS:
                cuts.add(ip + 1)
                if op != Op.RET:
                    cuts.add(f[8])
                    if op == Op.JMP:
                        jumps.append(ip)
            elif op in _BARRIER_OPS:
                cuts.update((ip, ip + 1))
                fields[ip] += (tuple(instrs[ip].args),)
            elif op == Op.GLOB:
                fields[ip] += (symbols.get(instrs[ip].name),)
        cuts = sorted(cuts)
        cuts.append(count + 1)
        switches = self.switches()
        keyed = {}  # read mask -> the switches keyed under it
        keys = []
        for start, end in zip(cuts, cuts[1:]):
            mask = reduce(or_, reads[start:end], 0)
            read = keyed.get(mask)
            if read is None:
                read = keyed[mask] = tuple([
                    value if mask >> i & 1 else None
                    for i, value in enumerate(switches)])
            keys.append((read, start, tuple(fields[start:end])))
        blocks = list(zip(cuts, cuts[1:], keys, [None] * len(keys)))
        for ip in jumps:
            # the header's block and the jumping one
            at, index = bisect_left(cuts, fields[ip][8]), bisect_left(
                cuts, ip + 1) - 1
            start, end, key, _ = blocks[index]
            head = cuts[at], cuts[at + 1]
            if self._loop_head(fields, head, start):
                blocks[index] = start, end, (key, keys[at]), head
        return blocks

    def compile_fused(self) -> list:
        """One handler per block leader, plus the end-of-function slot.

        Each block's code comes from the process-wide
        :data:`_BLOCK_CACHE` and is emitted and compiled only on a miss,
        so identical blocks of different functions share one code
        object.  An entry holds the block's :meth:`_summary` and its
        code for each block-local set it met: a slot of the summary's
        ``values``/``bounds`` whose register no other block of the
        function names.  The key of :meth:`blocks` and that set key the
        code together; with a tracer attached, which reads ``regs``
        before every instruction, no slot is block-local.  Sound because
        every machine-specific binding lives in ``ns``, never in the
        code, and the keys name everything else the text depends on."""
        ns = self.ns
        name = self.func.name
        # non-leader slots inside a block are never entered (blocks stop
        # before branch targets); fill them for debuggability
        unreachable = _make_unreachable(name)
        handlers: list = []
        blocks = self.blocks()
        entries = []
        once = shared = 0  # registers one, and more than one, block names
        for start, end, key, head in blocks:
            entry = _BLOCK_CACHE.get(key)  # the hit path takes no lock
            if entry is None:
                with _BLOCK_CACHE_LOCK:
                    entry = _BLOCK_CACHE.get(key)
                    if entry is None:
                        entry = (self._summary(key[0][2], key[1][2])
                                 if head else self._summary(key[2])) + ({},)
                        while len(_BLOCK_CACHE) >= _BLOCK_CACHE_CAP:
                            del _BLOCK_CACHE[next(iter(_BLOCK_CACHE))]
                        _BLOCK_CACHE[key] = entry
            entries.append(entry)
            shared |= once & entry[0]
            once |= entry[0]
        keep = 0 if self.trace else ~shared
        for (start, end, _, head), (_, values, bounds, codes) in zip(
                blocks, entries):
            local = (values & keep, bounds & keep)
            code = codes.get(local)
            if code is None:
                with _BLOCK_CACHE_LOCK:
                    code = codes.get(local)
                    if code is None:
                        code = codes[local] = self._compile_entry(
                            start, end, local, head)
            code, sites = code
            for ip in sites:
                ns[f"S{ip}"] = (name, ip)
            handlers.append(FunctionType(code, ns))
            handlers += [unreachable] * (end - start - 1)
        return handlers

    def _emit_block(self, start: int, end: int, local: tuple) -> list:
        """``[(ip, _Emitted)]`` for the instructions ``[start, end)``,
        the block-local slots ``local`` taken out of the register
        file."""
        return self._localize(
            [(ip, self.emit(ins, ip)) for ip, ins in
             enumerate(self.func.instrs[start:end], start)], local)

    def _compile_entry(self, start: int, end: int, local: tuple,
                       head: Optional[tuple]) -> tuple:
        """Emit and compile the block ``[start, end)`` (a loop region
        with the header ``head``, see :meth:`blocks`) with the
        block-local slots ``local``, ``(values, bounds)`` masks (see
        :meth:`_summary`): ``(code, the ips whose site tuple it
        names)``."""
        self.sites = []
        if head is not None:
            head = self._emit_block(*head, local)
        code = self.compile_block(
            start, self._emit_block(start, end, local), head)
        return code, tuple(self.sites)


def _bits(mask: int):
    """The indices of the bits set in ``mask``."""
    n = 0
    while mask:
        if mask & 1:
            yield n
        mask >>= 1
        n += 1


def _make_unreachable(name: str):
    def _h(st):  # pragma: no cover - blocks never start mid-run
        raise AssertionError(f"fastpath entered mid-block in {name}")
    return _h


class FastInterpreter(Interpreter):
    """Block-compiling engine; drop-in replacement for the reference.

    Inherits the call-entry / builtin / deadline plumbing; only
    ``_run`` is replaced.  Translated ``ifpadd`` maintains every
    scheme's tag inline, local offset's granule re-encode included;
    the reference keeps ``_ifpadd_tagged`` as the oracle of that text.
    """

    def __init__(self, machine):
        super().__init__(machine)
        #: (function name, armed) -> fused handler list
        self._fused: Dict[Tuple[str, bool], list] = {}

    def release(self) -> None:
        """Take the names that point back at this engine out of every
        translation's namespace, so the engine, its tables and its
        machine free by reference counting.  The tables stay readable
        (their code, ``FN`` and site tuples) but no longer run."""
        for handlers in self._fused.values():
            ns = handlers[0].__globals__
            del ns["I"], ns["call_function"], ns["_fb"]

    def _translate_fused(self, func: IRFunction, armed: bool = False) -> list:
        handlers = _FuncCompiler(self, func, armed).compile_fused()
        self._fused[(func.name, armed)] = handlers
        return handlers

    def _translate_singles(self, func: IRFunction,
                           armed: bool = False) -> None:
        """Nothing calls this or :meth:`_translate_super`: the fused
        table is the only compiled tier.  The names stay for per-kind
        translation profilers that wrap every ``_translate_<kind>``
        method (they count 0 here)."""
        return None

    def _translate_super(self, func: IRFunction) -> None:
        """See :meth:`_translate_singles`."""
        return None

    def _run(self, func: IRFunction, args: List[int],
             arg_bounds: List[Optional[Bounds]]
             ) -> Tuple[int, Optional[Bounds]]:
        machine = self.machine
        frame_base = machine.push_frame(func.frame_size)
        st = _Act()
        st.regs = regs = [0] * func.num_regs
        st.bnds = bnds = [None] * func.num_regs
        st.frame_base = frame_base
        st.c = c = [0, 0, 0, 0, 0, 0, 0]
        st.ret = 0
        st.retb = None
        for index, preg in enumerate(func.param_regs):
            if index < len(args):
                regs[preg] = args[index] & U64
                bnds[preg] = arg_bounds[index] \
                    if index < len(arg_bounds) else None
        stats = self.stats
        name = func.name
        armed = machine.obs is not None
        ip = 0
        try:
            deadline = self._deadline
            handlers = self._fused.get((name, armed)) \
                or self._translate_fused(func, armed)
            if deadline:
                # Watchdog armed: poll the deadline before a handler when
                # the previous one crossed a multiple of 4096.  Starting
                # e0 one below the entry count polls on entry when the
                # caller's call instruction itself reached a multiple,
                # so recursion through call-first functions is polled.
                monotonic = time.monotonic
                e0 = max(self.executed - 1, 0)
                while ip >= 0:
                    e = self.executed
                    if e > e0 | _DEADLINE_MASK and monotonic() > deadline:
                        raise self._timeout(e, name, ip)
                    e0 = e
                    ip = handlers[ip](st)
            else:
                while ip >= 0:
                    ip = handlers[ip](st)
            return st.ret, st.retb
        finally:
            _flush(stats, c)
            machine.pop_frame(func.frame_size)
