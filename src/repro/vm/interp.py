"""The IR interpreter: executes compiled functions on the machine.

Semantics notes:

* Register values are unsigned 64-bit integers (two's-complement
  representation for signed quantities); pointer tags live in the top 16
  bits exactly as on the modelled hardware.
* Every load/store checks the base pointer's *poison bits* (nonzero →
  trap), then performs the *implicit bounds check* when the address
  operand's IFPR carries bounds — the paper's zero-instruction-overhead
  checking path.
* ``promote`` delegates to the IFP unit; under the evaluation's
  "no-promote" configuration it degenerates to a NOP of the same
  instruction count.
* Cycle costs: 1 cycle baseline per instruction; memory operations add the
  cache-hierarchy cost; multiplies/divides and the IFP unit's multi-cycle
  operations add their extra latencies.
"""

from __future__ import annotations

import time
from typing import List, Optional, Tuple

from repro.errors import (
    BoundsTrap, LinkError, PoisonTrap, SimTrap, StepBudgetExceeded,
    TemporalViolation, WorkloadTimeout,
)
from repro.compiler.ir import IRFunction, Op
from repro.ifp.bounds import Bounds
from repro.mem.layout import ADDRESS_MASK
from repro.obs.events import BoundsSpillEvent, CheckEvent, PromoteEvent
from repro.temporal import temporal_violation

_SCHEME_NAMES = ("LEGACY", "LOCAL_OFFSET", "SUBHEAP", "GLOBAL_TABLE")

U64 = (1 << 64) - 1
_SIGN = 1 << 63

_MUL_EXTRA = 2   #: extra cycles for multiply
_DIV_EXTRA = 7   #: extra cycles for divide/remainder
_CALL_EXTRA = 1  #: extra cycles for call/return

#: the wall-clock watchdog polls ``time.monotonic`` only when the
#: executed count crosses a multiple of ``_DEADLINE_MASK + 1`` (4096)
_DEADLINE_MASK = 0xFFF


def _signed(value: int) -> int:
    value &= U64
    return value - (1 << 64) if value & _SIGN else value


class Interpreter:
    def __init__(self, machine):
        self.machine = machine
        self.program = machine.program
        self.memory = machine.memory
        self.hierarchy = machine.hierarchy
        self.ifp = machine.ifp
        self.stats = machine.stats
        self.symbols = machine.image.symbols
        self.functions_by_address = machine.image.functions_by_address
        cfg = machine.config.ifp
        self._granule_mask = cfg.granule - 1
        self._granule_shift = cfg.granule.bit_length() - 1
        self._local_off_bits = cfg.local_offset_bits
        self._local_sub_bits = cfg.local_subobj_bits
        self._subheap_sub_bits = cfg.subheap_subobj_bits
        self.executed = 0
        self._limit = machine.config.max_instructions
        #: wall-clock deadline (time.monotonic value; 0.0 disables).
        #: Polled every 4096 instructions (``_DEADLINE_MASK``) so the
        #: watchdog costs one mask-and-test per instruction when armed.
        self._deadline = 0.0
        self._timeout_seconds = 0.0
        self._no_promote = machine.config.no_promote
        #: temporal lock registry (None when config.temporal == "off");
        #: deref sites gate on ``bound.tkey`` — nonzero only when the
        #: registry minted a key, so the probe below never sees None
        self._temporal = machine.temporal

    def arm_deadline(self, timeout_seconds: Optional[float]) -> None:
        """Arm (or disarm, with None) the wall-clock watchdog."""
        if timeout_seconds is None or timeout_seconds <= 0:
            self._deadline = 0.0
            self._timeout_seconds = 0.0
        else:
            self._timeout_seconds = timeout_seconds
            self._deadline = time.monotonic() + timeout_seconds

    def release(self) -> None:
        """Called once the run is over (``Machine._release``): this
        engine holds nothing that points back at it."""

    def _timeout(self, executed: int, name: str, ip: int) -> WorkloadTimeout:
        """The watchdog's expiry error, raised at ``name+ip``."""
        return WorkloadTimeout(
            f"wall-clock timeout after {self._timeout_seconds:g}s "
            f"({executed:,} instructions executed, at {name}+{ip})",
            seconds=self._timeout_seconds, executed=executed)

    # -- call entry --------------------------------------------------------------

    def call_function(self, name: str, args: List[int],
                      arg_bounds: List[Optional[Bounds]]
                      ) -> Tuple[int, Optional[Bounds]]:
        func = self.program.functions.get(name)
        if func is None:
            return self._call_builtin(name, args, arg_bounds)
        return self._run(func, args, arg_bounds)

    def _call_builtin(self, name: str, args: List[int],
                      arg_bounds: List[Optional[Bounds]]
                      ) -> Tuple[int, Optional[Bounds]]:
        builtin = self.machine.builtins.get(name)
        if builtin is None:
            raise LinkError(f"undefined function {name!r}")
        value, bounds, cycles, instructions = builtin(
            self.machine, args, arg_bounds)
        self.stats.base_instructions += instructions
        self.stats.builtin_instructions += instructions
        self.stats.cycles += cycles
        return value & U64, bounds

    # -- the main loop -------------------------------------------------------------

    def _run(self, func: IRFunction, args: List[int],
             arg_bounds: List[Optional[Bounds]]
             ) -> Tuple[int, Optional[Bounds]]:
        machine = self.machine
        frame_base = machine.push_frame(func.frame_size)
        regs: List[int] = [0] * func.num_regs
        bnds: List[Optional[Bounds]] = [None] * func.num_regs
        for index, preg in enumerate(func.param_regs):
            if index < len(args):
                regs[preg] = args[index] & U64
                bnds[preg] = arg_bounds[index] \
                    if index < len(arg_bounds) else None
        try:
            return self._resume(func, 0, regs, bnds, frame_base)
        finally:
            machine.pop_frame(func.frame_size)

    def _resume(self, func: IRFunction, ip: int, regs: List[int],
                bnds: List[Optional[Bounds]], frame_base: int
                ) -> Tuple[int, Optional[Bounds]]:
        """Execute ``func``'s activation from ``ip`` until it returns.

        The caller owns the frame.  The compiled engine hands an
        activation over mid-function when a block could exhaust the
        instruction budget, so this loop is the one place the budget and
        fell-off-the-end traps are raised."""
        machine = self.machine
        memory = self.memory
        hierarchy = self.hierarchy
        stats = self.stats
        instrs = func.instrs
        count = len(instrs)
        base_i = 0       # base-ISA instructions
        promote_i = 0
        arith_i = 0
        bls_i = 0
        cycles = 0
        loads = 0
        stores = 0
        obs = machine.obs
        tracer = obs.tracer if obs is not None else None
        try:
            while ip < count:
                ins = instrs[ip]
                if tracer is not None:
                    tracer.record(func.name, ip, ins, regs)
                ip += 1
                self.executed += 1
                if self.executed > self._limit:
                    raise StepBudgetExceeded(
                        f"instruction limit exceeded "
                        f"({self.executed:,} > {self._limit:,})",
                        executed=self.executed, limit=self._limit,
                        pc=(func.name, ip - 1))
                if (self._deadline and not self.executed & _DEADLINE_MASK
                        and time.monotonic() > self._deadline):
                    raise self._timeout(self.executed, func.name, ip - 1)
                op = ins.op

                if op == Op.BIN or op == Op.BINI:
                    base_i += 1
                    a = regs[ins.a]
                    b = ins.imm if op == Op.BINI else regs[ins.b]
                    code = ins.code
                    if code == 0:
                        regs[ins.dst] = (a + b) & U64
                    elif code == 1:
                        regs[ins.dst] = (a - b) & U64
                    elif code == 2:
                        cycles += _MUL_EXTRA + 1
                        regs[ins.dst] = (a * b) & U64
                    elif code == 13:   # slt
                        if ins.signed:
                            regs[ins.dst] = int(_signed(a) < _signed(b))
                        else:
                            regs[ins.dst] = int(a < b)
                    elif code == 14:   # sle
                        if ins.signed:
                            regs[ins.dst] = int(_signed(a) <= _signed(b))
                        else:
                            regs[ins.dst] = int(a <= b)
                    elif code == 11:
                        regs[ins.dst] = int(a == b)
                    elif code == 12:
                        regs[ins.dst] = int(a != b)
                    elif code == 3 or code == 4:   # div/rem
                        cycles += _DIV_EXTRA + 1
                        if b == 0:
                            raise SimTrap("division by zero")
                        sa, sb = (_signed(a), _signed(b)) if ins.signed \
                            else (a, b)
                        quotient = abs(sa) // abs(sb)
                        if (sa < 0) != (sb < 0):
                            quotient = -quotient
                        if code == 3:
                            regs[ins.dst] = quotient & U64
                        else:
                            regs[ins.dst] = (sa - quotient * sb) & U64
                    elif code == 5:
                        regs[ins.dst] = a & b
                    elif code == 6:
                        regs[ins.dst] = a | b
                    elif code == 7:
                        regs[ins.dst] = a ^ b
                    elif code == 8:
                        regs[ins.dst] = (a << (b & 63)) & U64
                    elif code == 9:
                        regs[ins.dst] = a >> (b & 63)
                    elif code == 10:
                        regs[ins.dst] = (_signed(a) >> (b & 63)) & U64
                    elif code == 15:
                        regs[ins.dst] = (-a) & U64
                    elif code == 16:
                        regs[ins.dst] = int(a == 0)
                    elif code == 17:
                        regs[ins.dst] = (~a) & U64
                    elif code == 18:
                        regs[ins.dst] = int((a & ADDRESS_MASK)
                                            == (b & ADDRESS_MASK))
                    elif code == 19:
                        regs[ins.dst] = int((a & ADDRESS_MASK)
                                            != (b & ADDRESS_MASK))
                    elif code == 20:
                        regs[ins.dst] = int((a & ADDRESS_MASK)
                                            < (b & ADDRESS_MASK))
                    elif code == 21:
                        regs[ins.dst] = int((a & ADDRESS_MASK)
                                            <= (b & ADDRESS_MASK))
                    elif code == 22:
                        regs[ins.dst] = ((a & ADDRESS_MASK)
                                         - (b & ADDRESS_MASK)) & U64
                    else:  # pragma: no cover
                        raise SimTrap(f"bad BIN code {code}")
                    bnds[ins.dst] = None
                    cycles += 1

                elif op == Op.LOAD:
                    base_i += 1
                    loads += 1
                    base_val = regs[ins.a]
                    if base_val >> 62:
                        raise PoisonTrap(
                            "load through poisoned pointer", base_val,
                            pc=(func.name, ip - 1))
                    ea = ((base_val & ADDRESS_MASK) + ins.imm) & ADDRESS_MASK
                    bound = bnds[ins.a]
                    size = ins.size
                    if bound is not None:
                        stats.implicit_checks += 1
                        passed = (bound.lower <= ea
                                  and ea + size <= bound.upper)
                        if obs is not None:
                            obs.emit(CheckEvent(
                                (func.name, ip - 1), "load", False, ea,
                                size, passed))
                        if not passed:
                            stats.check_failures += 1
                            raise BoundsTrap(
                                "load out of bounds", base_val,
                                bound.lower, bound.upper,
                                pc=(func.name, ip - 1))
                        tkey = bound.tkey
                        if tkey:
                            stats.temporal_checks += 1
                            t_entry = self._temporal.probe(bound.tbase)
                            if (t_entry is None or not t_entry[1]
                                    or t_entry[0] != tkey):
                                stats.temporal_failures += 1
                                raise temporal_violation(
                                    "load", base_val, bound.tbase, tkey,
                                    t_entry, pc=(func.name, ip - 1))
                    cycles += 1 + hierarchy.access_cycles(ea, size, False)
                    value = memory.load_int(ea, size, ins.signed)
                    regs[ins.dst] = value & U64
                    bnds[ins.dst] = None

                elif op == Op.STORE:
                    base_i += 1
                    stores += 1
                    base_val = regs[ins.a]
                    if base_val >> 62:
                        raise PoisonTrap(
                            "store through poisoned pointer", base_val,
                            pc=(func.name, ip - 1))
                    ea = ((base_val & ADDRESS_MASK) + ins.imm) & ADDRESS_MASK
                    bound = bnds[ins.a]
                    size = ins.size
                    if bound is not None:
                        stats.implicit_checks += 1
                        passed = (bound.lower <= ea
                                  and ea + size <= bound.upper)
                        if obs is not None:
                            obs.emit(CheckEvent(
                                (func.name, ip - 1), "store", False, ea,
                                size, passed))
                        if not passed:
                            stats.check_failures += 1
                            raise BoundsTrap(
                                "store out of bounds", base_val,
                                bound.lower, bound.upper,
                                pc=(func.name, ip - 1))
                        tkey = bound.tkey
                        if tkey:
                            stats.temporal_checks += 1
                            t_entry = self._temporal.probe(bound.tbase)
                            if (t_entry is None or not t_entry[1]
                                    or t_entry[0] != tkey):
                                stats.temporal_failures += 1
                                raise temporal_violation(
                                    "store", base_val, bound.tbase, tkey,
                                    t_entry, pc=(func.name, ip - 1))
                    cycles += 1 + hierarchy.access_cycles(ea, size, True)
                    memory.store_int(ea, regs[ins.b], size)

                elif op == Op.MV:
                    base_i += 1
                    cycles += 1
                    regs[ins.dst] = regs[ins.a]
                    bnds[ins.dst] = bnds[ins.a]

                elif op == Op.LI:
                    base_i += 1
                    cycles += 1
                    regs[ins.dst] = ins.imm & U64
                    bnds[ins.dst] = None

                elif op == Op.BZ:
                    base_i += 1
                    cycles += 1
                    if regs[ins.a] == 0:
                        ip = ins.target

                elif op == Op.BNZ:
                    base_i += 1
                    cycles += 1
                    if regs[ins.a] != 0:
                        ip = ins.target

                elif op == Op.JMP:
                    base_i += 1
                    cycles += 1
                    ip = ins.target

                elif op == Op.TRUNC:
                    base_i += 1
                    cycles += 1
                    bits = ins.size * 8
                    value = regs[ins.a] & ((1 << bits) - 1)
                    if ins.signed and value >> (bits - 1):
                        value |= (U64 >> bits << bits)
                    regs[ins.dst] = value
                    bnds[ins.dst] = None

                elif op == Op.FRAME:
                    base_i += 1
                    cycles += 1
                    regs[ins.dst] = frame_base + ins.imm
                    bnds[ins.dst] = None

                elif op == Op.GLOB:
                    base_i += 1
                    cycles += 1
                    try:
                        regs[ins.dst] = self.symbols[ins.name]
                    except KeyError:
                        raise LinkError(f"undefined symbol {ins.name!r}")
                    bnds[ins.dst] = None

                elif op == Op.CALL or op == Op.CALLPTR:
                    base_i += 1
                    cycles += 1 + _CALL_EXTRA
                    call_args = [regs[r] for r in ins.args]
                    call_bounds = [bnds[r] for r in ins.args]
                    if op == Op.CALL:
                        name = ins.name
                    else:
                        address = regs[ins.a] & ADDRESS_MASK
                        name = self.functions_by_address.get(address)
                        if name is None:
                            raise SimTrap(
                                f"indirect call to non-function address "
                                f"0x{address:x}")
                    # Flush local counters before recursing so nested
                    # runs see consistent global stats.
                    stats.base_instructions += base_i
                    stats.promote_instructions += promote_i
                    stats.ifp_arith_instructions += arith_i
                    stats.bounds_ls_instructions += bls_i
                    stats.cycles += cycles
                    stats.loads += loads
                    stats.stores += stores
                    base_i = promote_i = arith_i = bls_i = 0
                    cycles = loads = stores = 0
                    value, rbounds = self.call_function(
                        name, call_args, call_bounds)
                    if ins.dst >= 0:
                        regs[ins.dst] = value
                        bnds[ins.dst] = rbounds
                    else:
                        pass

                elif op == Op.RET:
                    base_i += 1
                    cycles += 1 + _CALL_EXTRA
                    if ins.a >= 0:
                        return_value = regs[ins.a]
                        return_bounds = bnds[ins.a]
                    else:
                        return_value, return_bounds = 0, None
                    return return_value, return_bounds

                elif op == Op.PROMOTE:
                    promote_i += 1
                    if self._no_promote:
                        cycles += 1
                        regs[ins.dst] = regs[ins.a]
                        bnds[ins.dst] = None
                    else:
                        value = regs[ins.a]
                        if obs is not None:
                            # Unit-level events (metadata fetch, MAC,
                            # narrowing) inherit this site attribution.
                            obs.site = (func.name, ip - 1)
                        try:
                            result = self.ifp.promote(value)
                        except TemporalViolation as trap:
                            # The unit has no notion of guest pc; stamp
                            # the promote site so forensics can anchor
                            # the report.
                            trap.pc = (func.name, ip - 1)
                            raise
                        cycles += result.cycles
                        regs[ins.dst] = result.pointer
                        bnds[ins.dst] = result.bounds
                        if obs is not None:
                            obs.emit(PromoteEvent(
                                obs.site, value,
                                _SCHEME_NAMES[(value >> 60) & 3],
                                result.outcome.value, result.narrowed,
                                result.cycles))
                            obs.site = None

                elif op == Op.IFPADD:
                    arith_i += 1
                    cycles += 1
                    value = regs[ins.a]
                    delta = ins.imm if ins.b < 0 else _signed(regs[ins.b])
                    address = ((value & ADDRESS_MASK) + delta) & ADDRESS_MASK
                    tag = value >> 48
                    if tag == 0:
                        regs[ins.dst] = address
                    else:
                        regs[ins.dst] = self._ifpadd_tagged(
                            value, address, tag, bnds[ins.a])
                    bnds[ins.dst] = bnds[ins.a]

                elif op == Op.IFPBND:
                    arith_i += 1
                    cycles += 1
                    value = regs[ins.a]
                    size = ins.imm if ins.b < 0 else regs[ins.b]
                    address = value & ADDRESS_MASK
                    regs[ins.dst] = value
                    bnds[ins.dst] = Bounds(address, address + size)

                elif op == Op.IFPIDX:
                    arith_i += 1
                    cycles += 1
                    value = regs[ins.a]
                    scheme = (value >> 60) & 3
                    if scheme == 1:
                        width = self._local_sub_bits
                    elif scheme == 2:
                        width = self._subheap_sub_bits
                    else:
                        width = 0
                    if width:
                        mask = (1 << width) - 1
                        field_val = (value >> 48) & mask
                        field_val = (field_val + ins.imm) & mask
                        value = (value & ~(mask << 48)) | (field_val << 48)
                    regs[ins.dst] = value
                    bnds[ins.dst] = bnds[ins.a]

                elif op == Op.IFPCHK:
                    arith_i += 1
                    cycles += 1
                    value = regs[ins.a]
                    bound = bnds[ins.a]
                    if bound is not None:
                        address = value & ADDRESS_MASK
                        stats.implicit_checks += 1
                        passed = (bound.lower <= address
                                  and address + ins.imm <= bound.upper)
                        if obs is not None:
                            obs.emit(CheckEvent(
                                (func.name, ip - 1), "ifpchk", True,
                                address, ins.imm, passed))
                        if not passed:
                            stats.check_failures += 1
                            value = (value & ~(3 << 62)) | (1 << 62)
                    regs[ins.dst] = value
                    bnds[ins.dst] = bound

                elif op == Op.IFPEXTRACT:
                    arith_i += 1
                    cycles += 1
                    value = regs[ins.a]
                    bound = bnds[ins.a]
                    if bound is not None:
                        address = value & ADDRESS_MASK
                        if bound.lower <= address < bound.upper:
                            poison = 0
                        else:
                            poison = 1
                        value = (value & ~(3 << 62)) | (poison << 62)
                    regs[ins.dst] = value
                    bnds[ins.dst] = None

                elif op == Op.IFPMD:
                    arith_i += 1
                    cycles += 1
                    regs[ins.dst] = ((regs[ins.a] & ADDRESS_MASK)
                                     | (ins.imm << 48))
                    bnds[ins.dst] = None
                    if ins.name:
                        stats.local_objects += 1
                        if ins.name == "local+lt":
                            stats.local_objects_lt += 1
                        if obs is not None:
                            obs.site = (func.name, ip - 1)
                            obs.scheme_assigned(
                                "local", regs[ins.dst], 0,
                                ins.name == "local+lt")
                            obs.site = None

                elif op == Op.IFPMAC:
                    arith_i += 1
                    cycles += 1 + self.machine.config.ifp.mac_cycles
                    regs[ins.dst] = self.ifp.mac.compute(
                        (regs[ins.a] & ADDRESS_MASK, ins.imm, regs[ins.b]))
                    bnds[ins.dst] = None

                elif op == Op.LDBND:
                    bls_i += 1
                    if obs is not None:
                        obs.emit(BoundsSpillEvent((func.name, ip - 1),
                                                  False))
                    ea = (regs[ins.a] & ADDRESS_MASK) + ins.imm
                    cycles += 1 + hierarchy.access_cycles(ea, 16, False)
                    if not memory.is_mapped(ea, 16):
                        # On-demand bounds-table page (MPX-style kernel
                        # allocation); unwritten entries read as cleared.
                        memory.map_range(ea, 16)
                    lower = memory.load_u64(ea)
                    upper = memory.load_u64(ea + 8)
                    bnds[ins.dst] = None if lower == 0 and upper == 0 \
                        else Bounds(lower, upper)

                elif op == Op.STBND:
                    bls_i += 1
                    if obs is not None:
                        obs.emit(BoundsSpillEvent((func.name, ip - 1),
                                                  True))
                    ea = (regs[ins.a] & ADDRESS_MASK) + ins.imm
                    cycles += 1 + hierarchy.access_cycles(ea, 16, True)
                    if not memory.is_mapped(ea, 16):
                        memory.map_range(ea, 16)
                    bound = bnds[ins.b]
                    if bound is None:
                        memory.store_u64(ea, 0)
                        memory.store_u64(ea + 8, 0)
                    else:
                        memory.store_u64(ea, bound.lower)
                        memory.store_u64(ea + 8, bound.upper)

                else:  # pragma: no cover
                    raise SimTrap(f"unimplemented opcode {op}")

            raise SimTrap(f"function {func.name} fell off the end")
        finally:
            stats.base_instructions += base_i
            stats.promote_instructions += promote_i
            stats.ifp_arith_instructions += arith_i
            stats.bounds_ls_instructions += bls_i
            stats.cycles += cycles
            stats.loads += loads
            stats.stores += stores

    # -- tagged pointer arithmetic helper ---------------------------------------

    def _ifpadd_tagged(self, value: int, new_address: int, tag: int,
                       bound: Optional[Bounds]) -> int:
        """Tag maintenance for ``ifpadd`` on a tagged pointer."""
        poison = tag >> 14
        scheme = (tag >> 12) & 3
        payload = tag & 0xFFF
        if scheme == 1:  # local offset: re-encode the granule offset
            old_address = value & ADDRESS_MASK
            gmask = self._granule_mask
            gshift = self._granule_shift
            offset = (payload >> self._local_sub_bits) \
                & ((1 << self._local_off_bits) - 1)
            metadata = (old_address & ~gmask) + (offset << gshift)
            delta = metadata - (new_address & ~gmask)
            if delta >= 0:
                new_offset = delta >> gshift
                if new_offset < (1 << self._local_off_bits):
                    sub_mask = (1 << self._local_sub_bits) - 1
                    payload = ((new_offset << self._local_sub_bits)
                               | (payload & sub_mask))
                else:
                    poison = 2  # wildly out of bounds: irrecoverable
            else:
                poison = 2
        if poison < 2 and bound is not None:
            poison = 0 if bound.lower <= new_address < bound.upper else 1
        return ((poison << 62) | (scheme << 60) | (payload << 48)
                | new_address)
