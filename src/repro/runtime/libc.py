"""Modelled libc subset — the *uninstrumented legacy code* of the paper.

These builtins execute natively (for simulation speed) but:

* really read/write simulated memory, so guest-visible state is exact;
* charge modelled instruction counts and cache traffic, so the overhead
  figures include libc work on both baseline and instrumented runs;
* return **legacy pointers** (no tag, no bounds) — instrumented callers
  promote them and the promote bypasses, reproducing the paper's ">20 %
  of promotes see NULL or legacy pointers" observation;
* ignore pointer *tags* on their arguments but trap on *poison bits*
  (the paper's modified kernel "ignores pointer tags (but not poison
  bits) when checking pointers from user space"); spatial errors
  *inside* legacy code remain invisible — the paper's stated
  non-guarantee.

``strlen`` models glibc's word-sized reads (the over-read that made the
paper exclude PtrDist's *bc*): it may touch bytes past the terminator
within the final word.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from repro.errors import GuestExit, PoisonTrap, SimTrap
from repro.ifp.tag import address_of

Result = Tuple[int, Optional[object], int, int]


def _guest_pointer(pointer: int) -> int:
    """Strip the tag of a pointer crossing into legacy code, honouring
    the poison bits: the paper's modified kernel "ignores pointer tags
    (but not poison bits) when checking pointers from user space"."""
    if pointer >> 62:
        raise PoisonTrap("poisoned pointer passed to legacy code", pointer)
    return address_of(pointer)


def _touch(machine, address: int, size: int, write: bool) -> int:
    if size <= 0:
        return 0
    return machine.hierarchy.access_cycles(address, size, write)


def _cstring(machine, pointer: int, limit: int = 1 << 20) -> bytes:
    return machine.memory.read_cstring(_guest_pointer(pointer), limit)


# -- memory ------------------------------------------------------------------

def do_memcpy(machine, args, bounds) -> Result:
    dst, src, count = _guest_pointer(args[0]), _guest_pointer(args[1]), args[2]
    machine.memory.copy(dst, src, count)
    instrs = 12 + count // 8
    cycles = instrs + _touch(machine, src, count, False) \
        + _touch(machine, dst, count, True)
    return args[0], bounds[0], cycles, instrs


def do_memmove(machine, args, bounds) -> Result:
    return do_memcpy(machine, args, bounds)


def do_memset(machine, args, bounds) -> Result:
    dst, value, count = _guest_pointer(args[0]), args[1] & 0xFF, args[2]
    machine.memory.fill(dst, value, count)
    instrs = 10 + count // 8
    cycles = instrs + _touch(machine, dst, count, True)
    return args[0], bounds[0], cycles, instrs


def do_memcmp(machine, args, bounds) -> Result:
    a, b, count = _guest_pointer(args[0]), _guest_pointer(args[1]), args[2]
    left = machine.memory.read_bytes(a, count)
    right = machine.memory.read_bytes(b, count)
    result = 0
    steps = count
    for index in range(count):
        if left[index] != right[index]:
            result = left[index] - right[index]
            steps = index + 1
            break
    instrs = 8 + steps
    cycles = instrs + _touch(machine, a, steps, False) \
        + _touch(machine, b, steps, False)
    return result & ((1 << 64) - 1), None, cycles, instrs


# -- strings ------------------------------------------------------------------

def do_strlen(machine, args, bounds) -> Result:
    pointer = _guest_pointer(args[0])
    data = _cstring(machine, pointer)
    length = len(data)
    # glibc reads whole aligned words (the over-read the paper hit in
    # bc); model the cache traffic of the words covering
    # [pointer, pointer + length] inclusive of the terminator (and thus
    # possibly bytes beyond it).
    start = pointer & ~7
    end = (pointer + length + 8) & ~7
    words = (end - start) // 8
    instrs = 12 + words * 2
    cycles = instrs + _touch(machine, start, end - start, False)
    return length, None, cycles, instrs


def do_strcmp(machine, args, bounds) -> Result:
    a = _cstring(machine, args[0])
    b = _cstring(machine, args[1])
    if a == b:
        result = 0
    else:
        result = -1 if a < b else 1
    steps = min(len(a), len(b)) + 1
    instrs = 8 + steps
    cycles = instrs + _touch(machine, address_of(args[0]), steps, False) \
        + _touch(machine, address_of(args[1]), steps, False)
    return result & ((1 << 64) - 1), None, cycles, instrs


def do_strncmp(machine, args, bounds) -> Result:
    limit = args[2]
    a = _cstring(machine, args[0])[:limit]
    b = _cstring(machine, args[1])[:limit]
    result = 0 if a == b else (-1 if a < b else 1)
    steps = min(len(a), len(b), limit) + 1
    instrs = 8 + steps
    return result & ((1 << 64) - 1), None, instrs + 2, instrs


def do_strcpy(machine, args, bounds) -> Result:
    dst = _guest_pointer(args[0])
    data = _cstring(machine, args[1]) + b"\x00"
    machine.memory.write_bytes(dst, data)
    instrs = 8 + len(data)
    cycles = instrs + _touch(machine, dst, len(data), True) \
        + _touch(machine, address_of(args[1]), len(data), False)
    return args[0], bounds[0], cycles, instrs


def do_strncpy(machine, args, bounds) -> Result:
    dst = _guest_pointer(args[0])
    limit = args[2]
    data = _cstring(machine, args[1])[:limit]
    data = data + b"\x00" * (limit - len(data))
    machine.memory.write_bytes(dst, data)
    instrs = 8 + limit
    return args[0], bounds[0], instrs + _touch(machine, dst, limit, True), \
        instrs


def do_strcat(machine, args, bounds) -> Result:
    dst = _guest_pointer(args[0])
    existing = _cstring(machine, args[0])
    extra = _cstring(machine, args[1]) + b"\x00"
    machine.memory.write_bytes(dst + len(existing), extra)
    instrs = 10 + len(existing) + len(extra)
    return args[0], bounds[0], instrs + 4, instrs


def do_strchr(machine, args, bounds) -> Result:
    data = _cstring(machine, args[0])
    needle = args[1] & 0xFF
    index = data.find(bytes([needle]))
    if needle == 0:
        index = len(data)
    instrs = 8 + (index if index >= 0 else len(data))
    if index < 0:
        return 0, None, instrs + 2, instrs
    return (address_of(args[0]) + index), None, instrs + 2, instrs


def do_atoi(machine, args, bounds) -> Result:
    text = _cstring(machine, args[0]).decode("latin-1").strip()
    value = 0
    sign = 1
    pos = 0
    if pos < len(text) and text[pos] in "+-":
        sign = -1 if text[pos] == "-" else 1
        pos += 1
    while pos < len(text) and text[pos].isdigit():
        value = value * 10 + int(text[pos])
        pos += 1
    instrs = 6 + pos
    return (sign * value) & ((1 << 64) - 1), None, instrs + 2, instrs


# -- ctype -------------------------------------------------------------------

def _ctype_result(value: int) -> Result:
    return value, None, 4, 4


def do_isalpha(machine, args, bounds) -> Result:
    return _ctype_result(int(chr(args[0] & 0xFF).isalpha()))


def do_isdigit(machine, args, bounds) -> Result:
    return _ctype_result(int(chr(args[0] & 0xFF).isdigit()))


def do_isspace(machine, args, bounds) -> Result:
    return _ctype_result(int(chr(args[0] & 0xFF).isspace()))


def do_tolower(machine, args, bounds) -> Result:
    return _ctype_result(ord(chr(args[0] & 0xFF).lower()[0]))


def do_toupper(machine, args, bounds) -> Result:
    return _ctype_result(ord(chr(args[0] & 0xFF).upper()[0]))


def do_ctype_b_loc(machine, args, bounds) -> Result:
    """Return the glibc-style double pointer to the character traits
    table — the legacy-pointer pattern from the paper's anagram analysis."""
    slot = machine.ctype_table_slot
    return slot, None, 5 + _touch(machine, slot, 8, False), 5


# -- misc ---------------------------------------------------------------------

def do_rand(machine, args, bounds) -> Result:
    return machine.rand(), None, 8, 8


def do_srand(machine, args, bounds) -> Result:
    machine.srand(args[0])
    return 0, None, 4, 4


def do_abs(machine, args, bounds) -> Result:
    value = args[0]
    if value & (1 << 63):
        value = (1 << 64) - value
    return value, None, 3, 3


def do_isqrt(machine, args, bounds) -> Result:
    """Integer square root (the fixed-point substitute for libm sqrt)."""
    value = args[0]
    if value & (1 << 63):
        value = 0
    root = int(value ** 0.5)
    while root * root > value:
        root -= 1
    while (root + 1) * (root + 1) <= value:
        root += 1
    return root, None, 20, 20


def do_clock(machine, args, bounds) -> Result:
    return machine.stats.cycles & ((1 << 64) - 1), None, 4, 4


def do_exit(machine, args, bounds) -> Result:
    raise GuestExit(args[0] & 0xFF if args else 0)


def do_abort(machine, args, bounds) -> Result:
    raise SimTrap("abort() called")


# -- output ----------------------------------------------------------------------

def do_puts(machine, args, bounds) -> Result:
    text = _cstring(machine, args[0]).decode("latin-1")
    machine.write_output(text + "\n")
    instrs = 10 + len(text)
    return len(text) + 1, None, instrs + 2, instrs


def do_putchar(machine, args, bounds) -> Result:
    machine.write_output(chr(args[0] & 0xFF))
    return args[0] & 0xFF, None, 5, 5


def do_print_int(machine, args, bounds) -> Result:
    value = args[0]
    if value & (1 << 63):
        value -= 1 << 64
    machine.write_output(str(value))
    return 0, None, 12, 12


def do_printf(machine, args, bounds) -> Result:
    fmt = _cstring(machine, args[0]).decode("latin-1")
    out: List[str] = []
    arg_index = 1
    pos = 0
    while pos < len(fmt):
        ch = fmt[pos]
        if ch != "%":
            out.append(ch)
            pos += 1
            continue
        pos += 1
        # Skip width/flags/length modifiers.
        while pos < len(fmt) and fmt[pos] in "-+ 0123456789.l":
            pos += 1
        if pos >= len(fmt):
            break
        spec = fmt[pos]
        pos += 1
        if spec == "%":
            out.append("%")
            continue
        value = args[arg_index] if arg_index < len(args) else 0
        arg_index += 1
        if spec in "di":
            signed = value - (1 << 64) if value & (1 << 63) else value
            out.append(str(signed))
        elif spec == "u":
            out.append(str(value))
        elif spec == "x":
            out.append(format(value, "x"))
        elif spec == "c":
            out.append(chr(value & 0xFF))
        elif spec == "s":
            out.append(_cstring(machine, value).decode("latin-1"))
        elif spec == "p":
            out.append(f"0x{value & ((1 << 48) - 1):x}")
        else:
            out.append("%" + spec)
    text = "".join(out)
    machine.write_output(text)
    instrs = 20 + 2 * len(text)
    return len(text), None, instrs + 4, instrs


#: export table: builtin name -> implementation
LIBC_BUILTINS = {
    "memcpy": do_memcpy, "memmove": do_memmove, "memset": do_memset,
    "memcmp": do_memcmp, "strlen": do_strlen, "strcmp": do_strcmp,
    "strncmp": do_strncmp, "strcpy": do_strcpy, "strncpy": do_strncpy,
    "strcat": do_strcat, "strchr": do_strchr, "atoi": do_atoi,
    "isalpha": do_isalpha, "isdigit": do_isdigit, "isspace": do_isspace,
    "tolower": do_tolower, "toupper": do_toupper,
    "__ctype_b_loc": do_ctype_b_loc,
    "rand": do_rand, "srand": do_srand, "abs": do_abs, "labs": do_abs,
    "isqrt": do_isqrt, "clock": do_clock, "exit": do_exit,
    "abort": do_abort, "puts": do_puts, "putchar": do_putchar,
    "printf": do_printf, "print_int": do_print_int,
}
