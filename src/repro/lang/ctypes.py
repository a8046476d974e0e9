"""The mini-C type system: sizes, alignment, and struct layout.

Sizes follow the LP64 model of the paper's RISC-V target: char 1, short 2,
int 4, long 8, pointers 8.  Struct members are aligned to their natural
alignment and the struct is padded to the alignment of its widest member —
identical to the C ABI rules the paper's layout tables describe.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple


class CType:
    """Base class for all mini-C types."""

    size: int
    align: int

    @property
    def is_pointer(self) -> bool:
        return isinstance(self, PointerType)

    @property
    def is_integer(self) -> bool:
        return isinstance(self, IntType)

    @property
    def is_void(self) -> bool:
        return isinstance(self, VoidType)

    @property
    def is_struct(self) -> bool:
        return isinstance(self, StructType)

    @property
    def is_array(self) -> bool:
        return isinstance(self, ArrayType)

    @property
    def is_function(self) -> bool:
        return isinstance(self, FunctionType)

    @property
    def is_aggregate(self) -> bool:
        return self.is_struct or self.is_array

    @property
    def is_scalar(self) -> bool:
        return self.is_integer or self.is_pointer


@dataclass(frozen=True)
class VoidType(CType):
    size: int = 0
    align: int = 1

    def __str__(self) -> str:
        return "void"


@dataclass(frozen=True)
class IntType(CType):
    """An integer type of 1/2/4/8 bytes, signed or unsigned."""

    name: str
    size: int
    signed: bool

    @property
    def align(self) -> int:  # type: ignore[override]
        return self.size

    def wrap(self, value: int) -> int:
        """Truncate a Python int to this type's representable range."""
        bits = self.size * 8
        value &= (1 << bits) - 1
        if self.signed and value >= (1 << (bits - 1)):
            value -= 1 << bits
        return value

    def __str__(self) -> str:
        return self.name


@dataclass(frozen=True)
class PointerType(CType):
    pointee: CType
    size: int = 8
    align: int = 8

    def __str__(self) -> str:
        return f"{self.pointee}*"


@dataclass(frozen=True)
class ArrayType(CType):
    element: CType
    count: int

    @property
    def size(self) -> int:  # type: ignore[override]
        return self.element.size * self.count

    @property
    def align(self) -> int:  # type: ignore[override]
        return self.element.align

    def __str__(self) -> str:
        return f"{self.element}[{self.count}]"


@dataclass(frozen=True)
class StructField:
    name: str
    type: CType
    offset: int


class StructType(CType):
    """A struct with ABI-computed member offsets.

    Created empty (to allow self-referential pointers) and completed with
    :meth:`define`.
    """

    def __init__(self, name: str):
        self.name = name
        self.fields: Tuple[StructField, ...] = ()
        self._by_name: Dict[str, StructField] = {}
        self.size = 0
        self.align = 1
        self.complete = False

    def define(self, members: Sequence[Tuple[str, CType]]) -> "StructType":
        if self.complete:
            raise ValueError(f"struct {self.name} redefined")
        offset = 0
        align = 1
        fields: List[StructField] = []
        for member_name, member_type in members:
            if member_type.size == 0 and not member_type.is_function:
                raise ValueError(
                    f"struct {self.name}: member {member_name} has no size")
            member_align = member_type.align
            offset = (offset + member_align - 1) // member_align * member_align
            fields.append(StructField(member_name, member_type, offset))
            offset += member_type.size
            align = max(align, member_align)
        self.size = (offset + align - 1) // align * align if offset else align
        self.align = align
        self.fields = tuple(fields)
        self._by_name = {f.name: f for f in fields}
        self.complete = True
        return self

    def field(self, name: str) -> Optional[StructField]:
        return self._by_name.get(name)

    def __str__(self) -> str:
        return f"struct {self.name}"

    def __repr__(self) -> str:
        return f"StructType({self.name}, size={self.size})"


class UnionType(StructType):
    """A C union: every member at offset 0, size of the widest member.

    Unions get no layout-table subentries (members overlap, so there is
    no meaningful subobject tree below them) — narrowing stops at the
    union's own bounds, the conservative choice the paper's
    type-uncertainty guarantee requires.
    """

    def define(self, members: Sequence[Tuple[str, CType]]) -> "UnionType":
        if self.complete:
            raise ValueError(f"union {self.name} redefined")
        size = 0
        align = 1
        fields: List[StructField] = []
        for member_name, member_type in members:
            if member_type.size == 0 and not member_type.is_function:
                raise ValueError(
                    f"union {self.name}: member {member_name} has no size")
            fields.append(StructField(member_name, member_type, 0))
            size = max(size, member_type.size)
            align = max(align, member_type.align)
        self.size = (size + align - 1) // align * align if size else align
        self.align = align
        self.fields = tuple(fields)
        self._by_name = {f.name: f for f in fields}
        self.complete = True
        return self

    def __str__(self) -> str:
        return f"union {self.name}"


@dataclass(frozen=True)
class FunctionType(CType):
    """A function signature; only ever used behind a pointer or as a
    function's own type."""

    ret: CType
    params: Tuple[CType, ...]
    varargs: bool = False
    size: int = 0
    align: int = 1

    def __str__(self) -> str:
        params = ", ".join(str(p) for p in self.params)
        if self.varargs:
            params += ", ..."
        return f"{self.ret}({params})"


# -- the standard integer types ------------------------------------------------

VOID = VoidType()
CHAR = IntType("char", 1, True)
UCHAR = IntType("unsigned char", 1, False)
SHORT = IntType("short", 2, True)
USHORT = IntType("unsigned short", 2, False)
INT = IntType("int", 4, True)
UINT = IntType("unsigned int", 4, False)
LONG = IntType("long", 8, True)
ULONG = IntType("unsigned long", 8, False)

#: Pointer-to-void, the generic object pointer.
VOID_PTR = PointerType(VOID)
#: Pointer-sized integer used for pointer arithmetic results.
PTRDIFF = LONG


def common_int_type(left: IntType, right: IntType) -> IntType:
    """C's usual arithmetic conversions, restricted to our integer set."""
    size = max(left.size, right.size, 4)  # promote to at least int
    if size == left.size == right.size:
        signed = left.signed and right.signed
    elif left.size == right.size:
        signed = left.signed and right.signed
    else:
        wider = left if left.size > right.size else right
        signed = wider.signed
    for candidate in (INT, UINT, LONG, ULONG):
        if candidate.size == size and candidate.signed == signed:
            return candidate
    return ULONG


def decay(t: CType) -> CType:
    """Array-to-pointer and function-to-pointer decay."""
    if isinstance(t, ArrayType):
        return PointerType(t.element)
    if isinstance(t, FunctionType):
        return PointerType(t)
    return t
