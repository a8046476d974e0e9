"""Deep property-based tests: narrowing vs a type-level oracle, and
interpreter arithmetic vs a C-semantics mirror."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.cache import HierarchyConfig
from repro.compiler import CompilerOptions
from repro.compiler.layout_gen import build_layout_table, member_delta
from repro.ifp import Bounds, IFPUnit
from repro.lang.ctypes import ArrayType, CHAR, INT, LONG, StructType
from repro.mem import Memory
from tests.conftest import compile_and_run

# ---------------------------------------------------------------------------
# Narrowing vs the type structure itself
# ---------------------------------------------------------------------------

_SCALARS = [CHAR, INT, LONG]
_counter = [0]


def _fresh_name() -> str:
    _counter[0] += 1
    return f"T{_counter[0]}"


@st.composite
def random_struct(draw, depth: int = 0) -> StructType:
    """A random struct with scalar / array / nested-struct /
    array-of-struct members."""
    member_count = draw(st.integers(1, 3 if depth else 4))
    members = []
    for index in range(member_count):
        kind = draw(st.integers(0, 3 if depth < 2 else 1))
        if kind == 0:
            member_type = draw(st.sampled_from(_SCALARS))
        elif kind == 1:
            member_type = ArrayType(draw(st.sampled_from(_SCALARS)),
                                    draw(st.integers(1, 4)))
        elif kind == 2:
            member_type = draw(random_struct(depth + 1))
        else:
            member_type = ArrayType(draw(random_struct(depth + 1)),
                                    draw(st.integers(1, 3)))
        members.append((f"m{index}", member_type))
    return StructType(_fresh_name()).define(members)


@st.composite
def narrowing_scenario(draw):
    """(struct type, descent path) where each path step is a member name
    or an array element index."""
    top = draw(random_struct())
    path = []
    current = top
    # Descend at least one level (index 0 = whole object is trivial).
    for _step in range(draw(st.integers(1, 4))):
        if isinstance(current, StructType) and current.fields:
            field = draw(st.sampled_from(list(current.fields)))
            path.append(field.name)
            current = field.type
            if isinstance(current, ArrayType):
                # Entering the array entry; element selection is implicit
                # (all elements share the entry), so optionally descend
                # into one element to keep going.
                element_index = draw(st.integers(0, current.count - 1))
                if isinstance(current.element, StructType):
                    path.append(element_index)
                    current = current.element
                else:
                    break
        else:
            break
    return top, path


def _oracle_walk(top: StructType, path):
    """Type-level oracle: (entry index, lower offset, upper offset).

    ``lower``/``upper`` are the *entry's* bounds: array-element steps do
    not change them (all elements share the array's entry) — they only
    re-base the offsets of members selected afterwards.
    """
    index = 0
    lower, upper = 0, top.size
    instance_base = 0   # base of the instance subsequent members live in
    current = top
    for step in path:
        if isinstance(step, str):
            field = current.field(step)
            index += member_delta(current, step)
            lower = instance_base + field.offset
            upper = lower + field.type.size
            instance_base = lower
            current = field.type
        else:
            assert isinstance(current, ArrayType)
            instance_base = lower + step * current.element.size
            current = current.element
    return index, lower, upper


@given(scenario=narrowing_scenario(), data=st.data())
@settings(max_examples=120, deadline=None)
def test_hardware_narrowing_matches_type_oracle(scenario, data):
    """For random nested types and random descent paths, the hardware
    layout-table walk produces exactly the bounds the type dictates."""
    top, path = scenario
    table = build_layout_table(top, top.name, 256)
    if table is None:
        return  # type too large for the index width: narrowing unsupported
    index, lower_off, upper_off = _oracle_walk(top, path)
    if index >= len(table):  # pragma: no cover - oracle/table must agree
        raise AssertionError("oracle index escaped the table")

    # When the final step selected an array *member* (string step), the
    # entry's bounds cover the whole array; the oracle already reflects
    # that because field.type.size is the whole array's size.
    memory = Memory()
    memory.map_range(0x10000, 0x10000)
    unit = IFPUnit(memory, HierarchyConfig().build())
    lt_addr = 0x10000
    memory.write_bytes(lt_addr, table.serialize())

    object_base = 0x12000
    unit.local_offset.write_metadata(
        memory, object_base, top.size, lt_addr, unit.mac)

    span = upper_off - lower_off
    address = object_base + lower_off \
        + data.draw(st.integers(0, max(span - 1, 0)))
    if top.size > unit.config.local_max_object:
        return  # outside the local-offset scheme's reach
    if index >= unit.config.subheap_max_layout_entries:
        return
    pointer = unit.local_offset.make_pointer(
        address, object_base, top.size,
        subobject_index=min(index, 63))
    if index > 63:
        return  # exceeds the local-offset subobject field
    result = unit.promote(pointer)
    assert result.narrowed, (top, path, index)
    assert result.bounds == Bounds(object_base + lower_off,
                                   object_base + upper_off), \
        (path, index, table.names)


# ---------------------------------------------------------------------------
# Interpreter arithmetic vs a C-semantics mirror
# ---------------------------------------------------------------------------

_INT_MIN, _INT_MAX = -(1 << 31), (1 << 31) - 1


def _wrap32(value: int) -> int:
    value &= 0xFFFFFFFF
    return value - (1 << 32) if value >= (1 << 31) else value


class _Expr:
    """A random int-typed expression with C render + Python evaluation."""

    def __init__(self, text, value):
        self.text = text
        self.value = value


@st.composite
def int_expr(draw, depth: int = 0) -> "_Expr":
    if depth >= 3 or draw(st.booleans()):
        literal = draw(st.integers(-1000, 1000))
        return _Expr(f"({literal})", literal)
    op = draw(st.sampled_from(["+", "-", "*", "&", "|", "^", "<<", ">>",
                               "/", "%"]))
    left = draw(int_expr(depth + 1))
    right = draw(int_expr(depth + 1))
    if op == "+":
        value = _wrap32(left.value + right.value)
    elif op == "-":
        value = _wrap32(left.value - right.value)
    elif op == "*":
        value = _wrap32(left.value * right.value)
    elif op == "&":
        value = left.value & right.value
    elif op == "|":
        value = left.value | right.value
    elif op == "^":
        value = left.value ^ right.value
    elif op == "<<":
        shift = abs(right.value) % 8
        value = _wrap32(left.value << shift)
        return _Expr(f"({left.text} << {shift})", value)
    elif op == ">>":
        shift = abs(right.value) % 8
        value = left.value >> shift  # arithmetic shift on signed
        return _Expr(f"({left.text} >> {shift})", value)
    else:  # '/' and '%': C truncation toward zero; avoid zero divisors
        divisor = right.value if right.value != 0 else 7
        quotient = abs(left.value) // abs(divisor)
        if (left.value < 0) != (divisor < 0):
            quotient = -quotient
        if op == "/":
            value = _wrap32(quotient)
        else:
            value = _wrap32(left.value - quotient * divisor)
        return _Expr(f"({left.text} {op} ({divisor}))", value)
    return _Expr(f"({left.text} {op} {right.text})", value)


@given(expr=int_expr())
@settings(max_examples=60, deadline=None)
def test_interpreter_matches_c_semantics(expr):
    source = f"""
    int main(void) {{
        int result = {expr.text};
        print_int(result);
        return 0;
    }}
    """
    result = compile_and_run(source, CompilerOptions.baseline())
    assert result.ok, result.trap
    assert int(result.output) == expr.value, expr.text


@given(expr=int_expr())
@settings(max_examples=20, deadline=None)
def test_instrumentation_never_changes_arithmetic(expr):
    """The IFP build computes the same value as baseline, always."""
    source = f"""
    int main(void) {{
        int result = {expr.text};
        print_int(result);
        return 0;
    }}
    """
    baseline = compile_and_run(source, CompilerOptions.baseline())
    wrapped = compile_and_run(source, CompilerOptions.wrapped())
    assert baseline.output == wrapped.output
