"""Layout-table generation from mini-C types (paper Section 3.4).

The table flattens the subobject tree in DFS preorder, which gives the
key property the instrumentation relies on: the entries for a type T's
subtree have the *same relative shape* wherever T occurs.  The compiler
can therefore maintain the pointer tag's subobject index with constant
``ifpidx`` deltas computed purely from static types:

* descending from a struct-context entry into member ``m``:
  ``delta = 1 + sum(subtree_entries(f) for fields f before m)``;
* descending from a whole-object entry into a top-level array: ``+1``;
* array indexing never changes the index (all elements share the array's
  entry — the property that makes pointer loops instrumentation-free).

Array-of-struct members get one entry for the array (``size`` = element
size) whose children are the element's fields, exactly as in the paper's
Figure 9.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.ifp.layout import LayoutEntry, LayoutTable
from repro.lang.ctypes import ArrayType, CType, StructType, UnionType


def subtree_entries(ctype: CType) -> int:
    """Number of layout-table entries a member of this type contributes."""
    return 1 + sum(subtree_entries(child_type)
                   for _name, _base, _bound, _size, child_type
                   in _children(ctype))


def _children(ctype: CType) -> List[Tuple[str, int, int, int, CType]]:
    """Child sub-entries of a subobject of type ``ctype``.

    Each child is ``(name, base, bound, elem_size, child_type)`` with
    offsets relative to one *element* of ``ctype`` (for arrays) or to the
    struct itself.
    """
    if isinstance(ctype, UnionType):
        # Union members overlap: there is no subobject tree below a
        # union, so narrowing stops at the union's own bounds.
        return []
    if isinstance(ctype, StructType):
        out = []
        for field in ctype.fields:
            elem_size = (field.type.element.size
                         if isinstance(field.type, ArrayType)
                         else field.type.size)
            out.append((field.name, field.offset,
                        field.offset + field.type.size, elem_size,
                        field.type))
        return out
    if isinstance(ctype, ArrayType):
        element = ctype.element
        if isinstance(element, StructType):
            return _children(element)
        if isinstance(element, ArrayType):
            inner_elem = (element.element.size
                          if not isinstance(element.element, ArrayType)
                          else element.element.element.size)
            return [("[]", 0, element.size,
                     element.element.size, element)]
        return []
    return []


def build_layout_table(ctype: CType, type_name: str,
                       max_entries: int) -> Optional[LayoutTable]:
    """Build the layout table for an object of type ``ctype``.

    Returns ``None`` when the type has no subobjects worth a table (plain
    scalars and scalar arrays) or the flattened tree exceeds
    ``max_entries`` (the scheme's subobject-index width).
    """
    if ctype.size <= 0:
        return None
    top_children = _children(ctype)
    if isinstance(ctype, ArrayType) and not isinstance(
            ctype.element, (StructType, ArrayType)):
        return None  # scalar array: object bounds are already exact
    if not top_children and not isinstance(ctype, ArrayType):
        return None

    entries: List[LayoutEntry] = [
        LayoutEntry(0, 0, ctype.size, ctype.size)]
    names: List[str] = [type_name]

    if isinstance(ctype, ArrayType):
        # Whole-object entry 0 plus one entry for the top-level array.
        elem = ctype.element
        elem_size = elem.size
        if len(entries) >= max_entries:
            return None
        entries.append(LayoutEntry(0, 0, ctype.size, elem_size))
        names.append(f"{type_name}[]")
        if not _emit(entries, names, max_entries, 1, f"{type_name}[]",
                     _children(ctype)):
            return None
    else:
        if not _emit(entries, names, max_entries, 0, type_name,
                     top_children):
            return None
    if len(entries) <= 1:
        return None
    return LayoutTable(type_name, entries, names)


def _emit(entries: List[LayoutEntry], names: List[str], max_entries: int,
          parent_index: int, prefix: str, children) -> bool:
    """Append ``children``'s subtrees under entry ``parent_index``
    (depth first); False once the table would exceed ``max_entries``.
    A module function, not a closure: a closure that calls itself is a
    reference cycle."""
    for name, base, bound, elem_size, child_type in children:
        index = len(entries)
        if index >= max_entries:
            return False
        entries.append(LayoutEntry(parent_index, base, bound, elem_size))
        suffix = "[]" if isinstance(child_type, ArrayType) else ""
        names.append(f"{prefix}.{name}{suffix}")
        if not _emit(entries, names, max_entries, index,
                     f"{prefix}.{name}{suffix}", _children(child_type)):
            return False
    return True


def member_delta(struct_type: StructType, member_name: str) -> int:
    """``ifpidx`` delta for descending into ``member_name`` from an entry
    whose children are ``struct_type``'s fields (the struct's own entry or
    an array-of-struct entry)."""
    if isinstance(struct_type, UnionType):
        return 0  # union members share the union's own entry
    delta = 1
    for field in struct_type.fields:
        if field.name == member_name:
            return delta
        delta += subtree_entries(field.type)
    raise KeyError(member_name)


class LayoutTableRegistry:
    """Interns one layout table per type for a compilation.

    Mirrors the paper's sharing: "all objects of the same type can share a
    single table".
    """

    def __init__(self, max_entries: int):
        self.max_entries = max_entries
        self.tables: Dict[str, LayoutTable] = {}
        self._failed: set = set()

    def symbol_for(self, ctype: CType) -> str:
        """Return the image symbol of the type's table, or '' if none."""
        name = _type_key(ctype)
        if name in self._failed:
            return ""
        symbol = f"__IFP_LT_{name}"
        if symbol not in self.tables:
            table = build_layout_table(ctype, name, self.max_entries)
            if table is None:
                self._failed.add(name)
                return ""
            self.tables[symbol] = table
        return symbol


def _type_key(ctype: CType) -> str:
    if isinstance(ctype, StructType):
        return ctype.name
    if isinstance(ctype, ArrayType):
        return f"{_type_key(ctype.element)}_x{ctype.count}"
    return str(ctype).replace(" ", "_").replace("*", "p")
