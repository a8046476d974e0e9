"""Tables 1-3: the paper's static comparison tables as data.

Table 2's rows are additionally *verified against the implementation* by
the benchmark harness (``benchmarks/bench_table2_schemes.py``): each
claimed constraint (base-address control, size limit, object-count limit)
is checked against the corresponding scheme class's actual behaviour.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List


@dataclass(frozen=True)
class Table1Row:
    defense: str
    metadata_subject: str     #: Pointer / Object / Memory / None
    granularity: str          #: Subobject / Object / Partial
    lost_compatibility: str   #: '' | 'binary' | 'source' | 'binary+source'
    required_feature: str     #: '' | 'shadow-memory' | 'tagged-memory'
    tagged_pointer: bool
    hardware: bool = False    #: hardware-assisted (vs software-only)


TABLE1_ROWS: List[Table1Row] = [
    Table1Row("Intel MPX", "Pointer", "Subobject", "", "shadow-memory", False, True),
    Table1Row("HardBound", "Pointer", "Subobject", "", "shadow-memory", False, True),
    Table1Row("WatchdogLite", "Pointer", "Subobject", "", "shadow-memory", False, True),
    Table1Row("SoftBound", "Pointer", "Subobject", "", "shadow-memory", False, False),
    Table1Row("CHERI", "Pointer", "Subobject", "binary", "tagged-memory", False, True),
    Table1Row("Shakti-MS", "Pointer+Object", "Subobject", "binary+source", "", False, True),
    Table1Row("ALEXIA", "Pointer+Object", "Subobject", "binary", "", False, True),
    Table1Row("BaggyBound", "Object/None", "Object", "binary", "shadow-memory", True, False),
    Table1Row("PAriCheck", "Object", "Object", "", "shadow-memory", False, False),
    Table1Row("AddressSanitizer", "Memory", "Partial", "", "shadow-memory", False, False),
    Table1Row("REST", "Memory", "Partial", "", "tagged-memory", False, True),
    Table1Row("Califorms", "Memory", "Partial", "binary+source", "tagged-memory", False, True),
    Table1Row("Prober", "None", "Partial", "", "", False, False),
    Table1Row("Low-Fat Pointer", "None", "Object", "", "", True, True),
    Table1Row("SMA", "None", "Object", "", "", True, False),
    Table1Row("CUP", "Object", "Object", "", "", True, False),
    Table1Row("FRAMER", "Object", "Object", "", "", True, False),
    Table1Row("AOS", "Object", "Object", "", "", True, True),
    Table1Row("EffectiveSan", "Object", "Subobject", "", "", True, False),
    Table1Row("ARM MTE", "Memory", "Partial", "", "tagged-memory", True, True),
    Table1Row("In-Fat Pointer", "Object", "Subobject", "", "", True, True),
]


@dataclass(frozen=True)
class Table2Row:
    scheme: str
    constrains_base_address: bool   #: B — needs control of object placement
    limits_object_size: bool        #: S
    limits_object_count: bool       #: C
    use_scenario: str


TABLE2_ROWS: List[Table2Row] = [
    Table2Row("Local Offset Scheme", False, True, False,
              "Small Objects, Local Variables"),
    Table2Row("Subheap Scheme", True, True, False,
              "Heap-allocated Objects"),
    Table2Row("Global Table Scheme", False, False, True,
              "Global Arrays, Fallback"),
]


@dataclass(frozen=True)
class Table3Row:
    mnemonic: str
    description: str
    variants: bool = False


TABLE3_ROWS: List[Table3Row] = [
    Table3Row("promote", "pointer bounds retrieval"),
    Table3Row("ifpmac", "MAC computation"),
    Table3Row("ldbnd", "load bounds from memory"),
    Table3Row("stbnd", "store bounds to memory"),
    Table3Row("ifpbnd", "create pointer bounds with given size"),
    Table3Row("ifpadd", "address computation and tag update"),
    Table3Row("ifpidx", "subobject index update"),
    Table3Row("ifpchk", "(bounds) access size check"),
    Table3Row("ifpextract", "extract fields from IFPR / demote", True),
    Table3Row("ifpmd", "pointer tags manipulation", True),
]


def format_table1() -> str:
    lines = [f"{'defense':18s} {'metadata':16s} {'granularity':12s} "
             f"{'compat loss':13s} {'requires':14s} {'tagged-ptr':>10s}"]
    for r in TABLE1_ROWS:
        lines.append(
            f"{r.defense:18s} {r.metadata_subject:16s} "
            f"{r.granularity:12s} {r.lost_compatibility or '-':13s} "
            f"{r.required_feature or '-':14s} "
            f"{'yes' if r.tagged_pointer else 'no':>10s}")
    return "\n".join(lines)


def format_table2() -> str:
    lines = [f"{'scheme':22s} {'B':>2s} {'S':>2s} {'C':>2s}  use scenario"]
    for r in TABLE2_ROWS:
        lines.append(
            f"{r.scheme:22s} "
            f"{'B' if r.constrains_base_address else '-':>2s} "
            f"{'S' if r.limits_object_size else '-':>2s} "
            f"{'C' if r.limits_object_count else '-':>2s}  "
            f"{r.use_scenario}")
    return "\n".join(lines)


def format_table3() -> str:
    lines = [f"{'mnemonic':12s} description"]
    for r in TABLE3_ROWS:
        suffix = "  (multiple variants)" if r.variants else ""
        lines.append(f"{r.mnemonic:12s} {r.description}{suffix}")
    return "\n".join(lines)
