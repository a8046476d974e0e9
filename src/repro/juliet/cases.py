"""Juliet-style test-case generator.

Case space = CWE family x memory region x access direction/kind x flow
variant.  Families map to the Juliet categories the paper selected:

========  ===========================================
CWE-121   stack-based buffer overflow (write)
CWE-122   heap-based buffer overflow (write)
CWE-124   buffer underwrite
CWE-126   buffer over-read
CWE-127   buffer under-read
intra     intra-object overflow (the paper's Listing 1)
========  ===========================================

Flow variants mirror Juliet's numbering spirit:

* ``01`` straight-line index;
* ``02`` index flows through a function argument;
* ``03`` pointer flows through a global variable (forces promote);
* ``04`` loop-carried index (off-by-N in the loop bound);
* ``05`` index selected by a runtime condition.

Every case renders to a complete mini-C program whose ``main`` runs the
good path then (for bad variants) the vulnerable path, exactly like the
Juliet harness.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

#: buffer element count used throughout
_N = 10


@dataclass(frozen=True)
class JulietCase:
    """One generated test case."""

    name: str
    cwe: str
    region: str        #: 'stack' | 'heap' | 'global' | 'subobject'
    kind: str          #: 'write' | 'read'
    direction: str     #: 'over' | 'under'
    flow: str          #: '01'..'05'
    source: str
    is_bad: bool       #: True when the program performs the violation

    @property
    def expect_trap(self) -> bool:
        return self.is_bad


# -- program templates --------------------------------------------------------

_PRELUDE = """
int g_sink = 0;
int *g_ptr;

void use(int value) { g_sink += value; }
"""

_FLOW_BODIES = {
    # each body receives: DECL (buffer declaration + ptr setup), IDX
    "01": """
{DECL}
    int idx = {IDX};
    {ACCESS}
""",
    "02": """
{DECL}
    {HELPER_CALL}
""",
    "03": """
{DECL}
    g_ptr = buf;
    {GLOBAL_ACCESS}
""",
    "04": """
{DECL}
    int i;
    for (i = {LOOP_START}; {LOOP_COND}; i{LOOP_STEP}) {{
        int idx = i;
        {ACCESS}
    }}
""",
    "05": """
{DECL}
    int idx = {SAFE_IDX};
    if (g_sink == 0) {{ idx = {IDX}; }}
    {ACCESS}
""",
}

_HELPERS = {
    "write": """
void helper(int *p, int idx) { p[idx] = 42; }
""",
    "read": """
void helper(int *p, int idx) { use(p[idx]); }
""",
}


def _decl_for(region: str) -> str:
    if region == "stack":
        return f"    int buf[{_N}];\n    buf[0] = 1;"
    if region == "heap":
        return (f"    int *buf = (int*)malloc({_N} * sizeof(int));\n"
                f"    buf[0] = 1;")
    if region == "global":
        return "    int *buf = g_buffer;\n    buf[0] = 1;"
    if region == "subobject":
        return ("    struct Holder holder;\n"
                "    holder.after[0] = 7;\n"
                "    int *buf = holder.target;\n"
                "    buf[0] = 1;")
    raise ValueError(region)


def _index_for(direction: str, bad: bool) -> int:
    if not bad:
        return _N - 1 if direction == "over" else 0
    return _N if direction == "over" else -1


def _render(region: str, kind: str, direction: str, flow: str,
            bad: bool) -> str:
    access_expr = "buf[idx] = 42;" if kind == "write" else "use(buf[idx]);"
    global_idx = _index_for(direction, bad)
    parts: List[str] = []
    if region == "subobject":
        parts.append(f"struct Holder {{ int target[{_N}]; "
                     f"int after[{_N}]; }};\n")
    parts.append(_PRELUDE)
    if region == "global":
        parts.append(f"int g_buffer[{_N}];\n")
    if flow == "02":
        parts.append(_HELPERS[kind])
    body = _FLOW_BODIES[flow].format(
        DECL=_decl_for(region),
        IDX=_index_for(direction, bad),
        SAFE_IDX=_index_for(direction, False),
        ACCESS=access_expr,
        HELPER_CALL=f"helper(buf, {global_idx});",
        GLOBAL_ACCESS=("g_ptr[{0}] = 42;" if kind == "write"
                       else "use(g_ptr[{0}]);").format(global_idx),
        LOOP_START=0 if direction == "over" else (_N - 1),
        LOOP_COND=(f"i <= {global_idx}" if direction == "over"
                   else f"i >= {global_idx}"),
        LOOP_STEP="++" if direction == "over" else "--",
    )
    free_stmt = "    free(buf);\n" if region == "heap" else ""
    parts.append(f"""
int run_case(void) {{
{body}
{free_stmt}    return g_sink;
}}

int main(void) {{
    run_case();
    printf("done %d\\n", g_sink);
    return 0;
}}
""")
    return "".join(parts)


# -- temporal (lock-and-key) families ----------------------------------------
#
# CWE-415 (double free), CWE-416 (use after free), and the realloc-stale
# variant of CWE-416.  These are *opt-in* — ``generate_cases()`` does not
# include them, so spatial suite totals (and the fingerprints of
# pre-temporal campaign manifests) are unchanged.  Run them through
# ``generate_temporal_cases()`` with ``temporal="check"|"quarantine"``.

_UAF_ACCESS = {"read": "use(buf[1]);", "write": "buf[1] = 9;"}
_UAF_GACCESS = {"read": "use(g_ptr[1]);", "write": "g_ptr[1] = 9;"}
_UAF_HELPERS = {
    "read": "void helper(int *p) { use(p[1]); }\n",
    "write": "void helper(int *p) { p[1] = 9; }\n",
}
_FREE_HELPER = "void helper_free(int *p) { free(p); }\n"

#: oversize element count: 8192 ints = 32 KiB, above the subheap size
#: classes and the wrapped allocator's local-offset reach — both
#: allocators route such objects through the GLOBAL_TABLE scheme, so
#: ``generate_temporal_cases(big=True)`` exercises the third paper
#: scheme's temporal path
_N_BIG = 8192


def _heap_decl(count: int) -> str:
    return (f"    int *buf = (int*)malloc({count} * sizeof(int));\n"
            "    buf[0] = 1;")

#: (family, flow) -> (bad body, good body); {ACCESS}/{GACCESS} filled per
#: kind.  Flow numbering mirrors the spatial families: 01 straight-line,
#: 02 through a function argument, 03 through a global (forces promote),
#: 04 loop-carried, 05 runtime condition.
_UAF_BODIES = {
    "01": ("    free(buf);\n    {ACCESS}",
           "    {ACCESS}\n    free(buf);"),
    "02": ("    helper_free(buf);\n    helper(buf);",
           "    helper(buf);\n    helper_free(buf);"),
    "03": ("    g_ptr = buf;\n    free(buf);\n    {GACCESS}",
           "    g_ptr = buf;\n    {GACCESS}\n    free(buf);"),
    "04": ("    int i;\n"
           "    for (i = 0; i < 2; i++) {{\n"
           "        if (i == 1) {{ {ACCESS} }}\n"
           "        if (i == 0) {{ free(buf); }}\n"
           "    }}",
           "    int i;\n"
           "    for (i = 0; i < 2; i++) {{\n"
           "        if (i == 1) {{ {ACCESS} }}\n"
           "    }}\n"
           "    free(buf);"),
    "05": ("    if (g_sink == 0) {{ free(buf); }}\n    {ACCESS}",
           "    if (g_sink == 0) {{ {ACCESS} }}\n    free(buf);"),
}

_DFREE_BODIES = {
    "01": ("    free(buf);\n    free(buf);",
           "    free(buf);"),
    "02": ("    helper_free(buf);\n    free(buf);",
           "    helper_free(buf);"),
    "03": ("    g_ptr = buf;\n    free(g_ptr);\n    free(buf);",
           "    g_ptr = buf;\n    free(g_ptr);"),
    "04": ("    int i;\n"
           "    for (i = 0; i < 2; i++) {{ free(buf); }}",
           "    int i;\n"
           "    for (i = 0; i < 1; i++) {{ free(buf); }}"),
    "05": ("    free(buf);\n    if (g_sink == 0) {{ free(buf); }}",
           "    free(buf);\n    if (g_sink != 0) {{ free(buf); }}"),
}

_STALE_BODIES = {
    "01": ("    int *stale = buf;\n"
           f"    buf = (int*)realloc(buf, {4 * _N} * sizeof(int));\n"
           "    {ACCESS_STALE}\n"
           "    free(buf);",
           f"    buf = (int*)realloc(buf, {4 * _N} * sizeof(int));\n"
           "    {ACCESS}\n"
           "    free(buf);"),
    "03": ("    g_ptr = buf;\n"
           f"    buf = (int*)realloc(buf, {4 * _N} * sizeof(int));\n"
           "    {GACCESS}\n"
           "    free(buf);",
           f"    buf = (int*)realloc(buf, {4 * _N} * sizeof(int));\n"
           "    g_ptr = buf;\n"
           "    {GACCESS}\n"
           "    free(buf);"),
}

_STALE_ACCESS = {"read": "use(stale[1]);", "write": "stale[1] = 9;"}


def _render_temporal(family: str, kind: str, flow: str, bad: bool,
                     count: int = _N) -> str:
    parts: List[str] = [_PRELUDE]
    if flow == "02":
        parts.append(_FREE_HELPER)
        if family == "uaf":
            parts.append(_UAF_HELPERS[kind])
    if family == "uaf":
        body = _UAF_BODIES[flow][0 if bad else 1]
    elif family == "dfree":
        body = _DFREE_BODIES[flow][0 if bad else 1]
    else:
        body = _STALE_BODIES[flow][0 if bad else 1]
    body = body.format(
        ACCESS=_UAF_ACCESS[kind],
        GACCESS=_UAF_GACCESS[kind],
        ACCESS_STALE=_STALE_ACCESS[kind],
    )
    parts.append(f"""
int run_case(void) {{
{_heap_decl(count)}
{body}
    return g_sink;
}}

int main(void) {{
    run_case();
    printf("done %d\\n", g_sink);
    return 0;
}}
""")
    return "".join(parts)


def generate_temporal_cases(
        flows: Optional[List[str]] = None,
        big: bool = False) -> List[JulietCase]:
    """Generate the opt-in CWE-415/416 (temporal) case matrix.

    Bad cases are expected to trap when the machine runs with
    ``temporal="check"`` or ``"quarantine"`` (double frees additionally
    trap as ``InvalidFree`` even with temporal off — the allocators'
    structural headers catch them); good cases must stay transparent
    under every policy.

    ``big=True`` sizes every buffer above the subheap size classes so
    both allocators route it through the GLOBAL_TABLE scheme — the
    temporal-key path of the third paper scheme.
    """
    flows = flows or ["01", "02", "03", "04", "05"]
    count = _N_BIG if big else _N
    suffix = "_gt" if big else ""
    cases: List[JulietCase] = []
    for kind in ("read", "write"):
        for flow in flows:
            for bad in (False, True):
                tag = "bad" if bad else "good"
                cases.append(JulietCase(
                    name=f"CWE-416_heap_{kind}_uaf_v{flow}{suffix}_{tag}",
                    cwe="CWE-416", region="heap", kind=kind,
                    direction="uaf", flow=flow,
                    source=_render_temporal("uaf", kind, flow, bad,
                                            count),
                    is_bad=bad))
    for flow in flows:
        for bad in (False, True):
            tag = "bad" if bad else "good"
            cases.append(JulietCase(
                name=f"CWE-415_heap_free_dfree_v{flow}{suffix}_{tag}",
                cwe="CWE-415", region="heap", kind="free",
                direction="dfree", flow=flow,
                source=_render_temporal("dfree", "read", flow, bad,
                                        count),
                is_bad=bad))
    for kind in ("read", "write"):
        for flow in [f for f in flows if f in _STALE_BODIES]:
            for bad in (False, True):
                tag = "bad" if bad else "good"
                cases.append(JulietCase(
                    name=f"CWE-416_heap_{kind}_stale_v{flow}{suffix}"
                         f"_{tag}",
                    cwe="CWE-416", region="heap", kind=kind,
                    direction="stale", flow=flow,
                    source=_render_temporal("stale", kind, flow, bad,
                                            count),
                    is_bad=bad))
    return cases


_CWE_BY = {
    ("stack", "write", "over"): "CWE-121",
    ("heap", "write", "over"): "CWE-122",
    ("global", "write", "over"): "CWE-121",
    ("subobject", "write", "over"): "intra-object",
}


def _cwe(region: str, kind: str, direction: str) -> str:
    if kind == "read":
        return "CWE-126" if direction == "over" else "CWE-127"
    if direction == "under":
        return "CWE-124"
    return _CWE_BY.get((region, kind, direction), "CWE-121")


def generate_cases(regions: Optional[List[str]] = None,
                   flows: Optional[List[str]] = None) -> List[JulietCase]:
    """Generate the full good+bad case matrix."""
    regions = regions or ["stack", "heap", "global", "subobject"]
    flows = flows or ["01", "02", "03", "04", "05"]
    cases: List[JulietCase] = []
    for region in regions:
        for kind in ("write", "read"):
            for direction in ("over", "under"):
                if region == "subobject" and direction == "under":
                    # Under-reads of a leading member land before the
                    # object; covered by the stack/heap under cases.
                    continue
                for flow in flows:
                    for bad in (False, True):
                        name = (f"{_cwe(region, kind, direction)}_"
                                f"{region}_{kind}_{direction}_v{flow}_"
                                f"{'bad' if bad else 'good'}")
                        cases.append(JulietCase(
                            name=name,
                            cwe=_cwe(region, kind, direction),
                            region=region, kind=kind, direction=direction,
                            flow=flow,
                            source=_render(region, kind, direction, flow,
                                           bad),
                            is_bad=bad))
    return cases
