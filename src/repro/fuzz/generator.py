"""Seeded random mini-C program generator.

Every program is built from a list of *actions*, each of which declares
an object (stack / heap / global; plain array, struct, or nested
array-of-structs), performs only in-bounds accesses on it, and registers
exactly one :class:`AccessSite` — a machine-readable description of one
access the attack injector (:mod:`repro.fuzz.attacks`) knows how to
mutate.  The same spec renders either the clean program or any mutated
variant, so a failing case is always reproducible from ``(seed,
iteration)`` alone.

The surface intentionally spans everything the instrumentation has an
opinion about:

* regions: stack locals, direct ``malloc`` heap objects, heap objects
  obtained through an alloc *wrapper* (no layout table — the paper's
  bzip2 pattern, including through a function pointer), small globals
  (local-offset scheme) and large globals (global-table scheme);
* flows: direct indexing, index through a helper-function argument,
  helper called through a function pointer, pointer escaped through a
  global and reloaded (forces ``promote``), and loop-carried indices;
* shapes: plain arrays, struct member arrays (with and without leading
  members), and members reached through an array-of-structs walk
  (the paper's Figure 9 shape);
* legacy boundaries: ``memset`` / ``memcpy`` / ``strlen`` calls on
  instrumented buffers (never attackable — libc is uninstrumented —
  but a classic false-positive source).

All array elements are ``int`` so struct layouts have no padding and
element arithmetic below stays exact.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

#: Bytes of one array element (everything is ``int``).
ELEM_BYTES = 4

#: Objects larger than this fall back to the global-table scheme
#: (= ``IFPConfig.local_max_object`` for the default 16-byte granule,
#: 6-bit offset encoding).
LOCAL_OFFSET_MAX_BYTES = 1008

_REGIONS = ("stack", "heap", "heap_wrapped", "global", "global_big")
_FLOWS = ("direct", "helper", "fnptr", "reload", "loop")


@dataclass(frozen=True)
class AccessSite:
    """One attackable access in a generated program."""

    sid: int
    obj: str             #: variable name of the accessed object
    region: str          #: 'stack' | 'heap' | 'global'
    flow: str            #: one of :data:`_FLOWS`
    kind: str            #: 'write' | 'read'
    length: int          #: element count of the accessed (member) array
    safe_index: int      #: the in-bounds index the clean program uses
    via_wrapper: bool    #: heap object obtained through an alloc wrapper
    scheme: str          #: 'local_offset' | 'heap' | 'global_table'
    member_offset_elems: int  #: elements before the member (0 = plain)
    object_elems: int    #: total elements in the whole object
    nested: bool         #: reached through an array-of-structs walk
    #: the action can render a temporal (lock-and-key) attack epilogue:
    #: a plain heap array whose pointer the action still owns at the end
    #: of its fragment, so free/realloc can be appended after the access
    temporal_ok: bool = False

    @property
    def narrowable(self) -> bool:
        """Can the defense resolve *subobject* bounds for this access?

        Encodes the paper's Table 4 / Section 3 semantics: alloc-wrapper
        objects carry no layout table and global-table tags have no
        subobject-index bits, so both degrade to object granularity.
        """
        return not self.via_wrapper and self.scheme != "global_table"

    @property
    def intra_room(self) -> int:
        """Elements past the member's end but still inside the object."""
        return self.object_elems - self.member_offset_elems - self.length

    def to_dict(self) -> Dict[str, object]:
        return {
            "sid": self.sid, "obj": self.obj, "region": self.region,
            "flow": self.flow, "kind": self.kind, "length": self.length,
            "safe_index": self.safe_index,
            "via_wrapper": self.via_wrapper, "scheme": self.scheme,
            "member_offset_elems": self.member_offset_elems,
            "object_elems": self.object_elems, "nested": self.nested,
            "temporal_ok": self.temporal_ok,
        }


# ---------------------------------------------------------------------------
# Actions
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class _Action:
    """Base: one self-contained fragment of the generated program."""

    index: int
    site: Optional[AccessSite] = None

    def struct_decls(self) -> List[str]:
        return []

    def global_decls(self) -> List[str]:
        return []

    def main_lines(self, attack_index: Optional[int]) -> List[str]:
        raise NotImplementedError

    def cleanup_lines(self) -> List[str]:
        return []

    def temporal_epilogue(self, kind: str) -> List[str]:
        """Lines appended after the clean fragment for a temporal attack
        (only actions whose site has ``temporal_ok`` support this)."""
        raise NotImplementedError


def _site_index(site: AccessSite, attack_index: Optional[int]) -> int:
    return site.safe_index if attack_index is None else attack_index


def _access(site: AccessSite, pointer: str, idx: int, value: int,
            suffix: str) -> List[str]:
    """Render the site's access through ``pointer`` at index ``idx``."""
    flow, k = site.flow, suffix
    if flow == "direct":
        # Index via a variable: the compiler statically folds literal
        # indices on named objects and emits no ifpbnd for them, so a
        # literal OOB index would be a miscompile-shaped miss rather
        # than the runtime detection this site is meant to exercise.
        lines = [f"    int ix{k} = {idx};"]
        if site.kind == "write":
            lines += [f"    {pointer}[ix{k}] = {value};",
                      f"    g_sink += {pointer}[{site.safe_index}];"]
        else:
            lines += [f"    g_sink += {pointer}[ix{k}];"]
        return lines
    if flow == "helper":
        fn = "helper_w" if site.kind == "write" else "helper_r"
        return [f"    {fn}({pointer}, {idx});"]
    if flow == "fnptr":
        fn = "helper_w" if site.kind == "write" else "helper_r"
        return [f"    g_fn = {fn};",
                f"    g_fn({pointer}, {idx});"]
    if flow == "reload":
        lines = [f"    g_ip = {pointer};",
                 f"    int *rp{k} = g_ip;"]
        if site.kind == "write":
            lines.append(f"    rp{k}[{idx}] = {value};")
        else:
            lines.append(f"    g_sink += rp{k}[{idx}];")
        return lines
    if flow == "loop":
        lines = [f"    int i{k};"]
        if idx >= site.safe_index:        # ascending (over direction)
            lines.append(f"    for (i{k} = 0; i{k} <= {idx}; i{k}++) {{")
        else:                              # descending (under direction)
            lines.append(f"    for (i{k} = {site.safe_index}; "
                         f"i{k} >= {idx}; i{k}--) {{")
        if site.kind == "write":
            lines.append(f"        {pointer}[i{k}] = i{k} + {value};")
        else:
            lines.append(f"        g_sink += {pointer}[i{k}];")
        lines.append("    }")
        return lines
    raise ValueError(flow)


def _alloc_lines(region: str, var: str, bytes_expr: str, cast: str,
                 fnptr_wrapper: bool, k: str) -> List[str]:
    if region == "heap":
        return [f"    {cast}{var} = ({cast.strip() or 'int *'})"
                f"malloc({bytes_expr});"]
    if region == "heap_wrapped":
        if fnptr_wrapper:
            return [f"    g_alloc = wrap_alloc;",
                    f"    {cast}{var} = ({cast.strip() or 'int *'})"
                    f"g_alloc({bytes_expr});"]
        return [f"    {cast}{var} = ({cast.strip() or 'int *'})"
                f"wrap_alloc({bytes_expr});"]
    raise ValueError(region)


@dataclass(frozen=True)
class _ArrayAction(_Action):
    """A plain ``int`` array, filled in-bounds, then the site access."""

    length: int = 8
    fill: bool = True
    fnptr_wrapper: bool = False
    value: int = 7

    def global_decls(self) -> List[str]:
        if self.site.region == "global":
            k = self.index
            return [f"int gpadlo{k}[2];",
                    f"int ga{k}[{self.length}];",
                    f"int gpadhi{k}[2];"]
        return []

    def main_lines(self, attack_index: Optional[int]) -> List[str]:
        site, k = self.site, str(self.index)
        idx = _site_index(site, attack_index)
        lines: List[str] = []
        if site.region == "stack":
            lines += [f"    int padlo{k}[2];",
                      f"    int a{k}[{self.length}];",
                      f"    int padhi{k}[2];",
                      f"    padlo{k}[0] = 0;",
                      f"    padhi{k}[0] = 0;"]
            ptr = f"a{k}"
        elif site.region == "global":
            ptr = f"ga{k}"
        else:
            lines += _alloc_lines(
                site.region if not site.via_wrapper else "heap_wrapped",
                f"h{k}", f"{self.length} * sizeof(int)", "int *",
                self.fnptr_wrapper, k)
            ptr = f"h{k}"
        if self.fill:
            lines += [f"    int f{k};",
                      f"    for (f{k} = 0; f{k} < {self.length}; f{k}++) "
                      f"{{ {ptr}[f{k}] = f{k}; }}"]
        lines += _access(site, ptr, idx, self.value, k)
        return lines

    def cleanup_lines(self) -> List[str]:
        if self.site.region in ("heap", "heap_wrapped") \
                or self.site.via_wrapper:
            return [f"    free(h{self.index});"]
        return []

    def temporal_epilogue(self, kind: str) -> List[str]:
        # Cleanup frees are suppressed whenever an attack is active, so
        # every epilogue renders its own frees — the program's lifetime
        # story must be complete for the lock-and-key verdict to mean
        # anything.
        k, safe = str(self.index), self.site.safe_index
        if kind == "uaf":
            return [f"    free(h{k});",
                    f"    g_sink += h{k}[{safe}];"]
        if kind == "double_free":
            return [f"    free(h{k});",
                    f"    free(h{k});"]
        if kind == "realloc_stale":
            return [f"    int *st{k} = h{k};",
                    f"    h{k} = (int *)realloc(h{k}, "
                    f"{2 * self.length} * sizeof(int));",
                    f"    g_sink += st{k}[{safe}];",
                    f"    free(h{k});"]
        raise ValueError(kind)


@dataclass(frozen=True)
class _StructAction(_Action):
    """A struct with a target member array, accessed via member pointer."""

    pre: int = 0          #: leading int elements before the target member
    target: int = 6       #: target member element count
    post: int = 4         #: trailing member element count (intra room)
    value: int = 5

    @property
    def sname(self) -> str:
        return f"S{self.index}"

    def struct_decls(self) -> List[str]:
        members = []
        if self.pre:
            members.append(f"int pre[{self.pre}];")
        members.append(f"int target[{self.target}];")
        members.append(f"int post[{self.post}];")
        return [f"struct {self.sname} {{ " + " ".join(members) + " };"]

    def global_decls(self) -> List[str]:
        if self.site.region == "global":
            k = self.index
            return [f"int gpadlo{k}[2];",
                    f"struct {self.sname} gs{k};",
                    f"int gpadhi{k}[2];"]
        return []

    def main_lines(self, attack_index: Optional[int]) -> List[str]:
        site, k = self.site, str(self.index)
        idx = _site_index(site, attack_index)
        lines: List[str] = []
        if site.region == "stack":
            lines += [f"    int padlo{k}[2];",
                      f"    struct {self.sname} s{k};",
                      f"    int padhi{k}[2];",
                      f"    padlo{k}[0] = 0;",
                      f"    padhi{k}[0] = 0;",
                      f"    s{k}.post[0] = 3;",
                      f"    int *mp{k} = s{k}.target;"]
        elif site.region == "global":
            lines += [f"    gs{k}.post[0] = 3;",
                      f"    int *mp{k} = gs{k}.target;"]
        else:
            lines += _alloc_lines(
                "heap_wrapped" if site.via_wrapper else "heap",
                f"sp{k}", f"sizeof(struct {self.sname})",
                f"struct {self.sname} *",
                False, k)
            lines += [f"    sp{k}->post[0] = 3;",
                      f"    int *mp{k} = sp{k}->target;"]
        lines += [f"    int t{k};",
                  f"    for (t{k} = 0; t{k} < {self.target}; t{k}++) "
                  f"{{ mp{k}[t{k}] = t{k} + 2; }}"]
        lines += _access(site, f"mp{k}", idx, self.value, k)
        return lines

    def cleanup_lines(self) -> List[str]:
        if self.site.region in ("heap", "heap_wrapped") \
                or self.site.via_wrapper:
            return [f"    free(sp{self.index});"]
        return []


@dataclass(frozen=True)
class _NestedAction(_Action):
    """Array-of-structs member access (the paper's Figure 9 shape)."""

    inner_a: int = 2
    inner_b: int = 2
    count: int = 3        #: elements of the array-of-structs
    tail: int = 4
    element: int = 1      #: which array element the access goes through
    value: int = 9

    @property
    def iname(self) -> str:
        return f"I{self.index}"

    @property
    def oname(self) -> str:
        return f"O{self.index}"

    def struct_decls(self) -> List[str]:
        return [
            f"struct {self.iname} {{ int a[{self.inner_a}]; "
            f"int b[{self.inner_b}]; }};",
            f"struct {self.oname} {{ struct {self.iname} "
            f"arr[{self.count}]; int tail[{self.tail}]; }};",
        ]

    def main_lines(self, attack_index: Optional[int]) -> List[str]:
        site, k = self.site, str(self.index)
        idx = _site_index(site, attack_index)
        lines: List[str] = []
        if site.region == "stack":
            lines += [f"    int padlo{k}[2];",
                      f"    struct {self.oname} o{k};",
                      f"    int padhi{k}[2];",
                      f"    padlo{k}[0] = 0;",
                      f"    padhi{k}[0] = 0;",
                      f"    o{k}.tail[0] = 2;",
                      f"    int *np{k} = o{k}.arr[{self.element}].a;"]
        else:
            lines += [f"    struct {self.oname} *op{k} = "
                      f"(struct {self.oname} *)"
                      f"malloc(sizeof(struct {self.oname}));",
                      f"    op{k}->tail[0] = 2;",
                      f"    int *np{k} = op{k}->arr[{self.element}].a;"]
        lines += [f"    int u{k};",
                  f"    for (u{k} = 0; u{k} < {self.inner_a}; u{k}++) "
                  f"{{ np{k}[u{k}] = u{k} + 4; }}"]
        lines += _access(site, f"np{k}", idx, self.value, k)
        return lines

    def cleanup_lines(self) -> List[str]:
        if self.site.region == "heap":
            return [f"    free(op{self.index});"]
        return []


@dataclass(frozen=True)
class _PtrArithAction(_Action):
    """In-bounds pointer arithmetic walk; the site is the final deref."""

    length: int = 8
    value: int = 11

    def main_lines(self, attack_index: Optional[int]) -> List[str]:
        site, k = self.site, str(self.index)
        idx = _site_index(site, attack_index)
        lines: List[str] = []
        if site.region == "stack":
            lines += [f"    int padlo{k}[2];",
                      f"    int pa{k}[{self.length}];",
                      f"    int padhi{k}[2];",
                      f"    padlo{k}[0] = 0;",
                      f"    padhi{k}[0] = 0;",
                      f"    int w{k};",
                      f"    for (w{k} = 0; w{k} < {self.length}; w{k}++) "
                      f"{{ pa{k}[w{k}] = w{k}; }}",
                      f"    int *pp{k} = pa{k};"]
        else:
            lines += [f"    int *pa{k} = (int*)malloc("
                      f"{self.length} * sizeof(int));",
                      f"    int w{k};",
                      f"    for (w{k} = 0; w{k} < {self.length}; w{k}++) "
                      f"{{ pa{k}[w{k}] = w{k}; }}",
                      f"    int *pp{k} = pa{k};"]
        lines += [f"    pp{k} = pp{k} + ({idx});",
                  f"    *pp{k} = {self.value};",
                  f"    g_sink += *pp{k};"]
        return lines

    def cleanup_lines(self) -> List[str]:
        if self.site.region == "heap":
            return [f"    free(pa{self.index});"]
        return []


@dataclass(frozen=True)
class _LegacyAction(_Action):
    """Uninstrumented-libc boundary crossing; never attackable."""

    variant: str = "strlen"
    length: int = 12

    def main_lines(self, attack_index: Optional[int]) -> List[str]:
        k = str(self.index)
        if self.variant == "strlen":
            return [
                f"    char cb{k}[{self.length}];",
                f"    memset(cb{k}, 'x', {self.length - 1});",
                f"    cb{k}[{self.length - 1}] = 0;",
                f"    g_sink += (int)strlen(cb{k});",
            ]
        if self.variant == "memcpy":
            return [
                f"    int src{k}[{self.length}];",
                f"    int dst{k}[{self.length}];",
                f"    int m{k};",
                f"    for (m{k} = 0; m{k} < {self.length}; m{k}++) "
                f"{{ src{k}[m{k}] = m{k} * 3; }}",
                f"    memcpy(dst{k}, src{k}, "
                f"{self.length} * sizeof(int));",
                f"    g_sink += dst{k}[{self.length - 1}];",
            ]
        if self.variant == "strcmp":
            return [
                f"    g_sink += strcmp(\"fuzz\", \"fuzz\") + "
                f"(int)strlen(\"boundary{k}\");",
            ]
        raise ValueError(self.variant)


# ---------------------------------------------------------------------------
# Program spec & rendering
# ---------------------------------------------------------------------------

_PRELUDE = """\
int g_sink = 0;
int *g_ip;
void helper_w(int *p, int idx) { p[idx] = 7; }
void helper_r(int *p, int idx) { g_sink += p[idx]; }
void (*g_fn)(int *, int);
void *wrap_alloc(unsigned long n) { return malloc(n); }
void *(*g_alloc)(unsigned long);
"""


@dataclass
class ProgramSpec:
    """The structured program: renderable with or without an attack."""

    seed: int
    actions: List[_Action] = field(default_factory=list)

    @property
    def sites(self) -> List[AccessSite]:
        return [a.site for a in self.actions if a.site is not None]

    def site(self, sid: int) -> AccessSite:
        for s in self.sites:
            if s.sid == sid:
                return s
        raise KeyError(sid)


@dataclass(frozen=True)
class GeneratedProgram:
    """A rendered clean program plus its spec (for mutation/replay)."""

    spec: ProgramSpec
    source: str

    @property
    def sites(self) -> List[AccessSite]:
        return self.spec.sites


def render(spec: ProgramSpec,
           attack: Optional[Tuple[int, ...]] = None) -> str:
    """Render the spec to mini-C.

    ``attack`` is ``(site_id, index)``: the named site's index expression
    is replaced by ``index``; everything else renders identically to the
    clean program.  A three-element ``(site_id, index, kind)`` form with
    a temporal ``kind`` ('uaf' | 'double_free' | 'realloc_stale')
    instead keeps the site's access clean and appends the action's
    temporal epilogue — the lifetime violation happens *after* the
    spatial story completes.
    """
    attack_sid = attack[0] if attack is not None else None
    attack_idx = attack[1] if attack is not None else None
    attack_kind = attack[2] if attack is not None and len(attack) > 2 \
        else None
    parts: List[str] = [f"/* repro.fuzz seed={spec.seed} */", _PRELUDE]
    for action in spec.actions:
        parts.extend(action.struct_decls())
    for action in spec.actions:
        parts.extend(action.global_decls())
    body: List[str] = []
    for action in spec.actions:
        hit = action.site is not None and action.site.sid == attack_sid
        this = attack_idx if (hit and attack_kind is None) else None
        body.append(f"    /* action {action.index} */")
        body.extend(action.main_lines(this))
        if hit and attack_kind is not None:
            body.extend(action.temporal_epilogue(attack_kind))
    if attack is None:
        for action in spec.actions:
            body.extend(action.cleanup_lines())
    parts.append("int main(void) {")
    parts.extend(body)
    parts += ["    printf(\"checksum %d\\n\", g_sink);",
              "    return 0;",
              "}"]
    return "\n".join(parts) + "\n"


# ---------------------------------------------------------------------------
# Random generation
# ---------------------------------------------------------------------------

def iteration_seed(seed: int, iteration: int) -> int:
    """The derived seed for one fuzz iteration (stable across runs)."""
    return (seed * 1_000_003 + iteration * 7_919 + 0x9E3779B9) \
        & 0x7FFF_FFFF


def _scheme_for(region: str, length_bytes: int) -> str:
    if region in ("heap", "heap_wrapped"):
        return "heap"
    if length_bytes > LOCAL_OFFSET_MAX_BYTES:
        return "global_table"
    return "local_offset"


def _make_site(sid: int, obj: str, region: str,
               flow: str, kind: str, length: int, safe_index: int,
               via_wrapper: bool, member_offset: int, object_elems: int,
               nested: bool = False,
               temporal_ok: bool = False) -> AccessSite:
    return AccessSite(
        sid=sid, obj=obj,
        region={"heap_wrapped": "heap", "global_big": "global"}.get(
            region, region),
        flow=flow, kind=kind, length=length, safe_index=safe_index,
        via_wrapper=via_wrapper,
        scheme=_scheme_for(region, object_elems * ELEM_BYTES),
        member_offset_elems=member_offset, object_elems=object_elems,
        nested=nested, temporal_ok=temporal_ok)


def _gen_array_action(rng: random.Random, index: int, sid: int) -> _Action:
    region = rng.choice(("stack", "heap", "heap_wrapped", "global",
                         "global_big"))
    flow = rng.choice(_FLOWS)
    kind = rng.choice(("write", "read"))
    if region == "global_big":
        # Big enough that even the 16-byte-granule local-offset scheme
        # cannot encode it: forces the global-table fallback.
        length = rng.choice((260, 300, 400))
    else:
        length = rng.randint(4, 12)
    safe = length - 1 if flow == "loop" else rng.randint(0, length - 1)
    via_wrapper = region == "heap_wrapped"
    site = _make_site(sid, f"a{index}", region, flow, kind, length,
                      safe, via_wrapper, 0, length,
                      temporal_ok=region in ("heap", "heap_wrapped"))
    return _ArrayAction(
        index=index, site=site, length=length, fill=True,
        fnptr_wrapper=via_wrapper and rng.random() < 0.4,
        value=rng.randint(1, 40))


def _gen_struct_action(rng: random.Random, index: int, sid: int) -> _Action:
    region = rng.choice(("stack", "heap", "heap_wrapped", "global",
                         "global_big"))
    # Where narrowing *cannot* work (no layout table / no subobject tag
    # bits) the member pointer must get its bounds from promote — i.e.
    # the reload flow — for the coarsening to be observable; the other
    # flows carry compile-time member bounds that narrow regardless.
    if region in ("heap_wrapped", "global_big"):
        flow = "reload"
    else:
        flow = rng.choice(("direct", "helper", "fnptr", "reload"))
    kind = rng.choice(("write", "read"))
    pre = rng.choice((0, 0, 2, 4))
    target = rng.randint(4, 8)
    post = rng.randint(3, 6)
    if region == "global_big":
        post = rng.choice((300, 400))   # push past the local-offset limit
    safe = rng.randint(0, target - 1)
    via_wrapper = region == "heap_wrapped"
    object_elems = pre + target + post
    site = _make_site(sid, f"s{index}", region, flow, kind, target,
                      safe, via_wrapper, pre, object_elems)
    return _StructAction(index=index, site=site, pre=pre, target=target,
                         post=post, value=rng.randint(1, 40))


def _gen_nested_action(rng: random.Random, index: int, sid: int) -> _Action:
    region = rng.choice(("stack", "heap"))
    flow = rng.choice(("direct", "reload"))
    kind = rng.choice(("write", "read"))
    inner_a = rng.randint(2, 4)
    inner_b = rng.randint(2, 4)
    count = rng.randint(2, 3)
    tail = rng.randint(2, 5)
    element = rng.randint(0, count - 1)
    inner = inner_a + inner_b
    site = _make_site(
        sid, f"o{index}", region, flow, kind, inner_a,
        rng.randint(0, inner_a - 1), False,
        element * inner, count * inner + tail, nested=True)
    return _NestedAction(index=index, site=site, inner_a=inner_a,
                         inner_b=inner_b, count=count, tail=tail,
                         element=element, value=rng.randint(1, 40))


def _gen_ptr_arith_action(rng: random.Random, index: int,
                          sid: int) -> _Action:
    region = rng.choice(("stack", "heap"))
    length = rng.randint(4, 12)
    safe = rng.randint(0, length - 1)
    site = _make_site(sid, f"pa{index}", region, "direct", "write",
                      length, safe, False, 0, length)
    return _PtrArithAction(index=index, site=site, length=length,
                           value=rng.randint(1, 40))


def _gen_legacy_action(rng: random.Random, index: int) -> _Action:
    return _LegacyAction(index=index, site=None,
                         variant=rng.choice(("strlen", "memcpy",
                                             "strcmp")),
                         length=rng.randint(6, 16))


def generate_program(seed: int, iteration: int = 0) -> GeneratedProgram:
    """Generate one deterministic program of two to five actions for
    ``(seed, iteration)``."""
    rng = random.Random(iteration_seed(seed, iteration))
    n_actions = rng.randint(2, 5)
    actions: List[_Action] = []
    sid = 0
    for index in range(n_actions):
        kind = rng.choices(
            ("array", "struct", "nested", "ptr_arith", "legacy"),
            weights=(34, 26, 14, 14, 12))[0]
        if kind == "array":
            actions.append(_gen_array_action(rng, index, sid))
            sid += 1
        elif kind == "struct":
            actions.append(_gen_struct_action(rng, index, sid))
            sid += 1
        elif kind == "nested":
            actions.append(_gen_nested_action(rng, index, sid))
            sid += 1
        elif kind == "ptr_arith":
            actions.append(_gen_ptr_arith_action(rng, index, sid))
            sid += 1
        else:
            actions.append(_gen_legacy_action(rng, index))
    if not any(a.site is not None for a in actions):
        actions.append(_gen_array_action(rng, n_actions, sid))
    spec = ProgramSpec(seed=iteration_seed(seed, iteration),
                       actions=actions)
    return GeneratedProgram(spec=spec, source=render(spec))
