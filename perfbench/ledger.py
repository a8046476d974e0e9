"""The traced pass: host-time spans and a per-layer ledger.

Spans are recorded from outside the program, by wrapping the public
calls of each layer for the length of one pass:

======================  =============================================
span                    wrapped call
======================  =============================================
``lang.parse``          ``repro.lang.parser.parse``
``lang.sema``           ``repro.lang.sema.analyze``
``compiler.codegen``    ``repro.compiler.compile.compile_program``
``vm.load``             ``Machine(...)``
``vm.run``              ``Machine.run``
``fastpath.translate``  ``FastInterpreter._translate_fused/_singles/_super``
======================  =============================================

``CampaignRunner.run_cell`` is wrapped too, to count fault injections
and watchdog timeouts.

Each op gets one root span; the spans of an op share its index.  A
span's self time is its duration minus the time its child spans cover.
The self time of the ``vm.run`` spans is split further into the fine
layers (dispatch, IFP unit, memory, cache model, runtime, temporal
registry, fault injection) by ``cProfile``, which is enabled only inside
``vm.run`` spans and paused inside their translation spans: each
function's own time is assigned to the layer of its source module and
the layer totals are scaled to the measured span self time.
The profiler's per-call cost inflates call-heavy layers, so these
splits rank layers more reliably than they time them.
"""

from __future__ import annotations

import cProfile
import json
from collections import defaultdict
from contextlib import contextmanager
from pathlib import Path
from time import perf_counter
from typing import Dict, List, Optional

import repro.compiler.compile as compile_module
from repro.compiler.ir import Op as IROp
from repro.resil.matrix import CampaignRunner
from repro.vm import Machine
from repro.vm.fastpath import FastInterpreter

#: ``repro`` subpackage -> fine layer inside ``Machine.run``
RUN_LAYERS = {"vm": "vm.dispatch_s", "ifp": "ifp.self_s",
              "mem": "mem.self_s", "cache": "cache.self_s",
              "runtime": "runtime.self_s", "temporal": "temporal.self_s",
              "resil": "resil.self_s"}
#: span name -> layer metric of its self time
SPAN_LAYERS = {"lang.parse": "lang.parse_s", "lang.sema": "lang.sema_s",
               "compiler.codegen": "compiler.codegen_s",
               "vm.load": "vm.load_s",
               "fastpath.translate": "fastpath.translate_s",
               "resil.cell": "resil.self_s"}
OTHER = "other.self_s"
_TRANSLATE_KINDS = ("fused", "singles", "super")


class Ledger:
    """Spans and simulated counts of one traced pass, kept in memory."""

    def __init__(self) -> None:
        #: [op index, span id, parent id (-1 for a root), name, start, end]
        self.spans: List[list] = []
        self.op = -1
        self._stack: List[int] = []
        self.profile = cProfile.Profile()
        self.counts: Dict[str, int] = defaultdict(int)
        self._running_depth = 0

    def open(self, name: str) -> int:
        span_id = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([self.op, span_id, parent, name, perf_counter(),
                           0.0])
        self._stack.append(span_id)
        return span_id

    def close(self, span_id: int) -> None:
        self.spans[span_id][5] = perf_counter()
        self._stack.pop()

    # -- wrapping the layers' public calls ------------------------------------

    def _spanned(self, name: str, fn, after=None):
        def spanned(*args, **kwargs):
            span_id = self.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(span_id)
            if after is not None:
                after(result)
            return result
        return spanned

    def _translating(self, kind: str, fn):
        """Translation has its own span, so it stays out of the profile."""
        profile = self.profile

        def translating(*args, **kwargs):
            profiled = self._running_depth > 0
            if profiled:
                profile.disable()
            span_id = self.open("fastpath.translate")
            try:
                return fn(*args, **kwargs)
            finally:
                self.close(span_id)
                self.counts["fastpath.translations_" + kind] += 1
                if profiled:
                    profile.enable()
        return translating

    def _running(self, fn):
        profile = self.profile

        def running(machine, *args, **kwargs):
            span_id = self.open("vm.run")
            self._running_depth += 1
            profile.enable()
            try:
                result = fn(machine, *args, **kwargs)
            finally:
                profile.disable()
                self._running_depth -= 1
                self.close(span_id)
            self._count_run(result.stats)
            return result
        return running

    def _count_cell(self, cell) -> None:
        self.counts["resil.injections"] += cell.injections
        self.counts["resil.timeouts"] += cell.outcome == "timeout"

    def _count_program(self, program) -> None:
        for func in program.functions.values():
            self.counts["compiler.ir_instrs"] += len(func.instrs)
            self.counts["compiler.promote_sites"] += sum(
                1 for ins in func.instrs if ins.op is IROp.PROMOTE)

    def _count_run(self, stats) -> None:
        counts = self.counts
        counts["sim.instructions"] += stats.total_instructions
        counts["sim.cycles"] += stats.cycles
        counts["mem.loads_stores"] += stats.loads + stats.stores
        counts["cache.l1d_accesses"] += stats.l1d_accesses
        counts["cache.l1d_misses"] += stats.l1d_misses
        counts["runtime.heap_allocs"] += stats.heap_objects
        counts["runtime.heap_frees"] += stats.heap_frees
        counts["temporal.checks"] += stats.temporal_checks
        for name in ("promotes_total", "promote_elisions",
                     "promote_cache_hits", "promote_cache_misses",
                     "promote_cache_invalidations", "layout_cache_hits",
                     "layout_cache_misses", "mac_cache_hits",
                     "mac_cache_misses"):
            counts["ifp." + name] += getattr(stats.ifp, name)

    @contextmanager
    def installed(self):
        """Wrap every layer's public call for the duration of the block."""
        patches = [
            (compile_module, "parse", self._spanned(
                "lang.parse", compile_module.parse)),
            (compile_module, "analyze", self._spanned(
                "lang.sema", compile_module.analyze)),
            (compile_module, "compile_program", self._spanned(
                "compiler.codegen", compile_module.compile_program,
                self._count_program)),
            (Machine, "__init__", self._spanned(
                "vm.load", Machine.__init__)),
            (Machine, "run", self._running(Machine.run)),
            (CampaignRunner, "run_cell", self._spanned(
                "resil.cell", CampaignRunner.run_cell, self._count_cell)),
        ] + [(FastInterpreter, f"_translate_{kind}", self._translating(
            kind, getattr(FastInterpreter, f"_translate_{kind}")))
             for kind in _TRANSLATE_KINDS]
        saved = [(owner, name, getattr(owner, name))
                 for owner, name, _ in patches]
        try:
            for owner, name, wrapper in patches:
                setattr(owner, name, wrapper)
            yield self
        finally:
            for owner, name, original in saved:
                setattr(owner, name, original)

    # -- the ledger -------------------------------------------------------------

    def self_times(self) -> Dict[str, float]:
        """Span name -> summed self time; root spans sum under ``op``."""
        covered = [0.0] * len(self.spans)
        for _op, _id, parent, _name, start, end in self.spans:
            if parent >= 0:
                covered[parent] += end - start
        totals: Dict[str, float] = defaultdict(float)
        for _op, span_id, parent, name, start, end in self.spans:
            totals[name if parent >= 0 else "op"] += \
                end - start - covered[span_id]
        return totals

    def table(self, traced_pass_s: float, untraced_pass_s: float
              ) -> Dict[str, float]:
        """The per-layer metrics of the pass (seconds, counts, ratios)."""
        spans = self.self_times()
        layers = {metric: spans.get(name, 0.0)
                  for name, metric in SPAN_LAYERS.items()}
        run_self = spans.get("vm.run", 0.0)
        shares = _run_shares(self.profile)
        for metric in RUN_LAYERS.values():
            layers[metric] = layers.get(metric, 0.0) \
                + run_self * shares.get(metric, 0.0)
        # op roots' own time: verdicts and digests
        root_s = spans.get("op", 0.0)
        layers[OTHER] = root_s + run_self * shares.get(OTHER, 0.0)
        counts = self.counts
        translations = {"fastpath.translations_" + kind:
                        counts["fastpath.translations_" + kind]
                        for kind in _TRANSLATE_KINDS}
        return {
            **layers,
            "compiler.ir_instrs": counts["compiler.ir_instrs"],
            "compiler.promote_sites": counts["compiler.promote_sites"],
            "vm.exec_mips": (counts["sim.instructions"] / run_self / 1e6
                             if run_self else 0.0),
            "fastpath.translations": sum(translations.values()),
            **translations,
            "ifp.promotes": counts["ifp.promotes_total"],
            "ifp.promote_cache_hit_ratio": _ratio(
                counts["ifp.promote_cache_hits"],
                counts["ifp.promote_cache_misses"]),
            "ifp.promote_elisions": counts["ifp.promote_elisions"],
            "ifp.layout_cache_hit_ratio": _ratio(
                counts["ifp.layout_cache_hits"],
                counts["ifp.layout_cache_misses"]),
            "ifp.mac_cache_hit_ratio": _ratio(
                counts["ifp.mac_cache_hits"], counts["ifp.mac_cache_misses"]),
            "ifp.promote_cache_invalidations":
                counts["ifp.promote_cache_invalidations"],
            "runtime.heap_allocs": counts["runtime.heap_allocs"],
            "runtime.heap_frees": counts["runtime.heap_frees"],
            "mem.loads_stores": counts["mem.loads_stores"],
            "cache.l1d_miss_ratio": _ratio(
                counts["cache.l1d_misses"],
                counts["cache.l1d_accesses"] - counts["cache.l1d_misses"]),
            "temporal.checks": counts["temporal.checks"],
            "resil.injections": counts["resil.injections"],
            "resil.timeouts": counts["resil.timeouts"],
            "sim.instructions": counts["sim.instructions"],
            "sim.cycles": counts["sim.cycles"],
            "trace.overhead": traced_pass_s / untraced_pass_s,
            "trace.coverage": sum(layers.values()) / traced_pass_s,
            "trace.root_share": root_s / traced_pass_s,
        }

    def write(self, path: Path, header: dict, table: Dict[str, float],
              op_keys: List[str]) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        document = dict(header, layers=table, ops=op_keys,
                        span_fields=["op", "id", "parent", "name", "start",
                                     "end"],
                        spans=self.spans)
        path.write_text(json.dumps(document) + "\n")


def _ratio(hits: int, misses: int) -> float:
    """hits / (hits + misses); 0 when there were no lookups."""
    total = hits + misses
    return hits / total if total else 0.0


# -- cProfile attribution -------------------------------------------------------

def _owner(code) -> Optional[str]:
    """The layer a profiled function's own time belongs to, or None when
    it follows its callers (builtins, the standard library, and methods
    generated by ``dataclasses``/``namedtuple``)."""
    if isinstance(code, str):
        return None
    path = code.co_filename
    if path == "<string>":
        # exec-compiled: the fastpath's translated guest code, unless it
        # is a generated dataclass/namedtuple method
        if code.co_qualname.startswith("__create_fn__") \
                or code.co_name == "<lambda>":
            return None
        return RUN_LAYERS["vm"]
    parts = Path(path).parts
    if "repro" not in parts:
        return None
    index = len(parts) - 1 - parts[::-1].index("repro")
    package = parts[index + 1] if index + 1 < len(parts) else ""
    return RUN_LAYERS.get(package, OTHER)


def _add(acc: Dict[str, float], shares: Dict[str, float],
         weight: float) -> None:
    for layer, share in shares.items():
        acc[layer] += weight * share


def _run_shares(profile: cProfile.Profile) -> Dict[str, float]:
    """Share of the profiled ``vm.run`` time per fine layer.  A function
    that follows its callers takes their layers, split by the own time it
    spent under each."""
    own: Dict[object, float] = defaultdict(float)
    callers: Dict[object, list] = defaultdict(list)
    for entry in profile.getstats():
        own[entry.code] += entry.inlinetime
        for sub in entry.calls or ():
            weight = sub.inlinetime or 1e-9 * sub.callcount
            callers[sub.code].append((entry.code, weight))

    shares: Dict[object, Dict[str, float]] = {}
    followers = []
    for code in own:
        owner = _owner(code)
        if owner is None:
            followers.append(code)
        else:
            shares[code] = {owner: 1.0}
    # calls from owners are fixed, so sum them once; calls from other
    # followers settle over a few rounds
    fixed: Dict[object, Dict[str, float]] = {}
    chained: Dict[object, list] = {}
    weights: Dict[object, float] = {}
    for code in followers:
        acc: Dict[str, float] = defaultdict(float)
        chain = []
        for caller, weight in callers.get(code, ()):
            if caller in shares:
                _add(acc, shares[caller], weight)
            else:
                chain.append((caller, weight))
        fixed[code], chained[code] = acc, chain
        weights[code] = sum(w for _c, w in callers.get(code, ()))
    for _ in range(32 if any(chained.values()) else 1):
        for code in followers:
            total = weights[code]
            if not total:
                shares[code] = {OTHER: 1.0}
                continue
            acc = defaultdict(float, fixed[code])
            for caller, weight in chained[code]:
                _add(acc, shares.get(caller, {}), weight)
            shares[code] = {layer: v / total for layer, v in acc.items()}

    totals: Dict[str, float] = defaultdict(float)
    for code, seconds in own.items():
        _add(totals, shares.get(code, {OTHER: 1.0}), seconds)
    grand = sum(totals.values())
    return {layer: v / grand for layer, v in totals.items()} if grand else {}
