"""Hot-site profiler: per-``(function, instr_index)`` cost attribution.

The paper's overhead story (Figures 10–11, Table 4) is a story about
*sites*: a handful of promote sites and checked accesses dominate each
benchmark.  This profiler is an event-bus sink that attributes promote,
check, and bounds-load/store counts — plus promote and metadata-port
cycles — to the emitting code site, split by tag scheme, and renders a
``top-N`` flamegraph-style text report with per-function rollups.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import Dict, List, Tuple

from repro.obs.events import Event, TrapEvent

_UNATTRIBUTED = ("<runtime>", -1)


@dataclass
class SiteStats:
    """Everything attributed to one ``(function, instr_index)`` site."""

    function: str
    index: int
    promotes: int = 0
    promote_cycles: int = 0
    checks: int = 0
    check_failures: int = 0
    explicit_checks: int = 0
    bounds_loads: int = 0
    bounds_stores: int = 0
    metadata_loads: int = 0
    metadata_cycles: int = 0
    narrows: int = 0
    narrow_success: int = 0
    by_scheme: Counter = field(default_factory=Counter)
    by_outcome: Counter = field(default_factory=Counter)

    @property
    def events(self) -> int:
        return (self.promotes + self.checks
                + self.bounds_loads + self.bounds_stores)

    @property
    def cycles(self) -> int:
        return self.promote_cycles + self.checks \
            + self.bounds_loads + self.bounds_stores

    @property
    def label(self) -> str:
        if self.index < 0:
            return self.function
        return f"{self.function}:{self.index}"

    def to_dict(self) -> dict:
        return {
            "function": self.function, "index": self.index,
            "promotes": self.promotes,
            "promote_cycles": self.promote_cycles,
            "checks": self.checks,
            "check_failures": self.check_failures,
            "explicit_checks": self.explicit_checks,
            "bounds_loads": self.bounds_loads,
            "bounds_stores": self.bounds_stores,
            "metadata_loads": self.metadata_loads,
            "metadata_cycles": self.metadata_cycles,
            "narrows": self.narrows,
            "narrow_success": self.narrow_success,
            "by_scheme": dict(self.by_scheme),
            "by_outcome": dict(self.by_outcome),
        }


class HotSiteProfiler:
    """Event-bus sink aggregating per-site and global counters."""

    def __init__(self) -> None:
        self.sites: Dict[Tuple[str, int], SiteStats] = {}
        #: (region, scheme) -> object count, from SchemeAssignEvents
        self.scheme_assignments: Counter = Counter()
        #: (allocator, action) -> count, from AllocEvents
        self.alloc_actions: Counter = Counter()
        self.mac_verifies = 0
        self.mac_failures = 0
        self.traps: List[TrapEvent] = []

    # -- sink ----------------------------------------------------------------

    def _site(self, event: Event) -> SiteStats:
        key = event.site or _UNATTRIBUTED
        stats = self.sites.get(key)
        if stats is None:
            stats = self.sites[key] = SiteStats(key[0], key[1])
        return stats

    def on_event(self, event: Event) -> None:
        kind = event.kind
        if kind == "promote":
            site = self._site(event)
            site.promotes += 1
            site.promote_cycles += event.cycles
            site.by_scheme[event.scheme] += 1
            site.by_outcome[event.outcome] += 1
        elif kind == "check":
            site = self._site(event)
            site.checks += 1
            if event.explicit:
                site.explicit_checks += 1
            if not event.passed:
                site.check_failures += 1
        elif kind == "bounds_spill":
            site = self._site(event)
            if event.store:
                site.bounds_stores += 1
            else:
                site.bounds_loads += 1
        elif kind == "metadata_fetch":
            site = self._site(event)
            site.metadata_loads += event.loads
            site.metadata_cycles += event.cycles
        elif kind == "narrow":
            site = self._site(event)
            site.narrows += 1
            if event.result == "ok":
                site.narrow_success += 1
        elif kind == "mac_verify":
            self.mac_verifies += 1
            if not event.ok:
                self.mac_failures += 1
        elif kind == "scheme_assign":
            self.scheme_assignments[(event.region, event.scheme)] += 1
        elif kind == "alloc":
            self.alloc_actions[(event.allocator, event.action)] += 1
        elif kind == "trap":
            self.traps.append(event)

    # -- queries -------------------------------------------------------------

    def top_sites(self, count: int = 10,
                  key: str = "cycles") -> List[SiteStats]:
        """Hottest sites, by attributed ``cycles`` (default) or ``events``."""
        if key not in ("cycles", "events"):
            raise ValueError(f"unknown sort key {key!r}")
        ranked = sorted(self.sites.values(),
                        key=lambda s: (getattr(s, key), s.events),
                        reverse=True)
        return ranked[:count] if count > 0 else ranked

    def function_rollup(self) -> Dict[str, SiteStats]:
        """Aggregate all sites of each function into one pseudo-site."""
        rollup: Dict[str, SiteStats] = {}
        for site in self.sites.values():
            agg = rollup.get(site.function)
            if agg is None:
                agg = rollup[site.function] = SiteStats(site.function, -1)
            agg.promotes += site.promotes
            agg.promote_cycles += site.promote_cycles
            agg.checks += site.checks
            agg.check_failures += site.check_failures
            agg.explicit_checks += site.explicit_checks
            agg.bounds_loads += site.bounds_loads
            agg.bounds_stores += site.bounds_stores
            agg.metadata_loads += site.metadata_loads
            agg.metadata_cycles += site.metadata_cycles
            agg.narrows += site.narrows
            agg.narrow_success += site.narrow_success
            agg.by_scheme.update(site.by_scheme)
            agg.by_outcome.update(site.by_outcome)
        return rollup

    @property
    def total_promotes(self) -> int:
        return sum(s.promotes for s in self.sites.values())

    @property
    def total_checks(self) -> int:
        return sum(s.checks for s in self.sites.values())

    # -- reports -------------------------------------------------------------

    def report(self, top: int = 10, width: int = 78) -> str:
        """Flamegraph-style text report of the hottest sites."""
        lines: List[str] = []
        sites = self.top_sites(top)
        if not sites:
            return "no observability events recorded"
        peak = max(s.cycles for s in sites) or 1
        bar_width = max(8, width - 64)  # bars end inside the clamp
        lines.append(f"hot sites (top {len(sites)} by attributed cycles)")
        lines.append(f"  {'site':28s} {'cycles':>9s} {'prom':>7s} "
                     f"{'chk':>7s} {'bls':>5s}  profile")
        for site in sites:
            bar = "#" * max(1, round(site.cycles / peak * bar_width))
            lines.append(
                f"  {site.label:28s} {site.cycles:9d} {site.promotes:7d} "
                f"{site.checks:7d} "
                f"{site.bounds_loads + site.bounds_stores:5d}  {bar}")
            detail = self._site_detail(site)
            if detail:
                lines.append(f"  {'':28s} {detail}")
        rollup = sorted(self.function_rollup().values(),
                        key=lambda s: s.cycles, reverse=True)
        lines.append("")
        lines.append("per-function rollup")
        for agg in rollup[:top]:
            lines.append(
                f"  {agg.function:28s} cycles={agg.cycles:<9d} "
                f"promotes={agg.promotes:<7d} checks={agg.checks:<7d} "
                f"fails={agg.check_failures}")
        if self.scheme_assignments:
            lines.append("")
            lines.append("scheme assignments (region/scheme -> objects)")
            for (region, scheme), count in sorted(
                    self.scheme_assignments.items()):
                lines.append(f"  {region:8s} {scheme:14s} {count:7d}")
        if self.alloc_actions:
            lines.append("")
            lines.append("allocator decisions")
            for (allocator, action), count in sorted(
                    self.alloc_actions.items()):
                lines.append(f"  {allocator:12s} {action:12s} {count:7d}")
        return "\n".join(line[:width] if len(line) > width else line
                         for line in lines)

    @staticmethod
    def _site_detail(site: SiteStats) -> str:
        parts = []
        if site.by_scheme:
            parts.append("schemes: " + ", ".join(
                f"{scheme}={count}"
                for scheme, count in site.by_scheme.most_common()))
        if site.narrows:
            parts.append(f"narrow {site.narrow_success}/{site.narrows}")
        if site.check_failures:
            parts.append(f"{site.check_failures} check failures")
        return "; ".join(parts)

    def metrics(self, top: int = 10) -> dict:
        """Numeric-only nested dict, valid as schema-v2 ``metrics``."""
        return {
            "hot_sites": {s.label: s.cycles for s in self.top_sites(top)},
            "hot_site_promotes": {s.label: s.promotes
                                  for s in self.top_sites(top)},
            "scheme_assignments": {
                f"{region}/{scheme}": count
                for (region, scheme), count
                in sorted(self.scheme_assignments.items())},
            "alloc_actions": {
                f"{allocator}/{action}": count
                for (allocator, action), count
                in sorted(self.alloc_actions.items())},
            "sites_profiled": len(self.sites),
            "total_promotes": self.total_promotes,
            "total_checks": self.total_checks,
            "mac_verifies": self.mac_verifies,
            "mac_failures": self.mac_failures,
            "traps": len(self.traps),
        }

    def to_dict(self, top: int = 25) -> dict:
        return {
            "sites": [s.to_dict() for s in self.top_sites(top)],
            "functions": {name: agg.to_dict()
                          for name, agg in self.function_rollup().items()},
            "scheme_assignments": {
                f"{region}/{scheme}": count
                for (region, scheme), count
                in sorted(self.scheme_assignments.items())},
            "alloc_actions": {
                f"{allocator}/{action}": count
                for (allocator, action), count
                in sorted(self.alloc_actions.items())},
            "mac_verifies": self.mac_verifies,
            "mac_failures": self.mac_failures,
            "traps": len(self.traps),
        }
