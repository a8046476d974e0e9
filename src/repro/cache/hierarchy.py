"""Memory-hierarchy cost model: turns cache hits/misses into cycles.

The model is deliberately simple — a single L1 data cache in front of a
flat-latency main memory — matching the CVA6 prototype's organisation
(the paper notes its FPGA core has "relatively small caches" and that IFP
"does not affect caches").  Metadata fetches issued by the IFP unit go
through the *same* L1D, which is exactly what produces the paper's
wrapped-vs-subheap cache effects.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.cache.cache import Cache


@dataclass(frozen=True)
class HierarchyConfig:
    """Geometry and latency parameters.

    Latencies are in cycles.  ``hit_cycles`` is the additional cost beyond
    the base 1-cycle instruction cost; a hit therefore makes a load cost
    ``1 + hit_cycles`` total, a miss ``1 + hit_cycles + miss_penalty``.
    """

    l1d_size: int = 32 * 1024
    l1d_ways: int = 8
    hit_cycles: int = 1
    miss_penalty: int = 40

    def build(self) -> "CacheHierarchy":
        return CacheHierarchy(self)


class CacheHierarchy:
    """Owns the L1D model and converts accesses to cycle costs."""

    def __init__(self, config: HierarchyConfig = HierarchyConfig()):
        self.config = config
        self.l1d = Cache(config.l1d_size, config.l1d_ways, name="L1D")
        # Hoisted latency constants — access_cycles is the hottest call in
        # the whole simulation, so skip the dataclass attribute chain.
        self._hit_cycles = config.hit_cycles
        self._miss_penalty = config.miss_penalty

    def access_cycles(self, address: int, size: int, write: bool) -> int:
        """Account one data access; return its cycle cost."""
        misses = self.l1d.access(address, size, write)
        return self._hit_cycles + misses * self._miss_penalty

    # -- stats passthrough --------------------------------------------------

    @property
    def l1d_misses(self) -> int:
        return self.l1d.stats.misses

    @property
    def l1d_accesses(self) -> int:
        return self.l1d.stats.accesses

    def reset(self) -> None:
        self.l1d.reset()
