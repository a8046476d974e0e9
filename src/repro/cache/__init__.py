"""Set-associative cache models and the memory-hierarchy cost model.

Used by the VM's load-store unit and by the IFP unit's metadata fetches to
attribute cycle costs, reproducing the paper's cache-behaviour analysis
(e.g. the wrapped allocator inflating L1 D-cache misses on *health*/*ft*).
"""

from repro.cache.cache import LINE_BYTES, LINE_SHIFT, Cache, CacheStats
from repro.cache.hierarchy import CacheHierarchy, HierarchyConfig

__all__ = ["LINE_BYTES", "LINE_SHIFT", "Cache", "CacheStats",
           "CacheHierarchy", "HierarchyConfig"]
