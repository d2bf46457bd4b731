"""Bounded LRU caches for per-design pricing.

A sequential search such as (1+1)-ES re-proposes the same design points
and layer mappings one at a time, so per-design pricing memoizes both
whole-design evaluations and per-layer cost reports behind small bounded
LRU caches, and exposes hit/miss counters so search runs can report their
cache efficiency.  Population pricing (the gene-matrix path) does not use
them: deduplicating rows within one call is the only reuse that pays
there.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from typing import Any, Dict, Hashable, Optional


@dataclass(frozen=True)
class CacheStats:
    """Hit/miss counters of one cache (or an aggregate of several)."""

    hits: int = 0
    misses: int = 0
    size: int = 0
    maxsize: int = 0

    @property
    def requests(self) -> int:
        """Total lookups served."""
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        """Fraction of lookups answered from the cache (0 when unused)."""
        if not self.requests:
            return 0.0
        return self.hits / self.requests

    def combined(self, other: "CacheStats") -> "CacheStats":
        """Element-wise sum of two stats (for aggregate reporting)."""
        return CacheStats(
            hits=self.hits + other.hits,
            misses=self.misses + other.misses,
            size=self.size + other.size,
            maxsize=self.maxsize + other.maxsize,
        )

    def since(self, earlier: "CacheStats") -> "CacheStats":
        """Counter delta against an earlier snapshot of the same cache.

        Size and bound stay absolute (they describe the cache now); only
        the hit/miss counters are differenced.  Used for per-search cache
        reporting on caches that live across searches (and, in the sweep
        runner, across jobs).
        """
        return CacheStats(
            hits=self.hits - earlier.hits,
            misses=self.misses - earlier.misses,
            size=self.size,
            maxsize=self.maxsize,
        )

    def summary(self) -> str:
        """One-line human-readable rendering."""
        return (
            f"{self.hits}/{self.requests} hits ({self.hit_rate:.1%}), "
            f"{self.size}/{self.maxsize} entries"
        )


class LRUCache:
    """A small bounded least-recently-used cache with hit/miss counters.

    ``maxsize <= 0`` disables the cache entirely: lookups miss without
    counting and stores are dropped, so callers need no special-casing.

    ``data`` is the backing ordered dict.  Hot loops may operate on it
    directly (plain ``data.get`` / insert, evicting with
    ``data.popitem(last=False)`` when over ``maxsize``) to skip the method
    and recency-update overhead — at the cost of approximating LRU with
    insertion-order eviction — and account their hits/misses in bulk on the
    public counters.
    """

    def __init__(self, maxsize: int):
        self.maxsize = int(maxsize)
        self.data: "OrderedDict[Hashable, Any]" = OrderedDict()
        self.hits = 0
        self.misses = 0
        #: Optional persistent L2 tier
        #: (:class:`~repro.cost.persist.PersistentLayerCache`).  Per-design
        #: pricing probes it on L1 misses and writes freshly priced rows
        #: back.  ``None`` keeps every lookup purely in-memory.
        self.tier: Optional[Any] = None

    @property
    def enabled(self) -> bool:
        """True when the cache actually stores entries."""
        return self.maxsize > 0

    def get(self, key: Hashable) -> Optional[Any]:
        """Return the cached value or ``None``, refreshing recency on a hit."""
        if self.maxsize <= 0:
            return None
        value = self.data.get(key)
        if value is None:
            self.misses += 1
            return None
        self.data.move_to_end(key)
        self.hits += 1
        return value

    def put(self, key: Hashable, value: Any) -> None:
        """Insert a value, evicting the least recently used entry if full."""
        if self.maxsize <= 0:
            return
        data = self.data
        data[key] = value
        data.move_to_end(key)
        if len(data) > self.maxsize:
            data.popitem(last=False)

    def clear(self) -> None:
        """Drop all entries and reset the counters."""
        self.data.clear()
        self.hits = 0
        self.misses = 0

    def __len__(self) -> int:
        return len(self.data)

    def stats(self) -> CacheStats:
        """Current hit/miss counters as an immutable snapshot."""
        return CacheStats(
            hits=self.hits,
            misses=self.misses,
            size=len(self.data),
            maxsize=max(0, self.maxsize),
        )

    # Cache *contents* never travel across process boundaries (e.g. into
    # evaluation worker processes): pickling preserves only the bound.
    # The persistent tier stays in the owning process; pool workers price
    # without it.

    def __getstate__(self) -> Dict[str, Any]:
        return {"maxsize": self.maxsize}

    def __setstate__(self, state: Dict[str, Any]) -> None:
        self.__init__(state["maxsize"])
