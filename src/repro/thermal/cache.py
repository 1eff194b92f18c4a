"""Process-wide cache of per-network solver artifacts.

Every thermal solver pays a one-time cost per distinct RC network —
the dense path its matrix exponential, the sparse path its symmetrized
operator and LU factors, the reduced path its modal basis.  Campaign
runs over the same platform/package share the network numerically, so
those artifacts are cached process-wide and every run after the first
skips the build.  Keys are ``(solver_name, network_digest, detail)``
tuples; values are whatever the solver wants to reuse.

The cache is bounded (256 entries) and evicts in least-recently-used
order: a campaign's working set (one entry per distinct network x
solver x step size) stays warm even when a long sweep cycles through
more entries than the bound.  Hit/miss/eviction counters are exposed
via :func:`cache_stats` so throughput benchmarks can report how much
work the cache absorbed.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from typing import Any, Callable, Hashable, Optional

#: The default bound (entry count); the shared cache uses it.
DEFAULT_MAX_ENTRIES = 256


@dataclass(frozen=True)
class CacheStats:
    """Snapshot of the cache counters."""

    hits: int
    misses: int
    evictions: int
    size: int
    max_entries: int

    @property
    def hit_rate(self) -> float:
        """Hits / lookups (0.0 when nothing was looked up yet)."""
        lookups = self.hits + self.misses
        return self.hits / lookups if lookups else 0.0

    def to_text(self) -> str:
        return (f"solver artifact cache: {self.hits} hits, "
                f"{self.misses} misses ({100 * self.hit_rate:.1f}% hit "
                f"rate), {self.evictions} evictions, "
                f"{self.size}/{self.max_entries} entries")


class ArtifactCache:
    """Bounded LRU mapping of solver artifacts with usage counters."""

    def __init__(self, max_entries: int = DEFAULT_MAX_ENTRIES):
        self._entries: "OrderedDict[Hashable, Any]" = OrderedDict()
        self._max = max_entries
        if self._max < 1:
            raise ValueError("cache needs room for at least one entry")
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    @property
    def max_entries(self) -> int:
        return self._max

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, key: Hashable) -> bool:
        return key in self._entries

    def get(self, key: Hashable) -> Optional[Any]:
        """The cached artifact (refreshed to most-recently-used)."""
        entry = self._entries.get(key)
        if entry is None:
            self.misses += 1
            return None
        self._entries.move_to_end(key)
        self.hits += 1
        return entry

    def put(self, key: Hashable, value: Any) -> Any:
        """Insert an artifact, evicting LRU entries past the bound."""
        if key in self._entries:
            self._entries.move_to_end(key)
            self._entries[key] = value
            return value
        while len(self._entries) >= self._max:
            self._entries.popitem(last=False)
            self.evictions += 1
        self._entries[key] = value
        return value

    def get_or_build(self, key: Hashable,
                     build: Callable[[], Any]) -> Any:
        """Fetch, or build-and-insert on a miss."""
        entry = self.get(key)
        if entry is None:
            entry = self.put(key, build())
        return entry

    def clear(self) -> None:
        """Drop every entry and reset the counters (mainly for tests)."""
        self._entries.clear()
        self.hits = self.misses = self.evictions = 0

    def stats(self) -> CacheStats:
        return CacheStats(hits=self.hits, misses=self.misses,
                          evictions=self.evictions,
                          size=len(self._entries),
                          max_entries=self._max)


#: The process-wide cache all solvers share.
shared_artifacts = ArtifactCache()


def cache_stats() -> CacheStats:
    """Counters of the process-wide solver artifact cache."""
    return shared_artifacts.stats()


def clear_artifact_cache() -> None:
    """Drop the process-wide solver artifact cache (mainly for tests)."""
    shared_artifacts.clear()
