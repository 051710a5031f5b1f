"""The gateway's SERP cache: LRU capacity + virtual-day TTL.

Cache key
---------
``(dialect, query slug, snapped grid cell, virtual day)`` — extended
with the result-page index and the datacenter identity, because both
change the served bytes (pagination windows; per-datacenter index
skew).  The grid cell comes from the *same* snapping the geo-ranker
applies before local retrieval, so the cache's sharing boundary is
exactly the engine's location-quantisation boundary: two users whose
GPS fixes land in one snap cell were always going to receive the same
local candidates.

Determinism
-----------
A hit must be bit-identical to what the engine would serve.  The engine
output additionally depends on per-request entropy (the nonce feeding
the A/B bucket and the Maps-card gate) and on the raw coordinates
echoed in the page footer — so the *gateway* canonicalises cacheable
requests (GPS snapped to the cell centre, nonce derived from the cache
key) before they reach a replica.  Hit or miss, every request mapping
to one key yields the same bytes; the cache only decides whether the
engine computes them again.

Expiry
------
Entries carry a virtual-clock deadline at the next day rollover:
day-keyed ranking inputs (news pools, day-gated cards) change at
midnight, so a SERP must not outlive the virtual day it was computed
in.  Expiry is lazy (checked on lookup) plus swept on insert, and LRU
eviction bounds capacity.

The insert-time sweep is a full scan of the live entries, so it runs
only when it can retire something: the cache keeps a lower bound on the
earliest live deadline, and :meth:`SerpCache.put` sweeps only once the
virtual clock reaches it (then recomputes it from the survivors).  Below
the bound no entry has expired, so the skipped sweeps would have
retired nothing; the sweeps that do run retire the same entries, in the
same LRU order, as sweeping on every insert.  Every deadline is a
midnight, so on a forward-moving clock the cache sweeps at most once
per day rollover instead of on every insert.

Stale store
-----------
Expired entries are *retired*, not discarded: the most recent page per
day-less key (query × cell × page × datacenter) moves into a bounded
stale store, which :meth:`SerpCache.get_stale` serves when the gateway
has no live replica to ask — degraded mode.  The day is deliberately
dropped from the stale key: a degraded lookup wants "the last good
page for this query here", whatever day it was computed on, and the
response is flagged ``degraded`` so nobody mistakes it for current.
"""

from __future__ import annotations

import math
from collections import OrderedDict
from typing import Optional, Tuple

from repro.engine.request import SearchResponse
from repro.geo.coords import LatLon
from repro.serve.stats import GatewayStats
from repro.web.grid import GeoGrid

__all__ = ["CacheKey", "SerpCache", "MINUTES_PER_DAY"]

MINUTES_PER_DAY = 24 * 60

#: (dialect name, query slug, cell ix, cell iy, virtual day, page, datacenter)
CacheKey = Tuple[str, str, int, int, int, int, str]


class SerpCache:
    """A bounded, deterministic response cache over virtual time.

    Args:
        capacity: Maximum live entries; ``0`` disables the cache
            entirely (every lookup misses, nothing is stored).
        cell_miles: Edge length of the location-snapping cell — use the
            engine's ``snap_cell_miles`` so cache sharing matches the
            ranker's quantisation.
        stats: Counter sink (usually the gateway's
            :class:`~repro.serve.stats.GatewayStats`).
    """

    def __init__(
        self,
        capacity: int,
        *,
        cell_miles: float = 1.7,
        stats: Optional[GatewayStats] = None,
    ):
        if capacity < 0:
            raise ValueError(f"capacity must be non-negative, got {capacity}")
        self.capacity = capacity
        self.grid = GeoGrid(cell_miles)
        self.stats = stats if stats is not None else GatewayStats()
        self._entries: "OrderedDict[CacheKey, Tuple[SearchResponse, float]]" = (
            OrderedDict()
        )
        # Day-less key -> last expired response (LRU, bounded by
        # ``capacity``): the degraded-mode inventory.
        self._stale: "OrderedDict[Tuple, SearchResponse]" = OrderedDict()
        # No live entry expires before this virtual minute (a lower
        # bound: removals never raise it, only a sweep recomputes it).
        self._next_expiry = math.inf

    # -- keys -----------------------------------------------------------------

    def key_for(
        self,
        dialect_name: str,
        query_text: str,
        location: LatLon,
        day: int,
        *,
        page: int = 0,
        datacenter: str = "",
    ) -> CacheKey:
        """Build the cache key for one request's identity."""
        cell = self.grid.cell_of(location)
        slug = "-".join(query_text.strip().lower().split())
        return (dialect_name, slug, cell.ix, cell.iy, day, page, datacenter)

    def canonical_location(self, key: CacheKey) -> LatLon:
        """The snap-cell centre every request under ``key`` is served as."""
        from repro.web.grid import GridCell

        return self.grid.cell_center(GridCell(key[2], key[3]))

    # -- lookup / insert -------------------------------------------------------

    def get(self, key: CacheKey, now_minutes: float) -> Optional[SearchResponse]:
        """The live entry for ``key``, or ``None`` (counted as a miss)."""
        if self.capacity == 0:
            self.stats.cache_misses += 1
            return None
        entry = self._entries.get(key)
        if entry is not None:
            response, expires_at = entry
            if now_minutes >= expires_at:
                self._retire(key, response)
                del self._entries[key]
                self.stats.cache_expirations += 1
            else:
                self._entries.move_to_end(key)
                self.stats.cache_hits += 1
                return response
        self.stats.cache_misses += 1
        return None

    def put(self, key: CacheKey, response: SearchResponse, now_minutes: float) -> None:
        """Store ``response`` until ``key``'s virtual day rolls over."""
        if self.capacity == 0:
            return
        day = key[4]
        expires_at = (day + 1) * MINUTES_PER_DAY
        if now_minutes >= expires_at:
            return  # already stale: the request's own day has passed
        self._entries[key] = (response, expires_at)
        self._entries.move_to_end(key)
        self._next_expiry = min(self._next_expiry, expires_at)
        if now_minutes >= self._next_expiry:
            self._sweep_expired(now_minutes)
        while len(self._entries) > self.capacity:
            self._entries.popitem(last=False)
            self.stats.cache_evictions += 1

    def _sweep_expired(self, now_minutes: float) -> None:
        """Retire every expired entry and recompute the expiry bound."""
        stale = []
        next_expiry = math.inf
        for key, (_, expires_at) in self._entries.items():
            if now_minutes >= expires_at:
                stale.append(key)
            elif expires_at < next_expiry:
                next_expiry = expires_at
        self._next_expiry = next_expiry
        for key in stale:
            self._retire(key, self._entries[key][0])
            del self._entries[key]
            self.stats.cache_expirations += 1

    # -- stale store (degraded mode) -------------------------------------------

    @staticmethod
    def _stale_key(key: CacheKey) -> Tuple:
        """``key`` minus its virtual day (index 4)."""
        return (key[0], key[1], key[2], key[3], key[5], key[6])

    def _retire(self, key: CacheKey, response: SearchResponse) -> None:
        """Move an expired entry into the bounded stale store."""
        stale_key = self._stale_key(key)
        self._stale[stale_key] = response
        self._stale.move_to_end(stale_key)
        while len(self._stale) > self.capacity:
            self._stale.popitem(last=False)

    def get_stale(self, key: CacheKey) -> Optional[SearchResponse]:
        """The last expired response matching ``key`` ignoring its day.

        Degraded-mode lookup: live entries never appear here (serve
        those via :meth:`get`), and ``None`` means this query/cell has
        never been cached — degradation has nothing to offer.
        """
        return self._stale.get(self._stale_key(key))

    # -- introspection ---------------------------------------------------------

    def peek(self, key: CacheKey, now_minutes: float) -> Optional[SearchResponse]:
        """The live entry for ``key`` without touching stats or LRU order.

        Anti-entropy backfill reads peer caches through this: copying
        inventory between shards is repair traffic, not serving
        traffic, so it must not inflate hit rates or refresh recency.
        Expired entries read as absent (retirement stays lazy).
        """
        if self.capacity == 0:
            return None
        entry = self._entries.get(key)
        if entry is None:
            return None
        response, expires_at = entry
        if now_minutes >= expires_at:
            return None
        return response

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, key: CacheKey) -> bool:
        return key in self._entries

    def keys(self):
        """Live keys in LRU order (oldest first)."""
        return list(self._entries.keys())

    def clear(self) -> None:
        self._entries.clear()
        self._stale.clear()
