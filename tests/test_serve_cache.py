"""SERP-cache correctness: TTL on day rollover, LRU order, cell sharing."""

from __future__ import annotations

import random
from collections import OrderedDict

import pytest

from repro.engine.request import ResponseStatus, SearchRequest, SearchResponse
from repro.geo.coords import LatLon
from repro.net.ip import IPv4Address
from repro.serve.cache import MINUTES_PER_DAY, SerpCache
from repro.serve.stats import GatewayStats

CLEVELAND = LatLon(41.4993, -81.6944)


def _response(tag: str) -> SearchResponse:
    return SearchResponse(status=ResponseStatus.OK, html=f"<html>{tag}</html>")


class TestCacheKeys:
    def test_same_cell_shares_a_key(self):
        cache = SerpCache(16, cell_miles=1.7)
        # Two fixes ~100 ft apart land in one 1.7-mile snap cell.
        a = cache.key_for("google-like", "school", CLEVELAND, day=0)
        b = cache.key_for(
            "google-like",
            "school",
            LatLon(CLEVELAND.lat + 0.0003, CLEVELAND.lon + 0.0003),
            day=0,
        )
        assert a == b

    def test_different_cells_do_not_share(self):
        cache = SerpCache(16, cell_miles=1.7)
        a = cache.key_for("google-like", "school", CLEVELAND, day=0)
        far = LatLon(CLEVELAND.lat + 0.1, CLEVELAND.lon)  # ~7 miles north
        b = cache.key_for("google-like", "school", far, day=0)
        assert a != b

    def test_key_dimensions(self):
        cache = SerpCache(16)
        base = cache.key_for("google-like", "school", CLEVELAND, day=0)
        assert cache.key_for("bingo", "school", CLEVELAND, day=0) != base
        assert cache.key_for("google-like", "library", CLEVELAND, day=0) != base
        assert cache.key_for("google-like", "school", CLEVELAND, day=1) != base
        assert cache.key_for("google-like", "school", CLEVELAND, day=0, page=1) != base
        assert (
            cache.key_for("google-like", "school", CLEVELAND, day=0, datacenter="dc01")
            != base
        )

    def test_slug_normalises_case_and_whitespace(self):
        cache = SerpCache(16)
        assert cache.key_for("g", "Gay  Marriage", CLEVELAND, day=0) == cache.key_for(
            "g", "gay marriage ", CLEVELAND, day=0
        )

    def test_canonical_location_is_cell_center(self):
        cache = SerpCache(16, cell_miles=1.7)
        key = cache.key_for("g", "school", CLEVELAND, day=0)
        center = cache.canonical_location(key)
        assert cache.grid.cell_of(center) == cache.grid.cell_of(CLEVELAND)
        # Any fix in the cell canonicalises to the same point.
        nearby = LatLon(CLEVELAND.lat + 0.0003, CLEVELAND.lon)
        assert cache.canonical_location(
            cache.key_for("g", "school", nearby, day=0)
        ) == center


class TestTTL:
    def test_hit_within_day(self):
        cache = SerpCache(16)
        key = cache.key_for("g", "school", CLEVELAND, day=0)
        cache.put(key, _response("day0"), now_minutes=100.0)
        hit = cache.get(key, now_minutes=MINUTES_PER_DAY - 1.0)
        assert hit is not None and "day0" in hit.html

    def test_expires_on_day_rollover(self):
        cache = SerpCache(16)
        key = cache.key_for("g", "school", CLEVELAND, day=0)
        cache.put(key, _response("day0"), now_minutes=100.0)
        assert cache.get(key, now_minutes=float(MINUTES_PER_DAY)) is None
        assert cache.stats.cache_expirations == 1
        assert len(cache) == 0

    def test_stale_put_is_dropped(self):
        cache = SerpCache(16)
        key = cache.key_for("g", "school", CLEVELAND, day=0)
        # A day-0 page computed after day 0 ended must not be stored.
        cache.put(key, _response("late"), now_minutes=float(MINUTES_PER_DAY) + 5.0)
        assert len(cache) == 0

    def test_insert_sweeps_expired_entries(self):
        cache = SerpCache(16)
        old = cache.key_for("g", "school", CLEVELAND, day=0)
        cache.put(old, _response("old"), now_minutes=10.0)
        new = cache.key_for("g", "school", CLEVELAND, day=1)
        cache.put(new, _response("new"), now_minutes=float(MINUTES_PER_DAY) + 10.0)
        assert old not in cache
        assert new in cache


class TestLRU:
    def test_eviction_order(self):
        cache = SerpCache(2)
        a = cache.key_for("g", "a", CLEVELAND, day=0)
        b = cache.key_for("g", "b", CLEVELAND, day=0)
        c = cache.key_for("g", "c", CLEVELAND, day=0)
        cache.put(a, _response("a"), 0.0)
        cache.put(b, _response("b"), 0.0)
        assert cache.get(a, 1.0) is not None  # refresh a; b is now LRU
        cache.put(c, _response("c"), 2.0)
        assert b not in cache
        assert a in cache and c in cache
        assert cache.stats.cache_evictions == 1

    def test_put_refreshes_recency(self):
        cache = SerpCache(2)
        a = cache.key_for("g", "a", CLEVELAND, day=0)
        b = cache.key_for("g", "b", CLEVELAND, day=0)
        cache.put(a, _response("a"), 0.0)
        cache.put(b, _response("b"), 0.0)
        cache.put(a, _response("a2"), 1.0)  # re-insert: a newest again
        c = cache.key_for("g", "c", CLEVELAND, day=0)
        cache.put(c, _response("c"), 2.0)
        assert b not in cache and a in cache

    def test_capacity_zero_disables(self):
        cache = SerpCache(0)
        key = cache.key_for("g", "a", CLEVELAND, day=0)
        cache.put(key, _response("a"), 0.0)
        assert len(cache) == 0
        assert cache.get(key, 0.0) is None
        assert cache.stats.cache_hits == 0
        assert cache.stats.cache_misses == 1

    def test_negative_capacity_rejected(self):
        with pytest.raises(ValueError):
            SerpCache(-1)


class TestStaleStore:
    def test_expired_entries_are_retired_not_discarded(self):
        cache = SerpCache(16)
        key = cache.key_for("g", "school", CLEVELAND, day=0)
        cache.put(key, _response("day0"), now_minutes=100.0)
        assert cache.get(key, now_minutes=float(MINUTES_PER_DAY)) is None
        # The day-1 key for the same query/cell finds the day-0 page.
        tomorrow = cache.key_for("g", "school", CLEVELAND, day=1)
        stale = cache.get_stale(tomorrow)
        assert stale is not None and "day0" in stale.html

    def test_sweep_retires_too(self):
        cache = SerpCache(16)
        old = cache.key_for("g", "school", CLEVELAND, day=0)
        cache.put(old, _response("old"), now_minutes=10.0)
        other = cache.key_for("g", "jobs", CLEVELAND, day=1)
        cache.put(other, _response("new"), now_minutes=float(MINUTES_PER_DAY) + 10.0)
        assert cache.get_stale(old) is not None

    def test_newest_expiry_wins_per_dayless_key(self):
        cache = SerpCache(16)
        for day in (0, 1):
            key = cache.key_for("g", "school", CLEVELAND, day=day)
            cache.put(key, _response(f"day{day}"), now_minutes=day * MINUTES_PER_DAY + 1.0)
            assert cache.get(key, now_minutes=float((day + 1) * MINUTES_PER_DAY)) is None
        stale = cache.get_stale(cache.key_for("g", "school", CLEVELAND, day=2))
        assert stale is not None and "day1" in stale.html

    def test_stale_store_is_bounded_by_capacity(self):
        cache = SerpCache(2)
        for name in ("a", "b", "c"):
            key = cache.key_for("g", name, CLEVELAND, day=0)
            cache.put(key, _response(name), now_minutes=1.0)
            cache.get(key, now_minutes=float(MINUTES_PER_DAY))  # expire + retire
        assert len(cache._stale) == 2
        assert cache.get_stale(cache.key_for("g", "a", CLEVELAND, day=1)) is None

    def test_no_inventory_returns_none(self):
        cache = SerpCache(16)
        key = cache.key_for("g", "school", CLEVELAND, day=0)
        assert cache.get_stale(key) is None

    def test_clear_drops_stale_inventory(self):
        cache = SerpCache(16)
        key = cache.key_for("g", "school", CLEVELAND, day=0)
        cache.put(key, _response("day0"), now_minutes=1.0)
        cache.get(key, now_minutes=float(MINUTES_PER_DAY))
        cache.clear()
        assert cache.get_stale(key) is None


class TestStatsCounters:
    def test_hit_miss_accounting(self):
        cache = SerpCache(4)
        key = cache.key_for("g", "a", CLEVELAND, day=0)
        assert cache.get(key, 0.0) is None
        cache.put(key, _response("a"), 0.0)
        assert cache.get(key, 1.0) is not None
        assert cache.stats.cache_misses == 1
        assert cache.stats.cache_hits == 1
        assert cache.stats.hit_rate == 0.5


class _AlwaysSweepCache:
    """Reference model: the cache with a full expiry sweep on every put."""

    def __init__(self, capacity: int):
        self.capacity = capacity
        self.entries: OrderedDict = OrderedDict()  # key -> (response, deadline)
        self.stale: OrderedDict = OrderedDict()
        self.stats = GatewayStats()

    def _retire(self, key, response):
        stale_key = key[:4] + key[5:]
        self.stale[stale_key] = response
        self.stale.move_to_end(stale_key)
        while len(self.stale) > self.capacity:
            self.stale.popitem(last=False)

    def get(self, key, now):
        entry = self.entries.get(key)
        if entry is not None:
            if now >= entry[1]:
                self._retire(key, self.entries.pop(key)[0])
                self.stats.cache_expirations += 1
            else:
                self.entries.move_to_end(key)
                self.stats.cache_hits += 1
                return entry[0]
        self.stats.cache_misses += 1
        return None

    def put(self, key, response, now):
        deadline = (key[4] + 1) * MINUTES_PER_DAY
        if now >= deadline:
            return
        self.entries[key] = (response, deadline)
        self.entries.move_to_end(key)
        for expired in [k for k, (_, d) in self.entries.items() if now >= d]:
            self._retire(expired, self.entries.pop(expired)[0])
            self.stats.cache_expirations += 1
        while len(self.entries) > self.capacity:
            self.entries.popitem(last=False)
            self.stats.cache_evictions += 1

    def peek(self, key, now):
        entry = self.entries.get(key)
        return entry[0] if entry is not None and now < entry[1] else None

    def clear(self):
        self.entries.clear()
        self.stale.clear()


_CACHE_COUNTERS = (
    "cache_hits",
    "cache_misses",
    "cache_evictions",
    "cache_expirations",
)


class TestSweepBound:
    """``put`` sweeps only once the earliest live deadline has passed."""

    @pytest.mark.parametrize("seed,capacity", [(1, 6), (2, 6), (3, 48), (4, 48)])
    def test_matches_always_sweep_model(self, seed, capacity):
        rng = random.Random(seed)
        cache = SerpCache(capacity)
        model = _AlwaysSweepCache(capacity)
        responses = {}
        now = 0.0
        for step in range(3000):
            if step % 60 == 0:
                # Regimes: mostly today's keys; only future days' keys
                # (so a sweep's recomputed bound is all that guards the
                # next rollover); long clock jumps.
                offsets = rng.choice(((-1, 0, 0, 0, 0, 1), (1, 2), (0, 1, 2)))
                low, high = rng.choice(((-2.0, 6.0), (0.0, 90.0)))
            now = max(0.0, now + rng.uniform(low, high))
            today = int(now // MINUTES_PER_DAY)
            key = cache.key_for(
                "g",
                f"q{rng.randrange(10)}",
                CLEVELAND if rng.random() < 0.5 else LatLon(41.6, -81.6944),
                day=max(0, today + rng.choice(offsets)),
                page=rng.randrange(2),
            )
            op = rng.choices(
                ("get", "put", "peek", "clear"), weights=(40, 45, 14, 1)
            )[0]
            if op == "put":
                response = responses.setdefault(key, _response(repr(key)))
                cache.put(key, response, now)
                model.put(key, response, now)
            elif op == "get":
                assert cache.get(key, now) is model.get(key, now)
            elif op == "peek":
                assert cache.peek(key, now) is model.peek(key, now)
            else:
                cache.clear()
                model.clear()
            context = f"seed={seed} step={step} op={op} now={now:.1f}"
            assert cache.keys() == list(model.entries), context
            assert list(cache._stale.items()) == list(model.stale.items()), context
            for counter in _CACHE_COUNTERS:
                assert getattr(cache.stats, counter) == getattr(
                    model.stats, counter
                ), (counter, context)
        assert now > 3 * MINUTES_PER_DAY  # crossed at least three rollovers
        assert cache.stats.cache_evictions > 0
        assert cache.stats.cache_expirations > 0

    def test_one_sweep_per_day_rollover(self, monkeypatch):
        sweeps = []
        sweep = SerpCache._sweep_expired

        def counting_sweep(self, now_minutes):
            sweeps.append(now_minutes)
            sweep(self, now_minutes)

        monkeypatch.setattr(SerpCache, "_sweep_expired", counting_sweep)
        cache = SerpCache(4096)
        for i in range(500):
            key = cache.key_for("g", f"q{i}", CLEVELAND, day=0)
            cache.put(key, _response(str(i)), now_minutes=i * 2.5)
        assert sweeps == []
        # Midnight itself is the day-0 deadline: the first put at it sweeps.
        first = cache.key_for("g", "tomorrow", CLEVELAND, day=1)
        cache.put(first, _response("d1"), now_minutes=float(MINUTES_PER_DAY))
        assert sweeps == [MINUTES_PER_DAY]
        assert cache.stats.cache_expirations == 500
        assert cache.keys() == [first]
        for i in range(100):
            key = cache.key_for("g", f"q{i}", CLEVELAND, day=1)
            cache.put(key, _response(str(i)), now_minutes=MINUTES_PER_DAY + 2.0 + i)
        assert len(sweeps) == 1


class TestGatewayCacheBehaviour:
    """Cache semantics through the full gateway path."""

    @pytest.fixture(scope="class")
    def serving(self):
        from repro.engine.datacenters import DatacenterCluster
        from repro.net.geoip import GeoIPDatabase
        from repro.queries.corpus import build_corpus
        from repro.serve.gateway import Gateway, build_replicas
        from repro.web.world import WebWorld

        world = WebWorld(11)
        cluster = DatacenterCluster()
        geoip = GeoIPDatabase()
        corpus = build_corpus()
        replicas = build_replicas(world, cluster, geoip, corpus=corpus, seed=11)
        return cluster, replicas, geoip

    def _gateway(self, serving, cache_size):
        from repro.serve.gateway import Gateway

        cluster, replicas, geoip = serving
        return Gateway(replicas, geoip, cache_size=cache_size)

    def _request(self, serving, gps, minute, nonce):
        cluster, _, _ = serving
        return SearchRequest(
            query_text="School",
            client_ip=IPv4Address.parse("100.64.0.1"),
            frontend_ip=cluster[0].frontend_ip,
            timestamp_minutes=minute,
            gps=gps,
            nonce=nonce,
        )

    def test_same_cell_requests_share_entry_and_bytes(self, serving):
        gateway = self._gateway(serving, cache_size=64)
        near = LatLon(CLEVELAND.lat + 0.0003, CLEVELAND.lon)
        first = gateway.submit(self._request(serving, CLEVELAND, 0.0, nonce=1))
        second = gateway.submit(self._request(serving, near, 1.0, nonce=2))
        assert not first.cache_hit and second.cache_hit
        assert second.served_by == "cache"
        # Bit-identical despite different nonces and raw coordinates:
        # the gateway canonicalised both to the cell's identity.
        assert first.response.html == second.response.html

    def test_different_cells_miss(self, serving):
        gateway = self._gateway(serving, cache_size=64)
        far = LatLon(CLEVELAND.lat + 0.1, CLEVELAND.lon)
        gateway.submit(self._request(serving, CLEVELAND, 0.0, nonce=1))
        result = gateway.submit(self._request(serving, far, 1.0, nonce=2))
        assert not result.cache_hit
        assert gateway.stats.cache_misses == 2

    def test_day_rollover_expires_through_gateway(self, serving):
        gateway = self._gateway(serving, cache_size=64)
        gateway.submit(self._request(serving, CLEVELAND, 10.0, nonce=1))
        rolled = gateway.submit(
            self._request(serving, CLEVELAND, float(MINUTES_PER_DAY) + 10.0, nonce=2)
        )
        assert not rolled.cache_hit
        assert gateway.stats.cache_expirations >= 1

    def test_cookied_requests_bypass(self, serving):
        gateway = self._gateway(serving, cache_size=64)
        cluster, _, _ = serving
        request = SearchRequest(
            query_text="School",
            client_ip=IPv4Address.parse("100.64.0.1"),
            frontend_ip=cluster[0].frontend_ip,
            timestamp_minutes=0.0,
            gps=CLEVELAND,
            cookie_id="user#1",
            nonce=1,
        )
        result = gateway.submit(request)
        assert not result.cache_hit
        assert gateway.stats.cache_bypasses == 1
        assert gateway.stats.cache_lookups == 0

    def test_cache_mode_is_deterministic(self, serving):
        gold = self._gateway(serving, cache_size=64)
        cold = self._gateway(serving, cache_size=64)
        request = self._request(serving, CLEVELAND, 0.0, nonce=7)
        assert (
            gold.submit(request).response.html == cold.submit(request).response.html
        )
