"""Seeded load generation: synthetic users querying the gateway fleet.

A :class:`LazyClientPopulation` models mobile searchers scattered
across the US *without materialising them*: every client's CGNAT-range
IP, home location (jittered around a state centroid), stable DNS
answer (which datacenter frontend its requests reach) and
Geolocation-API grant is a pure hash of ``(seed, index)`` computed on
touch.  Its GeoIP side is a :class:`LazyClientGeoIP` view that derives
homes on lookup, so a million-user id space costs the same as a
hundred-user one.

A :class:`LoadGenerator` draws a Poisson request stream over the query
corpus with Zipf-distributed query and client popularity — the skew
that makes a SERP cache earn its keep — entirely from derived seeds,
so two runs with one seed produce byte-identical request streams.
Client ranks come from an analytic :class:`ZipfSampler` whose memory is
bounded by the distribution's head rather than the population.

:func:`run_load` drives a stream through a
:class:`~repro.serve.fleet.GatewayFleet` — the measurement driver
shared by ``repro serve-bench``, ``repro chaos-serve`` and
``benchmarks/bench_serve.py``.
"""

from __future__ import annotations

import bisect
import math
import time
from collections import Counter
from dataclasses import dataclass
from typing import Iterator, List, Optional, Sequence

from repro.engine.datacenters import DatacenterCluster
from repro.engine.request import SearchRequest
from repro.geo.coords import LatLon
from repro.geo.usa import US_STATES
from repro.net.geoip import GeoIPDatabase
from repro.net.ip import IPv4Address
from repro.queries.model import Query
from repro.seeding import derive_rng, stable_hash, stable_unit
from repro.serve.fleet import GatewayFleet

__all__ = [
    "SyntheticClient",
    "LazyClientPopulation",
    "LazyClientGeoIP",
    "ZipfSampler",
    "LoadGenerator",
    "LoadReport",
    "run_load",
]

#: Client IPs are carved out of 100.64.0.0/10 — the carrier-grade NAT
#: range real mobile traffic arrives from.
_CLIENT_IP_BASE = IPv4Address((100 << 24) | (64 << 16))

#: Addresses available in that /10 after the base (the population cap).
_CLIENT_IP_SPACE = (1 << 22) - 1


@dataclass(frozen=True)
class SyntheticClient:
    """One simulated searcher."""

    ip: IPv4Address
    home: LatLon
    uses_gps: bool
    frontend_ip: IPv4Address
    """The datacenter IP this client's cached DNS answer points at."""


class LazyClientPopulation:
    """A million-user id space that is never materialised.

    Every client is a pure function of ``(seed, index)`` computed on
    touch via :func:`~repro.seeding.stable_hash` — no RNG sequence to
    replay, no per-client storage, and identical attributes whether
    client 999999 is the first or the millionth one asked for.  Pair it
    with :class:`LazyClientGeoIP` so the GeoIP side stays lazy too.

    Args:
        gps_fraction: Share of clients whose browser grants the
            Geolocation API; the rest are located by GeoIP.
        pin_frontend: Give every client the first datacenter's frontend
            IP (one DNS answer — the paper's pinning), instead of a
            stable per-client answer.
    """

    def __init__(
        self,
        seed: int,
        count: int,
        cluster: DatacenterCluster,
        *,
        gps_fraction: float = 0.8,
        pin_frontend: bool = False,
    ):
        if count < 1:
            raise ValueError("population needs at least one client")
        if count > _CLIENT_IP_SPACE:
            raise ValueError(
                f"population exceeds the CGNAT client range "
                f"({count} > {_CLIENT_IP_SPACE})"
            )
        self.seed = seed
        self.count = count
        self.cluster = cluster
        self.gps_fraction = gps_fraction
        self.pin_frontend = pin_frontend
        self._states = sorted(US_STATES)

    def client(self, index: int) -> SyntheticClient:
        """Derive client ``index`` — O(1), no stored state."""
        if not 0 <= index < self.count:
            raise IndexError(f"client index out of range: {index}")
        seed = self.seed
        name = self._states[
            stable_hash("lazy-client-state", seed, index) % len(self._states)
        ]
        centroid = US_STATES[name]
        home = LatLon(
            max(-90.0, min(90.0, centroid.lat
                           + 1.4 * stable_unit("lazy-client-lat", seed, index)
                           - 0.7)),
            max(-180.0, min(180.0, centroid.lon
                            + 1.4 * stable_unit("lazy-client-lon", seed, index)
                            - 0.7)),
        )
        frontend = (
            self.cluster[0]
            if self.pin_frontend
            else self.cluster[
                stable_hash("lazy-client-frontend", seed, index)
                % len(self.cluster)
            ]
        )
        return SyntheticClient(
            ip=_CLIENT_IP_BASE + (index + 1),
            home=home,
            uses_gps=stable_unit("lazy-client-gps", seed, index)
            < self.gps_fraction,
            frontend_ip=frontend.frontend_ip,
        )

    def geoip_view(self) -> "LazyClientGeoIP":
        """A GeoIP database that derives client homes on lookup."""
        return LazyClientGeoIP(self)

    def register(self, geoip: GeoIPDatabase) -> None:
        raise TypeError(
            "a lazy population is never registered host-by-host; "
            "use geoip_view() for an on-demand GeoIP database"
        )

    def __len__(self) -> int:
        return self.count

    def __getitem__(self, index: int) -> SyntheticClient:
        return self.client(index)


class LazyClientGeoIP(GeoIPDatabase):
    """GeoIP over a lazy population: homes derived at lookup time.

    Client-range addresses resolve to the derived home; anything else
    falls through to the normal host/subnet tables, so datacenter
    fleets can still be registered on top.
    """

    def __init__(self, population: LazyClientPopulation):
        super().__init__()
        self._population = population

    def lookup(self, ip: IPv4Address) -> Optional[LatLon]:
        index = ip.value - _CLIENT_IP_BASE.value - 1
        if 0 <= index < len(self._population):
            return self._population.client(index).home
        return super().lookup(ip)


class ZipfSampler:
    """Inverse-CDF Zipf over ranks ``0..n-1`` with O(head) memory.

    The first ``head`` ranks use exact cumulative weights (they carry
    nearly all the mass under search-like exponents); the tail mass is
    the Euler–Maclaurin midpoint approximation of ``sum(k^-s)``, and
    tail draws invert that integral in closed form.  Everything is a
    pure function of the uniform draw, so a lazy million-user sweep
    samples identically across runs without a million-entry table.
    """

    def __init__(self, n: int, exponent: float = 1.0, *, head: int = 4096):
        if n < 1:
            raise ValueError("sampler needs at least one rank")
        self.n = n
        self.exponent = exponent
        self.head = min(head, n)
        total = 0.0
        self._head_cdf: List[float] = []
        for rank in range(self.head):
            total += 1.0 / (rank + 1) ** exponent
            self._head_cdf.append(total)
        self._head_mass = total
        self._tail_mass = self._tail_integral(self.head + 0.5, n + 0.5)
        self.total_mass = self._head_mass + self._tail_mass

    def _tail_integral(self, lo: float, hi: float) -> float:
        """``∫ x^-s dx`` over ``[lo, hi]`` (midpoint bounds)."""
        if hi <= lo:
            return 0.0
        s = self.exponent
        if abs(s - 1.0) < 1e-12:
            return math.log(hi) - math.log(lo)
        return (hi ** (1.0 - s) - lo ** (1.0 - s)) / (1.0 - s)

    def sample(self, u: float) -> int:
        """The rank for a uniform draw ``u`` in ``[0, 1)``."""
        target = u * self.total_mass
        if target < self._head_mass or self.head == self.n:
            rank = bisect.bisect_left(self._head_cdf, target)
            return min(rank, self.head - 1)
        # Invert the tail integral from head+0.5 up to the target mass.
        remaining = target - self._head_mass
        s = self.exponent
        lo = self.head + 0.5
        if abs(s - 1.0) < 1e-12:
            x = math.exp(math.log(lo) + remaining)
        else:
            x = (lo ** (1.0 - s) + (1.0 - s) * remaining) ** (1.0 / (1.0 - s))
        rank = int(x - 0.5)
        return max(self.head, min(rank, self.n - 1))


class LoadGenerator:
    """A seeded Poisson request stream over a query corpus.

    Query popularity is Zipf over a seed-shuffled ranking of the
    corpus (exponent ``zipf_exponent``), client activity likewise —
    skew on both axes, as in real search logs.  Client rank equals
    client index: lazy client attributes are already hash-random in
    the index, so no shuffle is needed to decorrelate popularity from
    geography.
    """

    def __init__(
        self,
        queries: Sequence[Query],
        population: LazyClientPopulation,
        seed: int,
        *,
        rate_per_minute: float = 30.0,
        zipf_exponent: float = 1.0,
        gps_jitter_degrees: float = 0.004,
        start_minutes: float = 0.0,
    ):
        if not queries:
            raise ValueError("load generator needs a non-empty corpus")
        if rate_per_minute <= 0:
            raise ValueError("rate must be positive")
        self.queries = list(queries)
        self.population = population
        self.seed = seed
        self.rate_per_minute = rate_per_minute
        self.gps_jitter_degrees = gps_jitter_degrees
        self.start_minutes = start_minutes

        rank_rng = derive_rng(seed, "serve-popularity")
        query_order = list(range(len(self.queries)))
        rank_rng.shuffle(query_order)
        self._query_cdf = _zipf_cdf(len(self.queries), zipf_exponent)
        self._query_by_rank = query_order
        self._client_sampler = ZipfSampler(len(population), zipf_exponent)

    def requests(self, count: int) -> Iterator[SearchRequest]:
        """Yield ``count`` requests with non-decreasing virtual times."""
        rng = derive_rng(self.seed, "serve-arrivals")
        now = self.start_minutes
        for i in range(count):
            query = self.queries[_pick(self._query_by_rank, self._query_cdf, rng)]
            client = self.population[self._client_sampler.sample(rng.random())]
            gps: Optional[LatLon] = None
            if client.uses_gps:
                gps = LatLon(
                    max(-90.0, min(90.0, client.home.lat
                                   + rng.uniform(-self.gps_jitter_degrees,
                                                 self.gps_jitter_degrees))),
                    max(-180.0, min(180.0, client.home.lon
                                    + rng.uniform(-self.gps_jitter_degrees,
                                                  self.gps_jitter_degrees))),
                )
            yield SearchRequest(
                query_text=query.text,
                client_ip=client.ip,
                frontend_ip=client.frontend_ip,
                timestamp_minutes=now,
                gps=gps,
                cookie_id=None,
                nonce=stable_hash("serve-loadgen-nonce", self.seed, i),
            )
            now += rng.expovariate(self.rate_per_minute)


def _zipf_cdf(n: int, exponent: float) -> List[float]:
    """Cumulative Zipf weights for ranks ``0..n-1``."""
    total = 0.0
    cdf: List[float] = []
    for rank in range(n):
        total += 1.0 / (rank + 1) ** exponent
        cdf.append(total)
    return cdf


def _pick(by_rank: List[int], cdf: List[float], rng) -> int:
    rank = bisect.bisect_left(cdf, rng.random() * cdf[-1])
    return by_rank[min(rank, len(by_rank) - 1)]


@dataclass
class LoadReport:
    """What one measured load run produced.

    The outcome fields are this run's fresh / stale / shed / failed
    partition — the fleet's, decided by the same classifier
    (:attr:`~repro.serve.gateway.GatewayResult.outcome`) — so a report
    covers its own requests even when the fleet served others before.
    """

    requests: int
    wall_seconds: float
    served_fresh: int = 0
    served_stale: int = 0
    shed: int = 0
    failed: int = 0

    @property
    def requests_per_second(self) -> float:
        return self.requests / self.wall_seconds if self.wall_seconds > 0 else 0.0


def run_load(fleet: GatewayFleet, loadgen: LoadGenerator, count: int) -> LoadReport:
    """Drive ``count`` generated requests through ``fleet``, timed."""
    outcomes = Counter()
    started = time.perf_counter()
    for request in loadgen.requests(count):
        outcomes[fleet.submit(request).outcome] += 1
    return LoadReport(
        requests=count, wall_seconds=time.perf_counter() - started, **outcomes
    )
