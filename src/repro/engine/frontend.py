"""The search frontend: request in, HTML out.

``SearchEngine`` is the full service: rate limiting, geolocation
resolution (GPS fix → session memory → GeoIP → continental default),
query classification, session bookkeeping, ranking, and rendering.
"""

from __future__ import annotations

from typing import Optional

from repro.engine.calibration import EngineCalibration
from repro.engine.classify import QueryClassifier
from repro.engine.dialect import GOOGLE_LIKE, EngineDialect
from repro.engine.datacenters import DatacenterCluster
from repro.engine.ranking import Ranker, RankingContext
from repro.engine.ratelimit import RateLimiter
from repro.engine.render import render_captcha, render_page
from repro.engine.request import ResponseStatus, SearchRequest, SearchResponse
from repro.engine.serp import SerpPage
from repro.engine.sessions import SessionStore
from repro.geo.coords import LatLon
from repro.net.geoip import GeoIPDatabase
from repro.obs.trace import NULL_TRACER
from repro.queries.corpus import QueryCorpus
from repro.seeding import stable_hash
from repro.web.world import WebWorld

__all__ = ["SearchEngine", "DEFAULT_LOCATION"]

#: Where an unlocatable user is assumed to be (geographic center of the
#: contiguous US — what real engines do with unknown clients).
DEFAULT_LOCATION = LatLon(39.8283, -98.5795)


class SearchEngine:
    """The simulated search service.

    Args:
        world: The synthetic web to rank over.
        cluster: Datacenters serving the frontend hostname.
        geoip: IP-geolocation database for GPS-less requests.
        corpus: Known query corpus (exact classification); heuristics
            cover anything outside it.
        calibration: Ranking/noise tunables.
        seed: Engine seed — drives every deterministic perturbation.
        ranker: Share another engine's :class:`Ranker` instead of
            building one.  The ranker holds no serving state, so engines
            over the same (world, calibration, seed) — gateway replicas —
            can share one and split the warm-up cost.  It is not a pure
            memo layer, though: its organic-card memo is keyed on URL
            and two documents can share a URL (same-named entities with
            one occupation), so a ranker keeps serving the first card it
            built for that URL.  Which engines share a ranker can
            therefore change served bytes.  Callers must not share
            across different seeds/worlds; a guard enforces it.
    """

    def __init__(
        self,
        world: WebWorld,
        cluster: DatacenterCluster,
        geoip: GeoIPDatabase,
        *,
        corpus: Optional[QueryCorpus] = None,
        calibration: Optional[EngineCalibration] = None,
        seed: int = 0,
        dialect: Optional[EngineDialect] = None,
        ranker: Optional[Ranker] = None,
    ):
        self.world = world
        self.cluster = cluster
        self.geoip = geoip
        self.calibration = calibration or EngineCalibration()
        self.seed = seed
        self.dialect = dialect or GOOGLE_LIKE
        self.classifier = QueryClassifier(corpus)
        if ranker is not None:
            if ranker.world is not world or ranker.seed != seed:
                raise ValueError(
                    "shared ranker must be built over the same world and seed"
                )
            self.ranker = ranker
        else:
            self.ranker = Ranker(world, self.calibration, seed)
        self.sessions = SessionStore(window_minutes=self.calibration.session_window_minutes)
        self.ratelimiter = RateLimiter(
            max_per_minute=self.calibration.ratelimit_max_per_minute
        )
        self.tracer = NULL_TRACER

    # -- serving ------------------------------------------------------------

    def handle(self, request: SearchRequest) -> SearchResponse:
        """Serve one request, returning rendered HTML."""
        tracing = self.tracer.enabled
        if tracing:
            self.tracer.begin("engine.handle", start=request.timestamp_minutes)
        if not self.ratelimiter.allow(request.client_ip, request.timestamp_minutes):
            if tracing:
                self.tracer.end(status="rate-limited")
            return SearchResponse(
                status=ResponseStatus.RATE_LIMITED,
                html=render_captcha(request.query_text, self.dialect),
            )
        page = self._build_page(request)
        if tracing:
            self.tracer.end(
                status="ok", datacenter=self.cluster.by_ip(request.frontend_ip).name
            )
        return SearchResponse(
            status=ResponseStatus.OK, html=render_page(page, self.dialect)
        )

    def serve_page(self, request: SearchRequest) -> SerpPage:
        """Structured variant of :meth:`handle` (no rate limiting).

        For engine-level tests and debugging; the measurement pipeline
        uses :meth:`handle` and parses HTML, like the real crawl did.
        """
        return self._build_page(request)

    # -- checkpointing -------------------------------------------------------

    def capture_state(self, now_minutes: float) -> dict:
        """JSON-able snapshot of all mutable serving state.

        Everything else the engine holds (ranker, classifier, world) is
        a pure function of the seed and is rebuilt identically on
        resume; only sessions and rate-limiter windows evolve with
        traffic.
        """
        return {
            "sessions": self.sessions.capture_state(now_minutes),
            "ratelimiter": self.ratelimiter.capture_state(),
        }

    def restore_state(self, state: dict) -> None:
        """Inverse of :meth:`capture_state`."""
        self.sessions.restore_state(state["sessions"])
        self.ratelimiter.restore_state(state["ratelimiter"])

    # -- internals ----------------------------------------------------------

    def _build_page(self, request: SearchRequest) -> SerpPage:
        query = self.classifier.classify(request.query_text)
        location = self._resolve_location(request)
        datacenter = self.cluster.by_ip(request.frontend_ip)
        bucket = stable_hash("ab-bucket", self.seed, request.nonce) % self.calibration.ab_buckets
        session_slugs = tuple(
            self.sessions.recent_query_slugs(request.cookie_id, request.timestamp_minutes)
        )
        session_queries = tuple(
            self.classifier.classify(slug.replace("-", " ")) for slug in session_slugs
        )
        context = RankingContext(
            location=location,
            day=request.day,
            datacenter=datacenter.name,
            bucket=bucket,
            nonce=request.nonce,
            session_slugs=session_slugs,
            session_queries=session_queries,
            page=request.page,
        )
        page = self.ranker.build_page(query, context)
        if request.cookie_id is not None:
            self.sessions.record(
                request.cookie_id,
                request.query_text,
                request.timestamp_minutes,
                location,
            )
        return page

    def _resolve_location(self, request: SearchRequest) -> LatLon:
        """GPS fix → session-remembered location → GeoIP → default."""
        if request.gps is not None:
            return request.gps
        remembered = self.sessions.remembered_location(
            request.cookie_id, request.timestamp_minutes
        )
        if remembered is not None:
            return remembered
        by_ip = self.geoip.lookup(request.client_ip)
        if by_ip is not None:
            return by_ip
        return DEFAULT_LOCATION
