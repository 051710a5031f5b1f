"""The ranking layer: candidates → scored results → a card page.

Score composition per document::

    score = base_score
          + geo decay        (POIs: per-mile penalty; ambiguity entities:
                              slow country-scale decay)
          + location keying  (nationally scoped docs get a deterministic
                              per-(doc, state) and per-(doc, metro)
                              offset — the reordering personalization)
          + A/B jitter       (per-(bucket, doc); the bucket is hashed
                              from the request nonce — the noise)
          + datacenter skew  (per-(datacenter, doc) index drift)
          + session boost    (docs matching a recent query's topic)

Meta-cards are attached after organic ranking: a Maps card (gated per
request — presence flicker is the paper's dominant Maps noise) and a
News card (gated per (topic, day) — stable within a day).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.engine.calibration import EngineCalibration
from repro.engine.serp import CardType, SerpCard, SerpPage
from repro.geo.coords import LatLon, haversine_miles
from repro.queries.model import Query, QueryCategory
from repro.seeding import stable_hashes, stable_unit
from repro.web.documents import DocKind, Document, GeoScope
from repro.web.grid import GeoGrid
from repro.web.world import WebWorld

__all__ = ["RankingContext", "Ranker"]


@dataclass(frozen=True)
class _PoolBundle:
    """One static pool flattened into parallel tuples.

    The request-independent half of every candidate's score, laid out so
    the per-request pass is a single comprehension over aligned tuples
    instead of dict lookups inside a ``sorted`` key lambda.  ``amps`` is
    the per-document jitter amplitude (local vs national scope), baked
    at bundle build time from the ranker's calibration.
    """

    docs: Tuple[Document, ...]
    statics: Tuple[float, ...]
    identities: Tuple[str, ...]
    amps: Tuple[float, ...]


def _centered(*parts) -> float:
    """A deterministic value in (-1, 1) from a seed path."""
    return (stable_unit(*parts) - 0.5) * 2.0


def _centered_many(head: tuple, varying, tail: tuple = ()) -> List[float]:
    """``[_centered(*head, v, *tail) for v in varying]`` in one batch."""
    return [
        (digest / 2**64 - 0.5) * 2.0
        for digest in stable_hashes(head, varying, tail)
    ]


#: Sentinel cached for (query, cell) combinations that yield no
#: meta-card, so the miss itself is memoised.
_NO_CARD = object()


@dataclass(frozen=True)
class RankingContext:
    """Request-derived inputs the ranking depends on."""

    location: LatLon
    day: int
    datacenter: str
    bucket: int
    nonce: int
    session_slugs: tuple = ()
    session_queries: tuple = ()  # classified recent queries (history blending)
    page: int = 0  # zero-based result page


class Ranker:
    """Scoring and page assembly over a :class:`WebWorld`.

    Caches the *request-independent* part of every candidate's score
    (base + geo decay + location keying) per (query, snapped position);
    only the per-request terms (A/B jitter, datacenter skew, session
    boost) are computed per call.  This makes the 140k-request full
    study tractable without changing any ranking semantics.
    """

    #: Entry cap for the per-request vector memos.  The key spaces are
    #: open-ended ((query, cell, bucket) grows with every served cell),
    #: so a long-lived engine must not grow them without bound.  On
    #: overflow the dict is cleared outright — every entry is a pure
    #: function of its key, so eviction can never change a score, and
    #: wholesale clearing is deterministic regardless of insertion order
    #: (an LRU would be too, but buys nothing for hash draws).
    VEC_MEMO_CAP = 1 << 13
    #: Caps for the per-cell memos, cleared the same way: static pools
    #: and their bundles and Maps cards are keyed on (query, snapped
    #: cell), the nearest-state memo on the cell.  A crawl builds a fixed
    #: set of cells, but a server meets new locations for as long as it
    #: runs.  Each cap sits above the full paper study's pre-fork warmup
    #: and every benchmark workload, so no shipped crawl ever clears one.
    POOL_MEMO_CAP = 1 << 14
    MAPS_MEMO_CAP = 1 << 11
    STATE_MEMO_CAP = 1 << 11
    #: Suggestion strips are keyed on (query, state, metro cell) and
    #: News cards on (query, day, state): a server adds entries for
    #: every new place and every served day.  Both are pure in their
    #: keys, so they clear like the caps above.  The organic-card memo
    #: is left uncapped: it is keyed on URL, and two same-URL entities
    #: (``ambiguous_entities``) would make a clear change which one's
    #: card is served; fixing its key comes first.
    SUGGESTION_MEMO_CAP = 1 << 14
    NEWS_MEMO_CAP = 1 << 14

    def __init__(self, world: WebWorld, calibration: EngineCalibration, seed: int):
        self.world = world
        self.calibration = calibration
        self.seed = seed
        self.fast_path = True
        self._snap_grid = GeoGrid(calibration.snap_cell_miles)
        self._static_pools: dict = {}
        self._state_cache: dict = {}
        self._maps_cache: dict = {}
        self._news_cache: dict = {}
        # Batch-path caches: flattened pools and per-(pool, bucket) /
        # per-(pool, datacenter) unit vectors aligned with them.
        self._bundles: Dict[tuple, _PoolBundle] = {}
        self._jitter_vecs: dict = {}
        self._skew_vecs: dict = {}
        self._suggestion_cache: dict = {}
        self._organic_cards: Dict[str, SerpCard] = {}
        self._knowledge_cards: dict = {}
        self._hits = 0
        self._misses = 0

    # -- public -------------------------------------------------------------

    def build_page(self, query: Query, ctx: RankingContext) -> SerpPage:
        """Rank candidates and assemble the card page for one request."""
        snapped = (
            self._snap_grid.snap(ctx.location)
            if self.calibration.snap_to_grid
            else ctx.location
        )
        state = self._nearest_state(snapped)
        metro = self.world.metro_grid.cell_of(snapped)
        if self.fast_path and not ctx.session_queries and not ctx.session_slugs:
            return self._build_page_fast(query, ctx, snapped, state, metro)
        return self._build_page_reference(query, ctx, snapped, state, metro)

    def build_pages_batch(
        self, query: Query, contexts: Sequence[RankingContext]
    ) -> List[SerpPage]:
        """Rank one query for many requests, sharing the static pass.

        All contexts that snap to the same grid cell share one
        :class:`_PoolBundle` (static score vector, computed once) and
        one suggestions tuple; only the per-request terms (jitter, skew,
        session boost) are applied per context.  Output is byte-for-byte
        what per-request :meth:`build_page` calls would produce, in
        input order — the parity contract the batch tests pin down.
        """
        pages: List[Optional[SerpPage]] = [None] * len(contexts)
        by_cell: Dict[LatLon, List[int]] = {}
        snap = self._snap_grid.snap if self.calibration.snap_to_grid else lambda p: p
        snapped_points = [snap(ctx.location) for ctx in contexts]
        for index, snapped in enumerate(snapped_points):
            by_cell.setdefault(snapped, []).append(index)
        for snapped, members in by_cell.items():
            state = self._nearest_state(snapped)
            metro = self.world.metro_grid.cell_of(snapped)
            # First touch builds the shared static pass for the cell.
            self._bundle(query, snapped, state, metro)
            for index in members:
                ctx = contexts[index]
                if self.fast_path and not ctx.session_queries and not ctx.session_slugs:
                    pages[index] = self._build_page_fast(
                        query, ctx, snapped, state, metro
                    )
                else:
                    pages[index] = self._build_page_reference(
                        query, ctx, snapped, state, metro
                    )
        return pages  # type: ignore[return-value]

    def prewarm(
        self, query: Query, locations: Sequence[LatLon], datacenters: Sequence[str] = ()
    ) -> None:
        """Build the shared static state for a round ahead of serving.

        Idempotent and purely cache-filling: bundles, suggestion tuples
        and skew vectors for every (cell, datacenter) a round will
        touch.  The pre-fork warmup walks the whole schedule through
        this, so forked workers inherit hot caches copy-on-write and
        never rebuild them.  Maps cards are warmed separately via
        :meth:`prewarm_maps` — their nonce gate opens for only a subset
        of (query, cell) pairs, so blanket warming would build cards no
        request ever asks for.  A build counts as a memo miss; a lookup
        that finds its entry already built counts as nothing, so the
        hit counter measures what pages reuse.
        """
        hits = self._hits
        snap = self._snap_grid.snap if self.calibration.snap_to_grid else lambda p: p
        for location in locations:
            snapped = snap(location)
            state = self._nearest_state(snapped)
            metro = self.world.metro_grid.cell_of(snapped)
            bundle = self._bundle(query, snapped, state, metro)
            self._suggestions(query, state, metro)
            for datacenter in datacenters:
                self._skew_vec(query.key, snapped, datacenter, bundle)
        self._hits = hits

    def prewarm_maps(self, query: Query, cells: Sequence[LatLon]) -> None:
        """Build maps cards for the given *snapped* cells ahead of serving.

        The POI lookup behind a maps card is the most expensive cold
        miss in the serving path, so the pre-fork warmup computes each
        card once in the parent for workers to inherit.  Callers
        pass the gate-passing cell set predicted from the schedule walk
        (:func:`repro.batch.predicted_maps_cells`); a missed prediction
        just falls back to the lazy per-request path.
        """
        if query.category is not QueryCategory.LOCAL:
            return
        for snapped in cells:
            self._cell_maps_card(query, snapped)

    def cache_info(self) -> dict:
        """Sizes of every memo plus aggregate hit/miss counters."""
        return {
            "static_pools": len(self._static_pools),
            "bundles": len(self._bundles),
            "jitter_vecs": len(self._jitter_vecs),
            "skew_vecs": len(self._skew_vecs),
            "suggestions": len(self._suggestion_cache),
            "organic_cards": len(self._organic_cards),
            "meta_cards": len(self._maps_cache) + len(self._news_cache)
            + len(self._knowledge_cards),
            "hits": self._hits,
            "misses": self._misses,
        }

    def clear_caches(self) -> None:
        """Drop every memo.

        Scores are pure, so rankings are unchanged; the organic-card
        memo is keyed on URL, though, so a URL two documents share may
        afterwards be served with the other document's card.
        """
        self._static_pools.clear()
        self._state_cache.clear()
        self._maps_cache.clear()
        self._news_cache.clear()
        self._bundles.clear()
        self._jitter_vecs.clear()
        self._skew_vecs.clear()
        self._suggestion_cache.clear()
        self._organic_cards.clear()
        self._knowledge_cards.clear()
        self._hits = 0
        self._misses = 0

    # -- fast path -----------------------------------------------------------

    def _build_page_fast(
        self, query: Query, ctx: RankingContext, snapped: LatLon, state: str, metro
    ) -> SerpPage:
        """Single-pass assembly over the cell's flattened bundle.

        Float evaluation order matches the reference path term for term
        (``amp*jitter + skew_amp*skew`` then negated with the static
        score), so the sort keys — and therefore the page bytes — are
        bit-identical.  Sessions never reach here: the session boost and
        history blending mutate the pool, so those requests take the
        reference path.
        """
        cal = self.calibration
        bundle = self._bundle(query, snapped, state, metro)
        jvec = self._jitter_vec(query.key, snapped, ctx.bucket, bundle)
        kvec = self._skew_vec(query.key, snapped, ctx.datacenter, bundle)
        skew_amp = cal.datacenter_skew
        scored = sorted(
            zip(
                (
                    -(s + (a * j + skew_amp * k))
                    for s, a, j, k in zip(bundle.statics, bundle.amps, jvec, kvec)
                ),
                bundle.identities,
                range(len(bundle.docs)),
            )
        )
        window_start = ctx.page * cal.organic_slots
        docs = bundle.docs
        cards: List[SerpCard] = [
            self._organic_card(docs[position])
            for _, _, position in scored[window_start : window_start + cal.organic_slots]
        ]
        if ctx.page == 0:
            knowledge_card = self._knowledge_card(query)
            if knowledge_card is not None:
                cards.insert(0, knowledge_card)
            maps_card = self._maps_card(query, snapped, ctx)
            if maps_card is not None:
                cards.insert(min(cal.maps_insert_rank, len(cards)), maps_card)
            news_card = self._news_card(query, state, ctx)
            if news_card is not None:
                cards.insert(min(cal.news_insert_rank, len(cards)), news_card)
        return SerpPage(
            query_text=query.text,
            cards=cards,
            reported_location=ctx.location,
            datacenter=ctx.datacenter,
            day=ctx.day,
            page=ctx.page,
            suggestions=self._suggestions(query, state, metro),
        )

    def _build_page_reference(
        self, query: Query, ctx: RankingContext, snapped: LatLon, state: str, metro
    ) -> SerpPage:
        """The per-request reference implementation (parity oracle).

        Handles every case, including session-carrying requests; the
        fast path must reproduce its output byte for byte on the cases
        it accepts.
        """
        cal = self.calibration
        pool = self._static_pool(query, snapped, state, metro)
        if ctx.session_queries:
            pool = pool + self._history_entries(query, pool, ctx)
        scored = sorted(
            pool,
            key=lambda entry: (
                -(entry[1] + self._dynamic_score(entry[0], ctx)),
                entry[0].identity,
            ),
        )
        window_start = ctx.page * cal.organic_slots
        organic = [
            doc for doc, _ in scored[window_start : window_start + cal.organic_slots]
        ]

        cards: List[SerpCard] = [
            SerpCard(card_type=CardType.ORGANIC, documents=[doc]) for doc in organic
        ]
        # Meta-cards belong to the first page only, as on real frontends.
        if ctx.page == 0:
            knowledge_card = self._knowledge_card(query)
            if knowledge_card is not None:
                cards.insert(0, knowledge_card)
            maps_card = self._maps_card(query, snapped, ctx)
            if maps_card is not None:
                cards.insert(min(cal.maps_insert_rank, len(cards)), maps_card)
            news_card = self._news_card(query, state, ctx)
            if news_card is not None:
                cards.insert(min(cal.news_insert_rank, len(cards)), news_card)

        from repro.engine.suggestions import related_searches

        return SerpPage(
            query_text=query.text,
            cards=cards,
            reported_location=ctx.location,
            datacenter=ctx.datacenter,
            day=ctx.day,
            page=ctx.page,
            suggestions=tuple(
                related_searches(query, state, metro, seed=self.seed)
            ),
        )

    def _bundle(
        self, query: Query, snapped: LatLon, state: str, metro
    ) -> _PoolBundle:
        key = (query.key, snapped)
        bundle = self._bundles.get(key)
        if bundle is not None:
            self._hits += 1
            return bundle
        self._misses += 1
        cal = self.calibration
        pool = self._static_pool(query, snapped, state, metro)
        local_scopes = (GeoScope.POINT, GeoScope.CITY)
        bundle = _PoolBundle(
            docs=tuple(doc for doc, _ in pool),
            statics=tuple(score for _, score in pool),
            identities=tuple(doc.identity for doc, _ in pool),
            amps=tuple(
                cal.ab_jitter_local
                if doc.scope in local_scopes
                else cal.ab_jitter_national
                for doc, _ in pool
            ),
        )
        if len(self._bundles) > self.POOL_MEMO_CAP:
            self._bundles.clear()
        self._bundles[key] = bundle
        return bundle

    def _jitter_vec(
        self, query_key, snapped: LatLon, bucket: int, bundle: _PoolBundle
    ) -> tuple:
        key = (query_key, snapped, bucket)
        vec = self._jitter_vecs.get(key)
        if vec is not None:
            self._hits += 1
            return vec
        self._misses += 1
        vec = tuple(
            _centered_many(("ab-jitter", self.seed, bucket), bundle.identities)
        )
        if len(self._jitter_vecs) > self.VEC_MEMO_CAP:
            self._jitter_vecs.clear()
        self._jitter_vecs[key] = vec
        return vec

    def _skew_vec(
        self, query_key, snapped: LatLon, datacenter: str, bundle: _PoolBundle
    ) -> tuple:
        key = (query_key, snapped, datacenter)
        vec = self._skew_vecs.get(key)
        if vec is not None:
            self._hits += 1
            return vec
        self._misses += 1
        vec = tuple(
            _centered_many(("dc-skew", self.seed, datacenter), bundle.identities)
        )
        if len(self._skew_vecs) > self.VEC_MEMO_CAP:
            self._skew_vecs.clear()
        self._skew_vecs[key] = vec
        return vec

    def _suggestions(self, query: Query, state: str, metro) -> tuple:
        key = (query.key, state, metro)
        suggestions = self._suggestion_cache.get(key)
        if suggestions is None:
            from repro.engine.suggestions import related_searches

            suggestions = tuple(
                related_searches(query, state, metro, seed=self.seed)
            )
            if len(self._suggestion_cache) > self.SUGGESTION_MEMO_CAP:
                self._suggestion_cache.clear()
            self._suggestion_cache[key] = suggestions
        return suggestions

    def _organic_card(self, doc: Document) -> SerpCard:
        card = self._organic_cards.get(doc.identity)
        if card is None:
            card = SerpCard(card_type=CardType.ORGANIC, documents=[doc])
            self._organic_cards[doc.identity] = card
        return card

    # -- candidates and static scoring ----------------------------------------

    def _nearest_state(self, snapped: LatLon) -> str:
        state = self._state_cache.get(snapped)
        if state is None:
            state = self.world.locator.nearest_region(snapped)
            if len(self._state_cache) > self.STATE_MEMO_CAP:
                self._state_cache.clear()
            self._state_cache[snapped] = state
        return state

    def _static_pool(self, query: Query, snapped: LatLon, state: str, metro) -> List[tuple]:
        """Candidates with their request-independent scores, memoised."""
        key = (query.key, snapped)
        pool = self._static_pools.get(key)
        if pool is not None:
            return pool
        cal = self.calibration
        candidates = list(self.world.universal_candidates(query))
        candidates.extend(self.world.state_candidates(query, state))
        candidates.extend(self.world.city_candidates(query, metro))
        candidates.extend(self.world.ambiguity_candidates(query))
        candidates.extend(
            self.world.poi_candidates(
                query,
                snapped,
                radius_miles=cal.poi_radius_miles,
                limit=cal.poi_candidate_limit,
            )
        )
        # Each term family is drawn in one batch; a document's terms are
        # then added in a fixed order (index bias, then geo decay or
        # state and metro keying), so every score is bit-stable.
        seed = self.seed
        urls = [doc.identity for doc in candidates]
        national = [
            doc.identity for doc in candidates if doc.scope is GeoScope.NATIONAL
        ]
        biases = iter(
            _centered_many(("index-bias", seed), urls) if cal.index_bias else ()
        )
        state_units = iter(_centered_many(("state-perturb", seed), national, (state,)))
        metro_units = iter(
            _centered_many(("metro-perturb", seed), national, (metro.ix, metro.iy))
        )
        amp_state, amp_metro = self._perturb_amplitudes(query)
        # Deduplicate by URL, keeping the best-scoring instance: two
        # nearby POIs can legitimately share a canonical URL (e.g. the
        # same business straddling a cell boundary), and an index serves
        # one entry per URL.
        best: dict = {}
        for doc, url in zip(candidates, urls):
            score = doc.base_score
            if cal.index_bias:
                # This engine's crawl/scoring idiosyncrasy for the document.
                score += cal.index_bias * next(biases)
            if doc.scope is GeoScope.POINT:
                assert doc.anchor is not None
                if doc.kind is DocKind.LOCAL_BUSINESS:
                    distance = self.world.grid.distance_miles(snapped, doc.anchor)
                    score -= cal.poi_distance_penalty_per_mile * distance
                else:
                    distance = haversine_miles(snapped, doc.anchor)
                    score -= cal.ambiguity_decay_per_mile * distance
            elif doc.scope is GeoScope.NATIONAL:
                score += amp_state * next(state_units)
                score += amp_metro * next(metro_units)
            existing = best.get(url)
            if existing is None or score > existing[1]:
                best[url] = (doc, score)
        pool = list(best.values())
        if len(self._static_pools) > self.POOL_MEMO_CAP:
            self._static_pools.clear()
        self._static_pools[key] = pool
        return pool

    def _history_entries(
        self, query: Query, pool: List[tuple], ctx: RankingContext
    ) -> List[tuple]:
        """Candidates blended in from the session's recent searches.

        The engine surfaces a few top results of recently issued queries
        (discounted, plus the session boost) — the 10-minute carryover
        personalization the paper's 11-minute waits are designed to
        dodge.
        """
        cal = self.calibration
        existing = {doc.identity for doc, _ in pool}
        entries: List[tuple] = []
        for recent in ctx.session_queries:
            if recent.key == query.key:
                continue
            for doc in self.world.universal_candidates(recent)[:2]:
                if doc.identity in existing:
                    continue
                existing.add(doc.identity)
                entries.append((doc, doc.base_score * 0.7 + cal.session_boost))
        return entries

    def _dynamic_score(self, doc: Document, ctx: RankingContext) -> float:
        """The per-request score terms: jitter, datacenter skew, session."""
        cal = self.calibration
        url = doc.identity
        jitter_amp = (
            cal.ab_jitter_local
            if doc.scope in (GeoScope.POINT, GeoScope.CITY)
            else cal.ab_jitter_national
        )
        score = jitter_amp * _centered("ab-jitter", self.seed, ctx.bucket, url)
        score += cal.datacenter_skew * _centered(
            "dc-skew", self.seed, ctx.datacenter, url
        )
        if ctx.session_slugs and any(slug in url for slug in ctx.session_slugs):
            score += cal.session_boost
        return score

    def _perturb_amplitudes(self, query: Query) -> tuple:
        cal = self.calibration
        if query.category is QueryCategory.LOCAL:
            if query.is_brand:
                return (cal.state_perturb_local_brand, cal.metro_perturb_local_brand)
            return (cal.state_perturb_local_generic, cal.metro_perturb_local_generic)
        if query.category is QueryCategory.CONTROVERSIAL:
            from repro.web.entities import BROAD_CONTROVERSIAL_TERMS

            amp_state = (
                cal.state_perturb_controversial_broad
                if query.text.lower() in BROAD_CONTROVERSIAL_TERMS
                else cal.state_perturb_controversial
            )
            return (amp_state, cal.metro_perturb_controversial)
        return (cal.state_perturb_politician, cal.metro_perturb_politician)

    # -- meta-cards ----------------------------------------------------------

    def _knowledge_card(self, query: Query) -> Optional[SerpCard]:
        """An entity panel for unambiguous named entities.

        Politicians get a panel unless their name is shared by other
        people (the engine cannot pick an entity for "Bill Johnson" —
        the same ambiguity that drives their residual personalization);
        brand queries get the chain's panel.  The panel links the
        entity's official site, so the parser extracts it as a normal
        first-link card.
        """
        if query.key in self._knowledge_cards:
            return self._knowledge_cards[query.key]
        card = None
        if query.category is QueryCategory.POLITICIAN and not query.is_common_name:
            official = self.world.universal_candidates(query)[0]
            card = SerpCard(card_type=CardType.KNOWLEDGE, documents=[official])
        elif query.category is QueryCategory.LOCAL and query.is_brand:
            homepage = self.world.universal_candidates(query)[0]
            card = SerpCard(card_type=CardType.KNOWLEDGE, documents=[homepage])
        self._knowledge_cards[query.key] = card
        return card

    def _maps_card(
        self, query: Query, snapped: LatLon, ctx: RankingContext
    ) -> Optional[SerpCard]:
        cal = self.calibration
        if query.category is not QueryCategory.LOCAL:
            return None
        probability = cal.maps_prob_brand if query.is_brand else cal.maps_prob_generic
        gate = stable_unit("maps-gate", self.seed, query.key, ctx.nonce)
        if gate >= probability:
            return None
        card = self._cell_maps_card(query, snapped)
        return card if card is not _NO_CARD else None

    def _cell_maps_card(self, query: Query, snapped: LatLon) -> SerpCard:
        """The Maps card of a local query at a snapped cell, memoised
        (``_NO_CARD`` when no place is near)."""
        key = (query.key, snapped)
        card = self._maps_cache.get(key)
        if card is None:
            places = self.world.maps_places(
                query, snapped, self.calibration.maps_card_size
            )
            card = (
                SerpCard(card_type=CardType.MAPS, documents=places)
                if places
                else _NO_CARD
            )
            if len(self._maps_cache) > self.MAPS_MEMO_CAP:
                self._maps_cache.clear()
            self._maps_cache[key] = card
        return card

    def _news_card(
        self, query: Query, state: str, ctx: RankingContext
    ) -> Optional[SerpCard]:
        cal = self.calibration
        if query.category is QueryCategory.CONTROVERSIAL:
            threshold = cal.news_threshold_controversial
        elif query.category is QueryCategory.POLITICIAN:
            threshold = cal.news_threshold_politician
        else:
            return None
        if not self.world.news.has_news_card(
            query.text, ctx.day, affinity_threshold=threshold
        ):
            return None
        cache_key = (query.key, ctx.day, state)
        card = self._news_cache.get(cache_key)
        if card is None:
            articles = self.world.news_articles(query, ctx.day, state, cal.news_card_size)
            card = (
                SerpCard(card_type=CardType.NEWS, documents=articles)
                if articles
                else _NO_CARD
            )
            if len(self._news_cache) > self.NEWS_MEMO_CAP:
                self._news_cache.clear()
            self._news_cache[cache_key] = card
        return card if card is not _NO_CARD else None
