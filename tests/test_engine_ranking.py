"""Unit tests of the ranking layer's score composition and the renderer."""

import pytest

from repro.engine.calibration import EngineCalibration
from repro.engine.ranking import Ranker, RankingContext, _centered
from repro.engine.render import render_page
from repro.engine.serp import CardType
from repro.geo.coords import LatLon, haversine_miles
from repro.queries.corpus import build_corpus
from repro.seeding import clear_digest_cache, digest_cache_info
from repro.web.documents import DocKind, GeoScope
from repro.web.world import WebWorld

CLEVELAND = LatLon(41.4993, -81.6944)
AUSTIN = LatLon(30.2672, -97.7431)


@pytest.fixture(scope="module")
def ranker_world():
    return WebWorld(808)


@pytest.fixture(scope="module")
def queries():
    corpus = build_corpus()
    return {
        "generic": corpus.get("School"),
        "brand": corpus.get("Starbucks"),
        "controversial": corpus.get("Gay Marriage"),
        "politician": corpus.get("Barack Obama"),
        "common": corpus.get("Bill Johnson"),
        # No News card at day 0 in world 808.
        "quiet-politician": corpus.get("Mazie Gibbs"),
    }


def _ctx(location, *, day=0, dc="dc00", bucket=0, nonce=1):
    return RankingContext(
        location=location, day=day, datacenter=dc, bucket=bucket, nonce=nonce
    )


def _ranker(world, **overrides):
    return Ranker(world, EngineCalibration().with_overrides(**overrides), seed=808)


class TestStaticScoring:
    def test_poi_scores_decay_with_distance(self, ranker_world, queries):
        ranker = _ranker(ranker_world)
        snapped = ranker._snap_grid.snap(CLEVELAND)
        state = ranker._nearest_state(snapped)
        metro = ranker_world.metro_grid.cell_of(snapped)
        pool = ranker._static_pool(queries["generic"], snapped, state, metro)
        pois = [
            (doc, score)
            for doc, score in pool
            if doc.kind.value == "local-business"
        ]
        assert pois
        for doc, score in pois:
            # The static score is base minus the distance penalty.
            assert score <= doc.base_score

    def test_pool_is_memoised(self, ranker_world, queries):
        ranker = _ranker(ranker_world)
        snapped = ranker._snap_grid.snap(CLEVELAND)
        state = ranker._nearest_state(snapped)
        metro = ranker_world.metro_grid.cell_of(snapped)
        a = ranker._static_pool(queries["generic"], snapped, state, metro)
        b = ranker._static_pool(queries["generic"], snapped, state, metro)
        assert a is b

    def test_ambiguity_docs_decay_slowly(self, ranker_world, queries):
        ranker = _ranker(ranker_world)
        query = queries["common"]
        snapped = ranker._snap_grid.snap(CLEVELAND)
        state = ranker._nearest_state(snapped)
        metro = ranker_world.metro_grid.cell_of(snapped)
        pool = ranker._static_pool(query, snapped, state, metro)
        entities = [
            (doc, score)
            for doc, score in pool
            if doc.anchor is not None and doc.kind.value == "organic"
        ]
        assert entities
        for doc, score in entities:
            distance = __import__("repro.geo.coords", fromlist=["haversine_miles"]).haversine_miles(
                snapped, doc.anchor
            )
            expected = doc.base_score - 0.0035 * distance
            assert score == pytest.approx(expected)

    def test_index_bias_shifts_static_scores(self, ranker_world, queries):
        plain = _ranker(ranker_world)
        biased = _ranker(ranker_world, index_bias=1.0)
        snapped = plain._snap_grid.snap(CLEVELAND)
        state = plain._nearest_state(snapped)
        metro = ranker_world.metro_grid.cell_of(snapped)
        pool_a = dict(
            (doc.identity, score)
            for doc, score in plain._static_pool(queries["controversial"], snapped, state, metro)
        )
        pool_b = dict(
            (doc.identity, score)
            for doc, score in biased._static_pool(queries["controversial"], snapped, state, metro)
        )
        diffs = [abs(pool_a[url] - pool_b[url]) for url in pool_a]
        assert max(diffs) > 0.1

    def test_location_keying_changes_national_doc_scores(self, ranker_world, queries):
        ranker = _ranker(ranker_world)
        query = queries["generic"]
        snapped_a = ranker._snap_grid.snap(CLEVELAND)
        snapped_b = ranker._snap_grid.snap(AUSTIN)
        pool_a = {
            doc.identity: score
            for doc, score in ranker._static_pool(
                query, snapped_a, ranker._nearest_state(snapped_a),
                ranker_world.metro_grid.cell_of(snapped_a),
            )
            if doc.scope.value == "national"
        }
        pool_b = {
            doc.identity: score
            for doc, score in ranker._static_pool(
                query, snapped_b, ranker._nearest_state(snapped_b),
                ranker_world.metro_grid.cell_of(snapped_b),
            )
            if doc.scope.value == "national"
        }
        shared = set(pool_a) & set(pool_b)
        assert shared
        assert any(abs(pool_a[url] - pool_b[url]) > 0.05 for url in shared)


def _static_score_oracle(ranker, doc, query, snapped, state, metro):
    """One document's static score, one hash draw per term: the oracle
    for the batched draws of ``Ranker._static_pool``."""
    cal = ranker.calibration
    score = doc.base_score
    url = doc.identity
    if cal.index_bias:
        score += cal.index_bias * _centered("index-bias", ranker.seed, url)
    if doc.scope is GeoScope.POINT:
        if doc.kind is DocKind.LOCAL_BUSINESS:
            distance = ranker.world.grid.distance_miles(snapped, doc.anchor)
            score -= cal.poi_distance_penalty_per_mile * distance
        else:
            distance = haversine_miles(snapped, doc.anchor)
            score -= cal.ambiguity_decay_per_mile * distance
    elif doc.scope is GeoScope.NATIONAL:
        amp_state, amp_metro = ranker._perturb_amplitudes(query)
        score += amp_state * _centered("state-perturb", ranker.seed, url, state)
        score += amp_metro * _centered(
            "metro-perturb", ranker.seed, url, metro.ix, metro.iy
        )
    return score


def _static_pool_oracle(ranker, query, snapped, state, metro):
    """The static pool scored document by document, best per URL."""
    cal = ranker.calibration
    world = ranker.world
    candidates = [
        *world.universal_candidates(query),
        *world.state_candidates(query, state),
        *world.city_candidates(query, metro),
        *world.ambiguity_candidates(query),
        *world.poi_candidates(
            query,
            snapped,
            radius_miles=cal.poi_radius_miles,
            limit=cal.poi_candidate_limit,
        ),
    ]
    best = {}
    for doc in candidates:
        score = _static_score_oracle(ranker, doc, query, snapped, state, metro)
        existing = best.get(doc.identity)
        if existing is None or score > existing[1]:
            best[doc.identity] = (doc, score)
    return list(best.values())


class TestBatchedDraws:
    """Every batched hash draw against its one-draw-per-term oracle."""

    PLACES = (
        CLEVELAND,
        AUSTIN,
        LatLon(40.7128, -74.0060),
        LatLon(47.6062, -122.3321),
        LatLon(39.7392, -104.9903),
    )

    @pytest.mark.parametrize("index_bias", [0.0, 0.7])
    @pytest.mark.parametrize(
        "name", ["generic", "brand", "controversial", "politician", "common"]
    )
    def test_static_pool_matches_per_document_scores(
        self, ranker_world, queries, name, index_bias
    ):
        query = queries[name]
        ranker = _ranker(ranker_world, index_bias=index_bias)
        states = set()
        for place in self.PLACES:
            snapped = ranker._snap_grid.snap(place)
            state = ranker._nearest_state(snapped)
            metro = ranker_world.metro_grid.cell_of(snapped)
            states.add(state)
            pool = ranker._static_pool(query, snapped, state, metro)
            assert pool == _static_pool_oracle(ranker, query, snapped, state, metro)
        assert len(states) == len(self.PLACES)

    @pytest.mark.parametrize("name", ["generic", "controversial", "politician"])
    def test_unit_vectors_match_per_document_draws(self, ranker_world, queries, name):
        query = queries[name]
        ranker = _ranker(ranker_world)
        for place in self.PLACES[:2]:
            snapped = ranker._snap_grid.snap(place)
            state = ranker._nearest_state(snapped)
            metro = ranker_world.metro_grid.cell_of(snapped)
            bundle = ranker._bundle(query, snapped, state, metro)
            for bucket in (0, 3):
                assert ranker._jitter_vec(query.key, snapped, bucket, bundle) == tuple(
                    _centered("ab-jitter", ranker.seed, bucket, url)
                    for url in bundle.identities
                )
            for datacenter in ("dc00", "dc07"):
                assert ranker._skew_vec(
                    query.key, snapped, datacenter, bundle
                ) == tuple(
                    _centered("dc-skew", ranker.seed, datacenter, url)
                    for url in bundle.identities
                )


class TestDynamicScoring:
    def test_bucket_changes_jitter(self, ranker_world, queries):
        ranker = _ranker(ranker_world)
        page_a = ranker.build_page(queries["generic"], _ctx(CLEVELAND, bucket=1, nonce=1))
        pages_differ = False
        for bucket in range(2, 30):
            page_b = ranker.build_page(
                queries["generic"], _ctx(CLEVELAND, bucket=bucket, nonce=1)
            )
            if page_a.links() != page_b.links():
                pages_differ = True
                break
        assert pages_differ

    def test_datacenter_changes_scores(self, ranker_world, queries):
        ranker = _ranker(ranker_world)
        differs = False
        for nonce in range(5):
            a = ranker.build_page(queries["generic"], _ctx(CLEVELAND, dc="dc00", nonce=nonce))
            b = ranker.build_page(queries["generic"], _ctx(CLEVELAND, dc="dc01", nonce=nonce))
            if a.links() != b.links():
                differs = True
        assert differs

    def test_zero_noise_calibration_is_deterministic(self, ranker_world, queries):
        ranker = _ranker(
            ranker_world,
            ab_jitter_local=0.0,
            ab_jitter_national=0.0,
            datacenter_skew=0.0,
            maps_prob_generic=1.0,
        )
        pages = {
            tuple(
                ranker.build_page(
                    queries["generic"], _ctx(CLEVELAND, bucket=b, nonce=b, dc=f"dc0{b % 3}")
                ).links()
            )
            for b in range(6)
        }
        assert len(pages) == 1


class TestCardAssembly:
    def test_maps_insert_rank(self, ranker_world, queries):
        ranker = _ranker(ranker_world, maps_prob_generic=1.0, maps_insert_rank=1)
        page = ranker.build_page(queries["generic"], _ctx(CLEVELAND))
        assert page.cards[1].card_type is CardType.MAPS

    def test_maps_card_size(self, ranker_world, queries):
        ranker = _ranker(ranker_world, maps_prob_generic=1.0, maps_card_size=5)
        page = ranker.build_page(queries["generic"], _ctx(CLEVELAND))
        maps_card = next(c for c in page.cards if c.card_type is CardType.MAPS)
        assert len(maps_card.documents) == 5

    def test_organic_slots_respected(self, ranker_world, queries):
        ranker = _ranker(ranker_world, organic_slots=9, maps_prob_generic=0.0)
        page = ranker.build_page(queries["generic"], _ctx(CLEVELAND))
        assert page.card_count(CardType.ORGANIC) == 9

    def test_news_threshold_zero_gives_all_controversial_news(self, ranker_world, queries):
        ranker = _ranker(ranker_world, news_threshold_controversial=0.0)
        page = ranker.build_page(queries["controversial"], _ctx(CLEVELAND))
        assert page.card_count(CardType.NEWS) == 1

    def test_news_threshold_one_gives_none(self, ranker_world, queries):
        ranker = _ranker(ranker_world, news_threshold_controversial=1.0)
        page = ranker.build_page(queries["controversial"], _ctx(CLEVELAND))
        assert page.card_count(CardType.NEWS) == 0

    def test_organic_results_sorted_by_total_score(self, ranker_world, queries):
        # With zero dynamic noise, organic order must equal static-score
        # order.
        ranker = _ranker(
            ranker_world,
            ab_jitter_local=0.0,
            ab_jitter_national=0.0,
            datacenter_skew=0.0,
            maps_prob_generic=0.0,
        )
        query = queries["generic"]
        ctx = _ctx(CLEVELAND)
        page = ranker.build_page(query, ctx)
        snapped = ranker._snap_grid.snap(CLEVELAND)
        pool = ranker._static_pool(
            query, snapped, ranker._nearest_state(snapped),
            ranker_world.metro_grid.cell_of(snapped),
        )
        scores = {doc.identity: score for doc, score in pool}
        organic_urls = [
            str(card.documents[0].url)
            for card in page.cards
            if card.card_type is CardType.ORGANIC
        ]
        organic_scores = [scores[url] for url in organic_urls]
        assert organic_scores == sorted(organic_scores, reverse=True)


def _context_grid():
    """Mixed cells, buckets, datacenters, nonces, and pages — the shapes
    one lock-step round actually produces."""
    contexts = []
    nonce = 1
    for location in (CLEVELAND, AUSTIN):
        for bucket in (0, 1, 2):
            for datacenter in ("dc00", "dc01"):
                contexts.append(
                    RankingContext(
                        location=location,
                        day=0,
                        datacenter=datacenter,
                        bucket=bucket,
                        nonce=nonce,
                        page=nonce % 2,
                    )
                )
                nonce += 1
    return contexts


class TestBatchParity:
    """build_pages_batch and the build_page fast path must be invisible:
    byte-for-byte what per-request reference calls produce."""

    @pytest.mark.parametrize("name", ["generic", "brand", "controversial"])
    def test_batch_matches_per_request_reference(
        self, ranker_world, queries, name
    ):
        query = queries[name]
        contexts = _context_grid()
        reference = _ranker(ranker_world)
        reference.fast_path = False
        expected = [
            render_page(reference.build_page(query, ctx)) for ctx in contexts
        ]
        batch = _ranker(ranker_world)
        pages = batch.build_pages_batch(query, contexts)
        assert [render_page(page) for page in pages] == expected

    def test_fast_path_toggle_is_byte_invisible(self, ranker_world, queries):
        query = queries["generic"]
        contexts = _context_grid()
        slow = _ranker(ranker_world)
        slow.fast_path = False
        fast = _ranker(ranker_world)
        assert fast.fast_path  # the default
        for ctx in contexts:
            assert render_page(fast.build_page(query, ctx)) == render_page(
                slow.build_page(query, ctx)
            )

    def test_batch_session_contexts_take_reference_path(
        self, ranker_world, queries
    ):
        # A session-carrying request mutates the pool (history blending,
        # session boost), so the batch path must route it through the
        # reference implementation — mixed in with fast-path siblings.
        query = queries["generic"]
        plain = RankingContext(
            location=CLEVELAND, day=0, datacenter="dc00", bucket=0, nonce=1
        )
        session = RankingContext(
            location=CLEVELAND,
            day=0,
            datacenter="dc00",
            bucket=0,
            nonce=2,
            session_slugs=("school",),
        )
        reference = _ranker(ranker_world)
        reference.fast_path = False
        expected = [
            render_page(reference.build_page(query, ctx))
            for ctx in (plain, session, plain)
        ]
        batch = _ranker(ranker_world)
        pages = batch.build_pages_batch(query, (plain, session, plain))
        assert [render_page(page) for page in pages] == expected

    def test_batch_preserves_input_order(self, ranker_world, queries):
        contexts = _context_grid()
        pages = _ranker(ranker_world).build_pages_batch(
            queries["generic"], contexts
        )
        assert [page.reported_location for page in pages] == [
            ctx.location for ctx in contexts
        ]
        assert [page.datacenter for page in pages] == [
            ctx.datacenter for ctx in contexts
        ]


class TestRankerCaches:
    def test_cache_info_tracks_memo_growth_and_hits(self, ranker_world, queries):
        ranker = _ranker(ranker_world)
        query = queries["generic"]
        ctx = _ctx(CLEVELAND)
        ranker.build_page(query, ctx)
        info = ranker.cache_info()
        assert info["static_pools"] >= 1
        assert info["bundles"] >= 1
        assert info["jitter_vecs"] >= 1
        assert info["misses"] > 0
        ranker.build_page(query, ctx)
        again = ranker.cache_info()
        assert again["hits"] > info["hits"]
        assert again["bundles"] == info["bundles"]

    def test_repeated_prewarm_counts_no_memo_hits(self):
        from repro.batch import prewarm_round
        from repro.core.experiment import StudyConfig
        from repro.core.runner import Study

        study = Study(StudyConfig.small(days=1, locations_per_granularity=2))
        query = next(study.iter_rounds()).query
        ranker = study.engine.ranker
        prewarm_round(study, query, study.treatments)
        warmed = ranker.cache_info()
        assert warmed["hits"] == 0 and warmed["misses"] > 0
        prewarm_round(study, query, study.treatments)
        assert ranker.cache_info() == warmed
        # The pages built afterwards still count the memo entries they reuse.
        study.run_single_query(query)
        assert ranker.cache_info()["hits"] > 0

    def test_clear_caches_resets_without_changing_output(
        self, ranker_world, queries
    ):
        ranker = _ranker(ranker_world)
        query = queries["generic"]
        ctx = _ctx(CLEVELAND)
        before = render_page(ranker.build_page(query, ctx))
        ranker.clear_caches()
        info = ranker.cache_info()
        assert all(value == 0 for value in info.values())
        assert render_page(ranker.build_page(query, ctx)) == before

    def test_memo_caps_bound_growth_without_changing_output(
        self, ranker_world, queries
    ):
        # A local query with a Maps card on every page, served at four
        # cells in four states, eight buckets each.
        query = queries["generic"]
        unbounded = _ranker(ranker_world, maps_prob_generic=1.0)
        capped = _ranker(WebWorld(808), maps_prob_generic=1.0)
        capped.world.pois.CELL_MEMO_CAP = 0
        for cap in (
            "VEC_MEMO_CAP",
            "POOL_MEMO_CAP",
            "MAPS_MEMO_CAP",
            "STATE_MEMO_CAP",
            "SUGGESTION_MEMO_CAP",
            "NEWS_MEMO_CAP",
        ):
            assert hasattr(Ranker, cap), cap  # a stale name would override nothing
            setattr(capped, cap, 0)  # instance override: clear on every overflow
        memos = (
            "_jitter_vecs",
            "_skew_vecs",
            "_static_pools",
            "_bundles",
            "_maps_cache",
            "_state_cache",
            "_suggestion_cache",
            "_news_cache",
        )
        places = (
            CLEVELAND,
            AUSTIN,
            LatLon(40.7128, -74.0060),
            LatLon(47.6062, -122.3321),
        )
        for place in places:
            for bucket in range(8):
                ctx = _ctx(place, bucket=bucket, nonce=bucket + 1)
                page = capped.build_page(query, ctx)
                assert render_page(page) == render_page(
                    unbounded.build_page(query, ctx)
                )
                assert any(card.card_type is CardType.MAPS for card in page.cards)
                for name in memos:
                    assert len(getattr(capped, name)) <= 1, name
                assert len(capped.world.pois._cache) <= 1
        # A politician query carries a News card every day: one per
        # (day, state), each place in its own state.
        politician = queries["politician"]
        for day in range(3):
            for place in places:
                ctx = _ctx(place, day=day)
                page = capped.build_page(politician, ctx)
                assert render_page(page) == render_page(
                    unbounded.build_page(politician, ctx)
                )
                assert any(card.card_type is CardType.NEWS for card in page.cards)
                for name in memos:
                    assert len(getattr(capped, name)) <= 1, name
        assert len(unbounded._jitter_vecs) == 8 * len(places) + len(places)
        for name in ("_static_pools", "_bundles", "_suggestion_cache"):
            assert len(getattr(unbounded, name)) == 2 * len(places), name
        for name in ("_maps_cache", "_state_cache"):
            assert len(getattr(unbounded, name)) == len(places), name
        assert len(unbounded._news_cache) == 3 * len(places)
        assert len(unbounded.world.pois._cache) > len(places)

    @pytest.mark.parametrize("name", ["brand", "controversial", "quiet-politician"])
    def test_cold_page_adds_at_most_two_digest_entries(
        self, ranker_world, queries, name
    ):
        # Batched draws (static terms, jitter, skew, suggestion ranks)
        # leave no digest-cache entry.  A second seed over the built
        # world rebuilds every one of them; only single draws remain,
        # such as the Maps gate, the city name, or the News gate.
        query = queries[name]
        ctx = _ctx(CLEVELAND)
        _ranker(ranker_world).build_page(query, ctx)
        clear_digest_cache()
        page = Ranker(ranker_world, EngineCalibration(), seed=809).build_page(
            query, ctx
        )
        assert page.card_count(CardType.NEWS) == 0
        assert digest_cache_info()["digest"]["currsize"] <= 2

    def test_prewarm_fills_only_pure_memos(self, ranker_world, queries):
        query = queries["generic"]
        cold = _ranker(ranker_world)
        expected = render_page(cold.build_page(query, _ctx(CLEVELAND)))
        warm = _ranker(ranker_world)
        warm.prewarm(query, [CLEVELAND], ["dc00"])
        info = warm.cache_info()
        assert info["bundles"] == 1
        assert info["skew_vecs"] == 1
        assert info["suggestions"] == 1
        assert render_page(warm.build_page(query, _ctx(CLEVELAND))) == expected

    def test_prewarm_maps_builds_cards_for_local_queries_only(
        self, ranker_world, queries
    ):
        local = _ranker(ranker_world)
        snapped = local._snap_grid.snap(CLEVELAND)
        local.prewarm_maps(queries["brand"], [snapped])
        assert (queries["brand"].key, snapped) in local._maps_cache
        national = _ranker(ranker_world)
        national.prewarm_maps(queries["controversial"], [snapped])
        assert not national._maps_cache


class TestRenderer:
    def test_rank_attributes_sequential(self, ranker_world, queries):
        ranker = _ranker(ranker_world, maps_prob_generic=1.0)
        page = ranker.build_page(queries["generic"], _ctx(CLEVELAND))
        html = render_page(page)
        for index in range(1, len(page.cards) + 1):
            assert f'data-rank="{index}"' in html

    def test_titles_escaped(self, ranker_world):
        corpus = build_corpus()
        query = corpus.get("Wendy's")
        ranker = _ranker(ranker_world)
        html = render_page(ranker.build_page(query, _ctx(CLEVELAND)))
        assert "Wendy&#x27;s" in html or "Wendy's" in html
        assert "<script" not in html
