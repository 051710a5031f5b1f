"""Tests for positional volatility and suggestion personalization."""

import pytest

from repro.core.positions import PositionalAnalysis
from repro.engine.suggestions import (
    _GENERIC_TEMPLATES,
    _INFO_TEMPLATES,
    _LOCAL_PLACE_TEMPLATES,
    _PERSON_TEMPLATES,
    related_searches,
)
from repro.queries.corpus import build_corpus
from repro.queries.model import QueryCategory
from repro.seeding import stable_hash
from repro.web.grid import GridCell
from repro.web.naming import city_name


def _related_searches_oracle(query, state, metro, *, seed):
    """The whole ranked pool, one hash draw per rank-key term: the
    oracle for the batched draws of ``related_searches``."""
    term = query.text.lower()
    if query.category is QueryCategory.LOCAL:
        pool = [t.format(term=term, city=city_name(metro), state=state)
                for t in _GENERIC_TEMPLATES + _LOCAL_PLACE_TEMPLATES]
        location_weight = 1.0
    elif query.category is QueryCategory.POLITICIAN:
        pool = [t.format(term=query.text) for t in _PERSON_TEMPLATES]
        location_weight = 0.0
    else:
        pool = [t.format(term=term) for t in _INFO_TEMPLATES]
        location_weight = 0.1

    def rank_key(suggestion):
        base = stable_hash("suggestion-base", seed, query.key, suggestion) % 1000
        local = (
            stable_hash("suggestion-local", seed, query.key, suggestion, state,
                        metro.ix, metro.iy)
            % 1000
        )
        return base + location_weight * local

    return sorted(pool, key=rank_key)


class TestRelatedSearches:
    @pytest.fixture(scope="class")
    def queries(self):
        corpus = build_corpus()
        return {
            "local": corpus.get("Coffee"),
            "brand": corpus.get("Starbucks"),
            "controversial": corpus.get("Gun Control"),
            "politician": corpus.get("Barack Obama"),
        }

    @pytest.mark.parametrize("name", ["local", "brand", "controversial", "politician"])
    def test_ranking_matches_per_suggestion_draws(self, queries, name):
        query = queries[name]
        places = [
            ("Ohio", GridCell(10, 20)),
            ("Texas", GridCell(900, 400)),
            ("Ohio", GridCell(-548, 357)),
            ("New York", GridCell(0, 0)),
        ]
        for seed in (1, 808):
            for state, metro in places:
                expected = _related_searches_oracle(query, state, metro, seed=seed)
                assert related_searches(
                    query, state, metro, seed=seed, count=len(expected)
                ) == expected
                assert related_searches(query, state, metro, seed=seed) == expected[:6]

    def test_deterministic(self, queries):
        cell = GridCell(10, 20)
        a = related_searches(queries["local"], "Ohio", cell, seed=1)
        b = related_searches(queries["local"], "Ohio", cell, seed=1)
        assert a == b

    def test_count(self, queries):
        assert len(related_searches(queries["local"], "Ohio", GridCell(1, 1), seed=1)) == 6

    def test_invalid_count(self, queries):
        with pytest.raises(ValueError):
            related_searches(queries["local"], "Ohio", GridCell(1, 1), seed=1, count=0)

    def test_local_suggestions_vary_by_state(self, queries):
        cell_a, cell_b = GridCell(10, 20), GridCell(900, 400)
        a = related_searches(queries["local"], "Ohio", cell_a, seed=1)
        b = related_searches(queries["local"], "Texas", cell_b, seed=1)
        assert set(a) != set(b)

    def test_politician_suggestions_stable_across_locations(self, queries):
        a = related_searches(queries["politician"], "Ohio", GridCell(10, 20), seed=1)
        b = related_searches(queries["politician"], "Texas", GridCell(900, 400), seed=1)
        assert a == b

    def test_local_terms_mention_term(self, queries):
        for suggestion in related_searches(queries["local"], "Ohio", GridCell(1, 2), seed=1):
            assert "coffee" in suggestion

    def test_suggestions_survive_html_round_trip(self, engine, make_request):
        from repro.core.parser import parse_serp_html
        from repro.geo.coords import LatLon

        page = engine.serve_page(make_request("Coffee", gps=LatLon(41.43, -81.67)))
        from repro.engine.render import render_page

        parsed = parse_serp_html(render_page(page))
        assert parsed.suggestions == page.suggestions
        assert len(parsed.suggestions) == 6

    def test_suggestions_stored_in_records(self, small_dataset):
        record = next(iter(small_dataset))
        assert len(record.suggestions) == 6

    def test_suggestions_round_trip_through_save(self, small_dataset, tmp_path):
        from repro.core.datastore import SerpDataset

        path = tmp_path / "with_suggestions.jsonl"
        small_dataset.save(path)
        loaded = SerpDataset.load(path)
        record = next(iter(loaded))
        assert record.suggestions == next(iter(small_dataset)).suggestions


class TestPositionalAnalysis:
    @pytest.fixture(scope="class")
    def analysis(self, small_dataset):
        return PositionalAnalysis(small_dataset)

    def test_profile_values_are_probabilities(self, analysis):
        for value in analysis.volatility_profile("local", "national"):
            assert 0.0 <= value <= 1.0

    def test_top_positions_more_stable_for_local(self, analysis):
        split = analysis.top_vs_bottom("local", "national", split=4)
        assert split["top"] < split["bottom"]

    def test_politician_pages_frozen(self, analysis):
        profile = analysis.volatility_profile("politician", "county")
        assert sum(profile) / len(profile) < 0.1

    def test_noise_profile_below_personalization(self, analysis):
        noise = analysis.volatility_profile("local", "national", noise=True)
        personalization = analysis.volatility_profile("local", "national")
        assert sum(noise) < sum(personalization)

    def test_depth_truncates(self, analysis):
        assert len(analysis.volatility_profile("local", "county", depth=5)) == 5

    def test_unknown_cell_raises(self, analysis):
        with pytest.raises(ValueError):
            analysis.volatility_profile("local", "continental")

    def test_render_profile(self, analysis):
        text = analysis.render_profile("local", "national")
        assert "rank  1" in text

    def test_suggestion_overlap_has_zero_noise(self, analysis):
        # Suggestions are deterministic per location: treatment/control
        # strips are identical.
        noise = analysis.suggestion_overlap("local", "county", noise=True)
        assert noise.mean == 1.0

    def test_suggestions_personalized_for_local(self, analysis):
        overlap = analysis.suggestion_overlap("local", "national")
        assert overlap.mean < 1.0

    def test_suggestions_stable_for_politicians(self, analysis):
        overlap = analysis.suggestion_overlap("politician", "national")
        assert overlap.mean > 0.95

    def test_suggestion_overlap_drops_with_distance(self, analysis):
        county = analysis.suggestion_overlap("local", "county").mean
        national = analysis.suggestion_overlap("local", "national").mean
        assert national <= county
