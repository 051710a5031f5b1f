"""Tests for the analysis layer over the collected small-study dataset.

These run against the session-scoped ``small_dataset`` fixture — a real
end-to-end crawl (browser → HTML → parser → records) at reduced scale.
"""

import pytest

from repro.core.comparisons import (
    compare_records,
    iter_noise_pairs,
    iter_treatment_pairs,
)
from repro.core.consistency import ConsistencyAnalysis
from repro.core.noise import NoiseAnalysis
from repro.core.parser import ResultType
from repro.core.personalization import PersonalizationAnalysis
from repro.core.report import StudyReport


@pytest.fixture(scope="module")
def noise(small_dataset):
    return NoiseAnalysis(small_dataset)


@pytest.fixture(scope="module")
def personalization(small_dataset):
    return PersonalizationAnalysis(small_dataset)


class TestDatasetShape:
    def test_every_expected_record_collected(self, small_dataset, small_config):
        expected = (
            len(small_config.queries)
            * (small_config.state_count + small_config.county_count + small_config.district_count)
            * small_config.copies_per_location
            * small_config.days
        )
        assert len(small_dataset) == expected

    def test_all_categories_present(self, small_dataset):
        assert set(small_dataset.categories()) == {
            "local",
            "controversial",
            "politician",
        }

    def test_pages_have_12_to_22_results(self, small_dataset):
        for record in small_dataset:
            assert 12 <= len(record.urls) <= 22

    def test_copies_present(self, small_dataset):
        assert small_dataset.copies() == [0, 1]


class TestComparisons:
    def test_compare_rejects_different_queries(self, small_dataset):
        records = list(small_dataset)
        a = records[0]
        b = next(r for r in records if r.query != a.query)
        with pytest.raises(ValueError):
            compare_records(a, b)

    def test_self_comparison_is_identity(self, small_dataset):
        record = next(iter(small_dataset))
        comparison = compare_records(record, record)
        assert comparison.jaccard == 1.0
        assert comparison.edit == 0

    def test_noise_pairs_same_location(self, small_dataset):
        for comparison in iter_noise_pairs(small_dataset, category="local"):
            assert comparison.location_a == comparison.location_b

    def test_treatment_pairs_different_locations(self, small_dataset):
        for comparison in iter_treatment_pairs(
            small_dataset, category="local", granularity="county"
        ):
            assert comparison.location_a != comparison.location_b

    def test_treatment_pair_count(self, small_dataset, small_config):
        n = small_config.district_count
        pairs_per_query_day = n * (n - 1) // 2
        local_queries = len(small_dataset.queries(category="local"))
        comparisons = list(
            iter_treatment_pairs(small_dataset, category="local", granularity="county")
        )
        assert len(comparisons) == pairs_per_query_day * local_queries * small_config.days

    def test_edit_other_nonnegative(self, small_dataset):
        for comparison in iter_treatment_pairs(
            small_dataset, category="local", granularity="national"
        ):
            assert comparison.edit_other >= 0


class TestNoiseFindings:
    def test_local_noisier_than_other_categories(self, noise):
        # Paper Fig. 2: local queries are much noisier.
        for granularity in ("county", "state", "national"):
            local = noise.cell("local", granularity).edit.mean
            controversial = noise.cell("controversial", granularity).edit.mean
            politician = noise.cell("politician", granularity).edit.mean
            assert local > controversial + 0.5
            assert local > politician + 0.5

    def test_noise_uniform_across_granularities(self, noise):
        # Paper Fig. 2: "noise is independent of location".
        values = [
            noise.cell("local", granularity).edit.mean
            for granularity in ("county", "state", "national")
        ]
        assert max(values) - min(values) < 1.5

    def test_local_noise_jaccard_below_one(self, noise):
        assert noise.cell("local", "county").jaccard.mean < 0.99

    def test_maps_share_of_local_noise(self, noise):
        # Paper: Maps cause ~25% of local-query noise.
        share = noise.cell("local", "county").type_share(ResultType.MAPS)
        assert 0.10 < share < 0.45

    def test_news_causes_no_local_noise(self, noise):
        assert noise.cell("local", "county").type_share(ResultType.NEWS) == 0.0

    def test_per_term_brands_less_noisy(self, noise, corpus):
        cells = noise.per_term("local", "county")
        brand_terms = [t for t in cells if corpus.get(t) and corpus.get(t).is_brand]
        generic_terms = [t for t in cells if corpus.get(t) and not corpus.get(t).is_brand]
        brand_mean = sum(cells[t].edit.mean for t in brand_terms) / len(brand_terms)
        generic_mean = sum(cells[t].edit.mean for t in generic_terms) / len(generic_terms)
        assert brand_mean < generic_mean

    def test_empty_cell_raises(self, small_dataset):
        with pytest.raises(ValueError):
            NoiseAnalysis(small_dataset).cell("local", "continental")


class TestPersonalizationFindings:
    def test_local_most_personalized(self, personalization):
        # Paper Fig. 5 takeaway 1.
        for granularity in ("county", "state", "national"):
            local = personalization.cell("local", granularity).edit.mean
            controversial = personalization.cell("controversial", granularity).edit.mean
            politician = personalization.cell("politician", granularity).edit.mean
            assert local > controversial + 2
            assert local > politician + 2

    def test_personalization_grows_with_distance(self, personalization):
        # Paper Fig. 5 takeaway 2.
        county = personalization.cell("local", "county").edit.mean
        state = personalization.cell("local", "state").edit.mean
        national = personalization.cell("local", "national").edit.mean
        assert county < state < national

    def test_county_to_state_jump_is_large(self, personalization):
        # "The change is especially high between the county- and
        # state-levels."
        county = personalization.cell("local", "county").edit.mean
        state = personalization.cell("local", "state").edit.mean
        national = personalization.cell("local", "national").edit.mean
        assert (state - county) > (national - state)

    def test_local_personalization_clears_noise_floor(self, personalization):
        for granularity in ("county", "state", "national"):
            assert personalization.net_edit("local", granularity) > 2

    def test_controversial_and_politicians_near_noise(self, personalization):
        # Paper: differences "very close to the noise-levels".
        for category in ("controversial", "politician"):
            for granularity in ("county", "state"):
                assert personalization.net_edit(category, granularity) < 1.0

    def test_jaccard_drops_with_distance(self, personalization):
        county = personalization.cell("local", "county").jaccard.mean
        national = personalization.cell("local", "national").jaccard.mean
        assert county > national

    def test_maps_share_of_local_personalization(self, personalization):
        # Paper Fig. 7: Maps explain 18-27% of local differences —
        # i.e. the majority of changes hit "normal" results.
        for granularity in ("county", "state", "national"):
            share = personalization.cell("local", granularity).type_share(ResultType.MAPS)
            assert 0.10 < share < 0.40

    def test_type_decomposition_sums_to_total(self, personalization):
        cell = personalization.cell("local", "national")
        parts = personalization.type_decomposition("local", "national")
        assert parts["maps"] + parts["news"] + parts["other"] == pytest.approx(
            cell.edit.mean, rel=0.15
        )

    def test_brands_less_personalized_than_generics(self, personalization, corpus):
        cells = personalization.per_term("local", "national")
        brand_terms = [t for t in cells if corpus.get(t) and corpus.get(t).is_brand]
        generic_terms = [t for t in cells if corpus.get(t) and not corpus.get(t).is_brand]
        brand_mean = sum(cells[t].edit.mean for t in brand_terms) / len(brand_terms)
        generic_mean = sum(cells[t].edit.mean for t in generic_terms) / len(generic_terms)
        assert brand_mean < generic_mean - 2


class TestConsistency:
    def test_series_shape(self, small_dataset, small_config):
        analysis = ConsistencyAnalysis(small_dataset)
        series = analysis.series("county")
        assert len(series.days) == small_config.days
        assert len(series.per_location) == small_config.district_count - 1
        assert len(series.noise_floor) == small_config.days

    def test_noise_floor_below_distant_locations(self, small_dataset):
        series = ConsistencyAnalysis(small_dataset).series("national")
        floor = sum(series.noise_floor) / len(series.noise_floor)
        means = series.location_means()
        above = sum(1 for value in means.values() if value > floor)
        assert above >= len(means) * 0.8

    def test_stability_over_days(self, small_dataset):
        # Paper Fig. 8: "the amount of personalization is stable over time".
        analysis = ConsistencyAnalysis(small_dataset)
        for granularity in ("state", "national"):
            assert analysis.day_to_day_stability(granularity) < 2.0

    def test_unknown_baseline_rejected(self, small_dataset):
        with pytest.raises(ValueError):
            ConsistencyAnalysis(small_dataset).series("county", baseline="nowhere")

    def test_unknown_granularity_rejected(self, small_dataset):
        with pytest.raises(ValueError):
            ConsistencyAnalysis(small_dataset).series("continental")


class TestReport:
    def test_figures_compare_each_page_pair_once(self, small_dataset, monkeypatch):
        import repro.core.comparisons as comparisons

        distinct = {
            (a.key, b.key)
            for noise in (True, False)
            for a, b in comparisons.record_pairs(small_dataset, noise=noise)
        }
        calls = []
        compare = comparisons.compare_records

        def counted(a, b):
            calls.append((a.key, b.key))
            return compare(a, b)

        monkeypatch.setattr(comparisons, "compare_records", counted)
        report = StudyReport(small_dataset)
        for figure in range(2, 8):
            getattr(report, f"fig{figure}_rows")()
        # The report's personalization analysis reads the same noise cache.
        report.personalization.net_edit("local", "county")
        assert len(calls) == len(distinct)
        assert set(calls) == distinct

    def test_fig2_rows_cover_grid(self, small_dataset):
        report = StudyReport(small_dataset)
        rows = report.fig2_rows()
        assert len(rows) == 9  # 3 granularities x 3 categories

    def test_fig5_rows_include_noise_floor(self, small_dataset):
        report = StudyReport(small_dataset)
        for row in report.fig5_rows():
            assert "noise_edit" in row
            assert row["pairs"] > 0

    def test_fig3_sorted_by_national_noise(self, small_dataset):
        report = StudyReport(small_dataset)
        rows = report.fig3_rows()
        nationals = [r["national"] for r in rows]
        assert nationals == sorted(nationals)

    def test_fig7_totals_positive_for_local(self, small_dataset):
        report = StudyReport(small_dataset)
        local_rows = [r for r in report.fig7_rows() if r["category"] == "local"]
        assert all(r["total"] > 0 for r in local_rows)

    def test_render_functions_return_tables(self, small_dataset):
        report = StudyReport(small_dataset)
        for text in (
            report.render_fig2(),
            report.render_fig3(),
            report.render_fig4(),
            report.render_fig5(),
            report.render_fig6(),
            report.render_fig7(),
            report.render_fig8("county"),
        ):
            assert "\n" in text
            assert "Figure" in text
