"""Demographic-correlation analysis (paper §3.2, "Demographics").

To explain why some county-level locations cluster (Fig. 8a), the paper
correlates pairwise result similarity against physical distance and 25
demographic features — and finds nothing: "it appears that Google
Search does not use demographic features to implement location-based
personalization".

The analysis here is the same: for every pair of county-level
locations, compute (a) the mean Jaccard similarity of their SERPs and
(b) the absolute difference of each demographic feature; then test each
feature's correlation with similarity using Pearson/Spearman and a
seeded permutation p-value.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.core.datastore import SerpDataset
from repro.core.metrics import jaccard_index
from repro.geo.demographics import DEMOGRAPHIC_FEATURES, demographic_profile
from repro.geo.regions import Region
from repro.stats.correlation import pearson, permutation_pvalue, spearman
from repro.stats.summaries import summarize

__all__ = ["FeatureCorrelation", "DemographicsAnalysis"]


@dataclass(frozen=True)
class FeatureCorrelation:
    """Correlation of one feature-distance with result similarity."""

    feature: str
    pearson_r: float
    spearman_rho: float
    p_value: float

    @property
    def significant(self) -> bool:
        """Conventional alpha=0.05 significance of the permutation test."""
        return self.p_value < 0.05


class DemographicsAnalysis:
    """Pairwise similarity vs. demographic distance, per feature."""

    def __init__(
        self,
        dataset: SerpDataset,
        regions: Dict[str, Region],
        *,
        category: str = "local",
        granularity: str = "county",
        seed: int = 0,
    ):
        self.dataset = dataset
        self.regions = regions
        self.category = category
        self.granularity = granularity
        self.seed = seed
        self._pairs: Optional[List[Tuple[str, str]]] = None
        self._similarity: Optional[List[float]] = None

    # -- building blocks -------------------------------------------------------

    def location_pairs(self) -> List[Tuple[str, str]]:
        """All unordered pairs of locations at the chosen granularity."""
        if self._pairs is None:
            names = sorted(self.dataset.locations(self.granularity))
            missing = [n for n in names if n not in self.regions]
            if missing:
                raise KeyError(f"regions missing for locations: {missing}")
            self._pairs = list(itertools.combinations(names, 2))
        return self._pairs

    def pairwise_similarity(self) -> List[float]:
        """Mean Jaccard similarity per location pair (aligned with
        :meth:`location_pairs`)."""
        if self._similarity is not None:
            return self._similarity
        queries = self.dataset.queries(category=self.category)
        if not queries:
            raise ValueError(f"no {self.category!r} queries in dataset")
        days = self.dataset.days()
        similarities: List[float] = []
        for name_a, name_b in self.location_pairs():
            values: List[float] = []
            for query in queries:
                for day in days:
                    record_a = self.dataset.get(query, self.granularity, name_a, day, 0)
                    record_b = self.dataset.get(query, self.granularity, name_b, day, 0)
                    if record_a is not None and record_b is not None:
                        values.append(jaccard_index(record_a.urls, record_b.urls))
            similarities.append(summarize(values).mean if values else 0.0)
        self._similarity = similarities
        return similarities

    def _feature_distances(self, feature: str) -> List[float]:
        profiles = {
            name: demographic_profile(self.regions[name])
            for name in self.dataset.locations(self.granularity)
        }
        return [
            abs(profiles[a][feature] - profiles[b][feature])
            for a, b in self.location_pairs()
        ]

    def physical_distances(self) -> List[float]:
        """Great-circle miles per location pair."""
        return [
            self.regions[a].distance_miles(self.regions[b])
            for a, b in self.location_pairs()
        ]

    # -- correlations ------------------------------------------------------------

    def feature_correlation(
        self, feature: str, *, iterations: int = 500
    ) -> FeatureCorrelation:
        """Correlation of one demographic feature with similarity."""
        similarity = self.pairwise_similarity()
        distances = self._feature_distances(feature)
        return FeatureCorrelation(
            feature=feature,
            pearson_r=pearson(distances, similarity),
            spearman_rho=spearman(distances, similarity),
            p_value=permutation_pvalue(
                distances,
                similarity,
                statistic=spearman,
                iterations=iterations,
                seed=self.seed,
            ),
        )

    def all_feature_correlations(
        self, *, iterations: int = 500
    ) -> List[FeatureCorrelation]:
        """Correlations for every one of the 25 demographic features."""
        return [
            self.feature_correlation(feature, iterations=iterations)
            for feature in DEMOGRAPHIC_FEATURES
        ]

    def distance_correlation(self, *, iterations: int = 500) -> FeatureCorrelation:
        """Correlation of physical distance with similarity.

        The paper checked this too ("do closer locations tend to
        cluster") alongside the demographic features.
        """
        similarity = self.pairwise_similarity()
        distances = self.physical_distances()
        return FeatureCorrelation(
            feature="physical_distance_miles",
            pearson_r=pearson(distances, similarity),
            spearman_rho=spearman(distances, similarity),
            p_value=permutation_pvalue(
                distances,
                similarity,
                statistic=spearman,
                iterations=iterations,
                seed=self.seed,
            ),
        )

    def significant_features(
        self, *, alpha: float = 0.05, iterations: int = 500
    ) -> List[FeatureCorrelation]:
        """Features whose permutation p-value clears ``alpha``.

        With a Bonferroni-style expectation over 25 features, a couple
        of spurious hits at alpha=0.05 are unremarkable; the paper's
        null finding corresponds to this list being (near) empty under
        a stricter threshold.
        """
        return [
            c
            for c in self.all_feature_correlations(iterations=iterations)
            if c.p_value < alpha
        ]
