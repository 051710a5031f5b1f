"""Temporal-consistency analysis (paper §3.2, Figure 8).

For each granularity, one location serves as a *baseline*; every other
location is compared to it day by day (mean edit distance over local
queries).  The baseline's own treatment/control comparison gives the
noise floor (the red line).  The paper observes that personalization is
stable over time and that, at county granularity, some locations
*cluster* near the baseline — they receive nearly identical results.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

from repro.core.comparisons import record_pairs
from repro.core.datastore import SerpDataset
from repro.core.metrics import edit_distance
from repro.stats.summaries import summarize

__all__ = ["ConsistencySeries", "ConsistencyAnalysis"]


@dataclass(frozen=True)
class ConsistencySeries:
    """Fig. 8 data for one granularity."""

    granularity: str
    baseline: str
    days: List[int]
    noise_floor: List[float]  # baseline treatment vs its control, per day
    per_location: Dict[str, List[float]]  # location -> per-day mean edit

    def location_means(self) -> Dict[str, float]:
        """Each location's across-day mean distance to the baseline."""
        return {
            name: summarize(series).mean
            for name, series in self.per_location.items()
        }

    def clustered_locations(self, *, margin: float = 1.0) -> List[str]:
        """Locations whose mean distance sits within ``margin`` edit
        operations of the noise floor — the Fig. 8a "clusters"."""
        floor = summarize(self.noise_floor).mean
        return sorted(
            name
            for name, mean in self.location_means().items()
            if mean <= floor + margin
        )


class ConsistencyAnalysis:
    """Per-day baseline comparisons over one dataset."""

    def __init__(self, dataset: SerpDataset, *, category: str = "local"):
        self.dataset = dataset
        self.category = category

    def series(
        self, granularity: str, *, baseline: Optional[str] = None
    ) -> ConsistencySeries:
        """Build the Fig. 8 panel for one granularity.

        Args:
            granularity: Granularity value ("county" / "state" /
                "national").
            baseline: Baseline location name; defaults to the first
                location collected at this granularity.
        """
        locations = self.dataset.locations(granularity)
        if not locations:
            raise ValueError(f"no locations at granularity {granularity!r}")
        baseline = baseline or locations[0]
        if baseline not in locations:
            raise ValueError(f"unknown baseline location: {baseline!r}")
        queries = self.dataset.queries(category=self.category)
        if not queries:
            raise ValueError(f"no {self.category!r} queries in dataset")
        days = self.dataset.days()

        noise_floor: List[float] = []
        per_location: Dict[str, List[float]] = {
            name: [] for name in locations if name != baseline
        }
        for day in days:
            noise_values: List[float] = []
            distance_values: Dict[str, List[float]] = {
                name: [] for name in per_location
            }
            for query in queries:
                base_record = self.dataset.get(query, granularity, baseline, day, 0)
                if base_record is None:
                    continue
                control = self.dataset.get(query, granularity, baseline, day, 1)
                if control is not None:
                    noise_values.append(
                        float(edit_distance(base_record.urls, control.urls))
                    )
                for name in distance_values:
                    other = self.dataset.get(query, granularity, name, day, 0)
                    if other is not None:
                        distance_values[name].append(
                            float(edit_distance(base_record.urls, other.urls))
                        )
            noise_floor.append(summarize(noise_values).mean if noise_values else 0.0)
            for name, values in distance_values.items():
                per_location[name].append(summarize(values).mean if values else 0.0)

        return ConsistencySeries(
            granularity=granularity,
            baseline=baseline,
            days=days,
            noise_floor=noise_floor,
            per_location=per_location,
        )

    def pairwise_location_means(self, granularity: str) -> Dict[tuple, float]:
        """Mean edit distance for every location pair (across queries/days)."""
        import itertools

        locations = sorted(self.dataset.locations(granularity))
        queries = self.dataset.queries(category=self.category)
        days = self.dataset.days()
        means: Dict[tuple, float] = {}
        for name_a, name_b in itertools.combinations(locations, 2):
            values: List[float] = []
            for query in queries:
                for day in days:
                    record_a = self.dataset.get(query, granularity, name_a, day, 0)
                    record_b = self.dataset.get(query, granularity, name_b, day, 0)
                    if record_a is not None and record_b is not None:
                        values.append(
                            float(edit_distance(record_a.urls, record_b.urls))
                        )
            if values:
                means[(name_a, name_b)] = summarize(values).mean
        return means

    def noise_floor(self, granularity: str) -> float:
        """Mean treatment/control edit distance across all locations."""
        subset = self.dataset.filter(category=self.category, granularity=granularity)
        values = [
            float(edit_distance(record.urls, control.urls))
            for record, control in record_pairs(subset, noise=True)
        ]
        if not values:
            raise ValueError(f"no control pairs at granularity {granularity!r}")
        return summarize(values).mean

    def cluster_groups(
        self, granularity: str, *, margin: float = 1.0
    ) -> List[List[str]]:
        """Groups of locations receiving near-identical results.

        Two locations belong to the same group when their mean pairwise
        edit distance is within ``margin`` of the noise floor — i.e.
        their differences are indistinguishable from noise.  Groups of
        size ≥ 2 are the paper's county-level "clusters" (Fig. 8a),
        independent of which location is drawn as the baseline.
        """
        locations = sorted(self.dataset.locations(granularity))
        threshold = self.noise_floor(granularity) + margin
        parent = {name: name for name in locations}

        def find(name: str) -> str:
            while parent[name] != name:
                parent[name] = parent[parent[name]]
                name = parent[name]
            return name

        for (name_a, name_b), mean in self.pairwise_location_means(granularity).items():
            if mean <= threshold:
                parent[find(name_a)] = find(name_b)
        groups: Dict[str, List[str]] = {}
        for name in locations:
            groups.setdefault(find(name), []).append(name)
        return sorted(
            (sorted(group) for group in groups.values() if len(group) >= 2),
            key=len,
            reverse=True,
        )

    def day_to_day_stability(self, granularity: str) -> float:
        """Max absolute day-to-day change of the mean distance curve.

        Small values quantify the paper's "the amount of personalization
        is stable over time".
        """
        series = self.series(granularity)
        all_means: List[float] = []
        for day_index in range(len(series.days)):
            day_values = [
                values[day_index] for values in series.per_location.values()
            ]
            all_means.append(summarize(day_values).mean)
        if len(all_means) < 2:
            return 0.0
        return max(
            abs(b - a) for a, b in zip(all_means, all_means[1:])
        )
