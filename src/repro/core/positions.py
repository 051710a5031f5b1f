"""Positional analysis: where on the page do results change?

The edit distance says *how much* two pages differ; this analysis says
*where*.  For every rank position it computes the probability that two
pages (treatment pairs, or treatment/control pairs for noise) disagree
at that position — the page's volatility profile.  The pattern matching
real engines: the very top of a local SERP is the most stable real
estate, the bottom is contested, and for non-local queries the whole
page is frozen.

Also covers the suggestion strip: related searches are a second
personalization surface with zero noise (they are served from a
deterministic cache), so any cross-location suggestion difference is
pure personalization.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.core.comparisons import record_pairs
from repro.core.datastore import SerpDataset
from repro.core.metrics import jaccard_index
from repro.stats.summaries import MeanStd, summarize

__all__ = ["PositionalAnalysis"]


class PositionalAnalysis:
    """Per-rank volatility and suggestion overlap over a dataset."""

    def __init__(self, dataset: SerpDataset):
        self.dataset = dataset

    # -- pairs ------------------------------------------------------------------

    def _record_pairs(self, category: str, granularity: str, *, noise: bool):
        """The (record_a, record_b) pairs of the chosen comparison family."""
        subset = self.dataset.filter(category=category, granularity=granularity)
        return record_pairs(subset, noise=noise)

    # -- positional volatility ----------------------------------------------------

    def volatility_profile(
        self,
        category: str,
        granularity: str,
        *,
        noise: bool = False,
        depth: Optional[int] = None,
    ) -> List[float]:
        """P(results disagree) per rank position (1-indexed list order).

        Args:
            category: Query category to profile.
            granularity: Location granularity.
            noise: Profile treatment/control pairs instead of
                cross-location pairs.
            depth: Truncate the profile to this many positions
                (default: the shortest page seen).
        """
        disagreements: List[int] = []
        totals: List[int] = []
        for a, b in self._record_pairs(category, granularity, noise=noise):
            limit = min(len(a.urls), len(b.urls))
            if depth is not None:
                limit = min(limit, depth)
            while len(totals) < limit:
                totals.append(0)
                disagreements.append(0)
            for index in range(limit):
                totals[index] += 1
                if a.urls[index] != b.urls[index]:
                    disagreements[index] += 1
        if not totals:
            raise ValueError(f"no pairs for ({category!r}, {granularity!r})")
        return [
            disagreements[i] / totals[i] if totals[i] else 0.0
            for i in range(len(totals))
        ]

    def top_vs_bottom(
        self, category: str, granularity: str, *, split: int = 5
    ) -> Dict[str, float]:
        """Mean volatility of the top-``split`` vs remaining positions."""
        profile = self.volatility_profile(category, granularity)
        top = profile[:split]
        bottom = profile[split:]
        return {
            "top": sum(top) / len(top) if top else 0.0,
            "bottom": sum(bottom) / len(bottom) if bottom else 0.0,
        }

    # -- suggestions ---------------------------------------------------------------

    def suggestion_overlap(
        self, category: str, granularity: str, *, noise: bool = False
    ) -> MeanStd:
        """Jaccard overlap of suggestion strips across pairs."""
        values: List[float] = []
        for a, b in self._record_pairs(category, granularity, noise=noise):
            values.append(jaccard_index(a.suggestions, b.suggestions))
        if not values:
            raise ValueError(f"no pairs for ({category!r}, {granularity!r})")
        return summarize(values)

    def render_profile(self, category: str, granularity: str) -> str:
        """The volatility profile as an ASCII bar chart."""
        from repro.core.plotting import BarChart

        profile = self.volatility_profile(category, granularity)
        chart = BarChart(
            title=(
                f"positional volatility — {category} @ {granularity} "
                "(P(position differs))"
            ),
            width=40,
        )
        for index, value in enumerate(profile):
            chart.add(f"rank {index + 1:2d}", value)
        return chart.render()
