"""Personalization analysis (paper §3.2, Figures 5–7).

Personalization is measured by comparing *treatments to each other*
(all location pairs at one granularity, same query, same moment); any
differences above the noise floor are attributed to location.  The
paper's headline findings:

* local queries personalize heavily — 18–34% of results change and
  6–10 URLs are reordered (after subtracting noise);
* controversial and politician queries sit at the noise floor;
* personalization grows with distance, with the big jump between the
  county and state granularities;
* Maps explains only 18–27% of local-query differences — most changes
  hit "normal" results.
"""

from __future__ import annotations

from typing import Dict

from repro.core.comparisons import PairAnalysis, iter_treatment_pairs
from repro.core.datastore import SerpDataset
from repro.core.noise import NoiseAnalysis
from repro.core.parser import ResultType

__all__ = ["PersonalizationAnalysis"]


class PersonalizationAnalysis(PairAnalysis):
    """All personalization aggregations over one collected dataset.

    ``noise`` is the same dataset's :class:`NoiseAnalysis`, whose
    cached cells give the noise floor and the significance baseline.
    """

    pairs = staticmethod(iter_treatment_pairs)

    def __init__(self, dataset: SerpDataset):
        super().__init__(dataset)
        self.noise = NoiseAnalysis(dataset)

    def net_edit(self, category: str, granularity: str) -> float:
        """Mean edit distance above the noise floor.

        The paper reads personalization as the gap between the Fig. 5
        bars and the Fig. 2 noise levels.
        """
        return max(
            0.0,
            self.cell(category, granularity).edit.mean
            - self.noise.noise_floor_edit(category, granularity),
        )

    def significance(self, category: str, granularity: str):
        """Mann–Whitney U test: personalization vs. the noise distribution.

        Compares the edit distances of all treatment pairs against the
        edit distances of all treatment/control pairs for the same
        (category, granularity).  A significant result is the formal
        version of a Fig. 5 bar clearing its noise floor.
        """
        from repro.stats.hypothesis_tests import mann_whitney_u

        treatment_edits = [float(c.edit) for c in self.cell(category, granularity).comparisons]
        noise_edits = [
            float(c.edit) for c in self.noise.comparisons(category, granularity)
        ]
        return mann_whitney_u(treatment_edits, noise_edits)

    def edit_confidence_interval(
        self, category: str, granularity: str, *, confidence: float = 0.95, seed: int = 0
    ):
        """Bootstrap CI for the mean personalization edit distance."""
        from repro.stats.hypothesis_tests import bootstrap_ci

        edits = [float(c.edit) for c in self.cell(category, granularity).comparisons]
        return bootstrap_ci(edits, confidence=confidence, seed=seed)

    def type_decomposition(
        self, category: str, granularity: str
    ) -> Dict[str, float]:
        """Fig. 7's stacked decomposition: Maps / News / Other means."""
        cell = self.cell(category, granularity)
        return {
            "maps": cell.edit_component(ResultType.MAPS).mean,
            "news": cell.edit_component(ResultType.NEWS).mean,
            "other": cell.edit_other().mean,
        }
