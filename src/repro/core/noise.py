"""Noise analysis (paper §3.1, Figures 2–4).

Noise is whatever differs between a treatment and its paired control —
two identical browsers issuing the same query from the same location at
the same moment.  The paper's headline noise findings:

* local queries are far noisier than controversial/politician queries;
* noise is *uniform across granularities* (it is not location-driven);
* ~25% of local-query noise comes from Maps cards flickering in and
  out; News causes almost none of it (reversed for controversial).
"""

from __future__ import annotations

from typing import Dict, Optional

from repro.core.comparisons import PairAnalysis, iter_noise_pairs
from repro.core.parser import ResultType

__all__ = ["NoiseAnalysis"]


class NoiseAnalysis(PairAnalysis):
    """All noise aggregations over one collected dataset."""

    pairs = staticmethod(iter_noise_pairs)

    def noise_floor_edit(self, category: str, granularity: str) -> float:
        """Mean edit-distance noise (the black bars of Fig. 5)."""
        return self.cell(category, granularity).edit.mean

    def noise_floor_jaccard(self, category: str, granularity: str) -> float:
        """Mean Jaccard under noise alone."""
        return self.cell(category, granularity).jaccard.mean

    def per_term_type_breakdown(
        self,
        category: str,
        granularity: str,
        *,
        result_type: Optional[ResultType] = None,
    ) -> Dict[str, float]:
        """Per-term mean edit noise, optionally type-filtered (Fig. 4)."""
        cells = self.per_term(category, granularity)
        if result_type is None:
            return {query: cell.edit.mean for query, cell in cells.items()}
        return {
            query: cell.edit_component(result_type).mean
            for query, cell in cells.items()
        }
