"""Shared pairwise-comparison machinery for the analyses.

Two comparison families, following paper §3:

* **noise pairs** — a treatment versus its same-location, same-time
  control (copy 0 vs copy 1);
* **treatment pairs** — all location pairs at one granularity (copy 0
  vs copy 0), whose differences above the noise floor are attributed to
  location-based personalization.

:func:`record_pairs` is the one walk that pairs records, round by
round; the batch iterators, the streaming audit
(:mod:`repro.audit.streaming`) and the positional analysis all use it.
The iterators yield :class:`PageComparison` values carrying the full
metrics and the per-result-type filtered metrics used by the
attribution figures, and :class:`ComparisonCell` summarizes one cell's
worth of them.  :class:`PairAnalysis` compares each page pair of a
dataset once and caches the result per (category, granularity) cell.

A pair whose other half is missing is silently *skipped* — a real
crawl loses pages to CAPTCHAs, crashes, and timeouts, and the analyses
must degrade gracefully.  :func:`per_location_coverage` makes the loss
visible instead of silent: it folds the dataset and the crawl's failure
log into a per-location ledger (collected / lost / loss-by-kind) so a
reader can judge whether a location's metrics rest on enough pages.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterable, Iterator, List, Optional, Tuple

from repro.core.datastore import SerpDataset, SerpRecord
from repro.core.metrics import edit_distance, jaccard_index
from repro.core.parser import ResultType
from repro.stats.summaries import MeanStd, summarize

__all__ = [
    "PageComparison",
    "ComparisonCell",
    "PairAnalysis",
    "LocationCoverage",
    "compare_records",
    "record_pairs",
    "iter_noise_pairs",
    "iter_treatment_pairs",
    "per_location_coverage",
]


@dataclass(frozen=True)
class PageComparison:
    """Metrics of one page-pair comparison."""

    query: str
    category: str
    granularity: str
    day: int
    location_a: str
    location_b: str
    jaccard: float
    edit: int
    edit_by_type: Dict[ResultType, int]

    @property
    def edit_other(self) -> int:
        """Edit operations not attributable to Maps or News results.

        Per paper Fig. 7: the overall edit distance minus the Maps-only
        and News-only components, floored at zero.
        """
        attributed = (
            self.edit_by_type[ResultType.MAPS] + self.edit_by_type[ResultType.NEWS]
        )
        return max(0, self.edit - attributed)


def compare_records(a: SerpRecord, b: SerpRecord) -> PageComparison:
    """Full and per-type metrics between two pages of the same query."""
    if a.query != b.query:
        raise ValueError(f"comparing different queries: {a.query!r} vs {b.query!r}")
    urls_a = a.urls_of_type(None)
    urls_b = b.urls_of_type(None)
    by_type = {
        rtype: edit_distance(a.urls_of_type(rtype), b.urls_of_type(rtype))
        for rtype in (ResultType.MAPS, ResultType.NEWS)
    }
    return PageComparison(
        query=a.query,
        category=a.category,
        granularity=a.granularity,
        day=a.day,
        location_a=a.location_name,
        location_b=b.location_name,
        jaccard=jaccard_index(urls_a, urls_b),
        edit=edit_distance(urls_a, urls_b),
        edit_by_type=by_type,
    )


def record_pairs(
    records: Iterable[SerpRecord], *, noise: bool
) -> Iterator[Tuple[SerpRecord, SerpRecord]]:
    """The record pairs of one comparison family, in canonical order.

    Records are grouped into ``(query, day)`` rounds in order of first
    arrival; a crawl delivers each lock-step round contiguously, so on
    a study's dataset or sink stream this is arrival order.  Within a
    round, ``noise`` pairs each copy-0 record (arrival order) with its
    copy-1 control at the same location; otherwise, per granularity in
    order of first arrival, every two copy-0 records pair up, sorted
    by location name.
    """
    rounds: Dict[Tuple[str, int], List[SerpRecord]] = {}
    for record in records:
        rounds.setdefault((record.query, record.day), []).append(record)
    for members in rounds.values():
        if noise:
            controls = {
                (r.granularity, r.location_name): r
                for r in members
                if r.copy_index == 1
            }
            for record in members:
                if record.copy_index != 0:
                    continue
                control = controls.get((record.granularity, record.location_name))
                if control is not None:
                    yield record, control
            continue
        by_granularity: Dict[str, List[SerpRecord]] = {}
        for record in members:
            if record.copy_index == 0:
                by_granularity.setdefault(record.granularity, []).append(record)
        for group in by_granularity.values():
            group.sort(key=lambda r: r.location_name)
            yield from itertools.combinations(group, 2)


def iter_noise_pairs(
    dataset: SerpDataset,
    *,
    category: Optional[str] = None,
    granularity: Optional[str] = None,
    query: Optional[str] = None,
    day: Optional[int] = None,
) -> Iterator[PageComparison]:
    """Treatment-vs-control comparisons (same location, same time)."""
    subset = dataset.filter(
        category=category, granularity=granularity, query=query, day=day
    )
    for a, b in record_pairs(subset, noise=True):
        yield compare_records(a, b)


def iter_treatment_pairs(
    dataset: SerpDataset,
    *,
    category: Optional[str] = None,
    granularity: Optional[str] = None,
    query: Optional[str] = None,
    day: Optional[int] = None,
) -> Iterator[PageComparison]:
    """All-location-pair comparisons at one moment (copy 0 vs copy 0)."""
    subset = dataset.filter(
        category=category, granularity=granularity, query=query, day=day
    )
    for a, b in record_pairs(subset, noise=False):
        yield compare_records(a, b)


class ComparisonCell:
    """Metrics of one (category, granularity) cell: a Fig. 2 noise cell,
    a Fig. 5 personalization cell, or one term's share of either."""

    def __init__(self, comparisons: List[PageComparison]):
        if not comparisons:
            raise ValueError("no page pairs in this cell")
        self.comparisons = comparisons
        self.jaccard: MeanStd = summarize(c.jaccard for c in comparisons)
        self.edit: MeanStd = summarize(float(c.edit) for c in comparisons)

    def edit_component(self, result_type: ResultType) -> MeanStd:
        """Mean edit distance attributable to one result type."""
        return summarize(float(c.edit_by_type[result_type]) for c in self.comparisons)

    def edit_other(self) -> MeanStd:
        """Mean edit distance hitting "normal" results (Fig. 7's Other)."""
        return summarize(float(c.edit_other) for c in self.comparisons)

    def type_share(self, result_type: ResultType) -> float:
        """Fraction of all edit operations attributable to one type.

        Computed as total type-filtered changes over total changes,
        matching the paper's "total number of search result changes due
        to Maps, divided by the overall number of changes".
        """
        total = sum(c.edit for c in self.comparisons)
        if total == 0:
            return 0.0
        attributed = sum(c.edit_by_type[result_type] for c in self.comparisons)
        return attributed / total


class PairAnalysis:
    """One comparison family over a dataset, each page pair compared once.

    A (category, granularity) cell's comparisons are computed on first
    use and cached; its :meth:`cell` and :meth:`per_term` breakdown are
    groupings of that cache.
    """

    #: The family's pair iterator, as a ``staticmethod`` of
    #: :func:`iter_noise_pairs` or :func:`iter_treatment_pairs`.
    pairs: Callable[..., Iterator[PageComparison]]

    def __init__(self, dataset: SerpDataset):
        self.dataset = dataset
        self._comparisons: Dict[tuple, List[PageComparison]] = {}
        self._cells: Dict[tuple, ComparisonCell] = {}

    def comparisons(self, category: str, granularity: str) -> List[PageComparison]:
        """Every comparison of one cell, in canonical order (may be empty)."""
        key = (category, granularity)
        cached = self._comparisons.get(key)
        if cached is None:
            cached = list(
                self.pairs(self.dataset, category=category, granularity=granularity)
            )
            self._comparisons[key] = cached
        return cached

    def cell(self, category: str, granularity: str) -> ComparisonCell:
        """The figure cell for one (category, granularity)."""
        key = (category, granularity)
        cached = self._cells.get(key)
        if cached is None:
            cached = ComparisonCell(self.comparisons(category, granularity))
            self._cells[key] = cached
        return cached

    def per_term(self, category: str, granularity: str) -> Dict[str, ComparisonCell]:
        """Per-query cells (the per-term breakdowns of Figs. 3 and 6)."""
        by_query: Dict[str, List[PageComparison]] = {}
        for comparison in self.comparisons(category, granularity):
            by_query.setdefault(comparison.query, []).append(comparison)
        return {query: ComparisonCell(pairs) for query, pairs in by_query.items()}


@dataclass
class LocationCoverage:
    """How completely one location was crawled."""

    location_name: str
    collected: int = 0
    """Pages that made it into the dataset."""
    lost: int = 0
    """Queries recorded in the failure log instead."""
    lost_by_kind: Dict[str, int] = field(default_factory=dict)
    """Loss broken down by :class:`~repro.faults.plan.FailureKind` value."""

    @property
    def expected(self) -> int:
        """Queries the schedule issued for this location."""
        return self.collected + self.lost

    @property
    def coverage(self) -> float:
        """Fraction of expected pages actually collected (1.0 if none
        were expected)."""
        if self.expected == 0:
            return 1.0
        return self.collected / self.expected


def per_location_coverage(
    dataset: SerpDataset, failures: Iterable = ()
) -> Dict[str, LocationCoverage]:
    """Per-location crawl completeness, keyed by qualified location name.

    ``failures`` is the study's :class:`~repro.core.runner.CrawlFailure`
    log (anything with ``location_name`` and ``kind`` attributes works).
    Together with the dataset it reconstructs exactly what the schedule
    asked for, so ``collected + lost`` needs no external round count —
    and the function works on any filtered subset as well.
    """
    coverage: Dict[str, LocationCoverage] = {}

    def entry(location_name: str) -> LocationCoverage:
        if location_name not in coverage:
            coverage[location_name] = LocationCoverage(location_name)
        return coverage[location_name]

    for record in dataset:
        entry(record.location_name).collected += 1
    for failure in failures:
        slot = entry(failure.location_name)
        slot.lost += 1
        kind = getattr(failure, "kind", "unknown")
        slot.lost_by_kind[kind] = slot.lost_by_kind.get(kind, 0) + 1
    return coverage
