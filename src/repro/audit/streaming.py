"""Streaming personalization statistics: batch analyses, one round at a time.

The end-of-run analyses (:class:`~repro.core.noise.NoiseAnalysis`,
:class:`~repro.core.personalization.PersonalizationAnalysis`) need the
whole dataset in memory before they can compare anything.  A continuous
audit cannot wait for "end of run" — it wants the per-granularity
Jaccard / edit-distance curves to update as crawl rounds land.

:class:`StreamingComparisons` is the incremental equivalent.  Feed it
:class:`~repro.core.datastore.SerpRecord` objects in canonical dataset
order (a :meth:`Study.run(sink=...) <repro.core.runner.Study.run>` sink
delivers exactly that, for any worker count and across checkpoint
resume) and it maintains, per ``(category, granularity)`` cell:

* **treatment** statistics — all location-pair comparisons at one
  granularity (paper Fig. 5), and
* **noise** statistics — treatment-vs-control comparisons (paper
  Fig. 2), whose edit mean is the noise floor.

Parity contract (pinned by ``tests/test_audit_streaming.py``): every
lock-step round is exactly one ``(query, day)`` group, and each round
is paired by the same walk as the batch iterators
(:func:`~repro.core.comparisons.record_pairs`), so the pair stream this
class produces is *identical — values and order — * to
:func:`~repro.core.comparisons.iter_treatment_pairs` /
:func:`~repro.core.comparisons.iter_noise_pairs`, and the streaming
**means are bit-identical** to :func:`~repro.stats.summaries.summarize`
over them; standard deviations agree to ~1e-12 (Welford vs two-pass).
Records lost to crawl failures degrade exactly like the batch
iterators: a pair whose other half is missing is skipped.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.core.comparisons import compare_records, record_pairs
from repro.core.datastore import SerpRecord
from repro.stats.summaries import MeanStd, StreamingMeanStd

__all__ = ["StreamingCell", "StreamingComparisons"]


class StreamingCell:
    """Streaming Jaccard/edit aggregates for one comparison cell."""

    __slots__ = ("jaccard", "edit")

    def __init__(self) -> None:
        self.jaccard = StreamingMeanStd()
        self.edit = StreamingMeanStd()

    def observe(self, jaccard: float, edit: int) -> None:
        self.jaccard.observe(jaccard)
        self.edit.observe(float(edit))

    @property
    def pairs(self) -> int:
        return self.edit.count

    def jaccard_summary(self) -> MeanStd:
        return self.jaccard.result()

    def edit_summary(self) -> MeanStd:
        return self.edit.result()


class StreamingComparisons:
    """Round-by-round pairwise comparisons over a record stream.

    ``observe`` buffers records until the ``(query, day)`` group key
    changes — i.e. until the next lock-step round starts arriving —
    then flushes the completed round into the per-cell accumulators.
    Call :meth:`finish` after the last record to flush the final round.
    """

    def __init__(self) -> None:
        self.treatment: Dict[Tuple[str, str], StreamingCell] = {}
        self.noise: Dict[Tuple[str, str], StreamingCell] = {}
        self.records = 0
        self.pairs = 0
        self._buffer: List[SerpRecord] = []
        self._group_key: Optional[Tuple[str, int]] = None
        self._finished = False

    def observe(self, record: SerpRecord) -> None:
        """Feed one record, in canonical dataset order."""
        if self._finished:
            raise RuntimeError("cannot observe() after finish()")
        key = (record.query, record.day)
        if self._group_key is not None and key != self._group_key:
            self._flush()
        self._group_key = key
        self._buffer.append(record)
        self.records += 1

    def finish(self) -> None:
        """Flush the trailing round; the accumulators are now final."""
        if self._finished:
            return
        self._flush()
        self._finished = True

    # -- internals -----------------------------------------------------------

    def _cell(
        self, cells: Dict[Tuple[str, str], StreamingCell], record: SerpRecord
    ) -> StreamingCell:
        key = (record.category, record.granularity)
        cell = cells.get(key)
        if cell is None:
            cell = StreamingCell()
            cells[key] = cell
        return cell

    def _flush(self) -> None:
        """Compare everything inside one completed round."""
        buffer = self._buffer
        if not buffer:
            return
        self._buffer = []
        for cells, noise in ((self.noise, True), (self.treatment, False)):
            for a, b in record_pairs(buffer, noise=noise):
                comparison = compare_records(a, b)
                self._cell(cells, a).observe(comparison.jaccard, comparison.edit)
                self.pairs += 1

    # -- accessors -----------------------------------------------------------

    def cells(self) -> List[Tuple[str, str]]:
        """Every (category, granularity) cell seen, sorted."""
        return sorted(set(self.treatment) | set(self.noise))

    def noise_floor_edit(self, category: str, granularity: str) -> Optional[float]:
        """Mean edit-distance noise for one cell (``None`` if no pairs)."""
        cell = self.noise.get((category, granularity))
        if cell is None or not cell.pairs:
            return None
        return cell.edit.mean

    def net_edit(self, category: str, granularity: str) -> Optional[float]:
        """Mean treatment edit distance above the noise floor.

        Matches
        :meth:`~repro.core.personalization.PersonalizationAnalysis.net_edit`
        on a complete stream; ``None`` when either family has no pairs.
        """
        treatment = self.treatment.get((category, granularity))
        noise_floor = self.noise_floor_edit(category, granularity)
        if treatment is None or not treatment.pairs or noise_floor is None:
            return None
        return max(0.0, treatment.edit.mean - noise_floor)
