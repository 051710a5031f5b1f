"""The crawl benchmark's study config and its dataset digest.

``perfbench/`` (see ``docs/PERFORMANCE.md``) builds its crawl workloads
from :func:`bench_config` and checks every crawled dataset with
:func:`dataset_digest`; the parity tests compare datasets the same way.
"""

from __future__ import annotations

import hashlib
import json

from repro.core.datastore import SerpDataset
from repro.core.experiment import DEFAULT_STUDY_SEED, StudyConfig

__all__ = ["bench_config", "dataset_digest"]


def dataset_digest(dataset: SerpDataset) -> str:
    """SHA-256 over the dataset's canonical JSONL bytes.

    Exactly what :meth:`SerpDataset.save` writes, so digest equality
    *is* byte-identity of the persisted artefact.
    """
    hasher = hashlib.sha256()
    for record in dataset:
        hasher.update(json.dumps(record.to_dict()).encode("utf-8"))
        hasher.update(b"\n")
    return hasher.hexdigest()


def bench_config(
    scale: str = "standard", *, seed: int = DEFAULT_STUDY_SEED
) -> StudyConfig:
    """The benchmark study config: 30 queries, 2 days, 8 locations each.

    It keeps the full methodology (local, controversial and politician
    queries at every granularity) at a size one crawl finishes in
    seconds.  ``"standard"`` is the only scale; perfbench names it.
    """
    from repro.queries.corpus import build_corpus
    from repro.queries.model import QueryCategory

    if scale != "standard":
        raise ValueError(f"unknown bench scale {scale!r} (standard)")
    corpus = build_corpus()
    queries = (
        corpus.by_category(QueryCategory.LOCAL)[:20]
        + corpus.by_category(QueryCategory.CONTROVERSIAL)[:5]
        + corpus.by_category(QueryCategory.POLITICIAN)[:5]
    )
    return StudyConfig.small(
        queries, seed=seed, days=2, locations_per_granularity=8
    )
