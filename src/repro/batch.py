"""Round-batched SERP construction (the lock-step hot path).

The paper's workload has one defining shape: a *round* issues the same
query from every (location, copy) treatment at the same virtual minute.
Everything request-independent in ranking — candidate pools, static
score vectors, suggestion strips, per-datacenter skew vectors — is
therefore shared by construction across a round's requests, and only
the per-request terms (A/B jitter, session boost) differ.

This module is the seam where the runner hands that structure to the
engine:

* :func:`prewarm_round` — called by the runner when it submits a round;
  builds the shared static state for every cell the round will touch,
  so the per-request path is a single vectorized pass over prebuilt
  tuples (:meth:`Ranker.build_pages_batch` / the ``build_page`` fast
  path).  Idempotent and purely cache-filling: a warm round is a
  handful of dict hits.
* :func:`prewarm_study` — the pre-fork warmup: walks the whole
  schedule once in the parent process so forked workers inherit hot
  pools, bundles, digest caches, and suggestion strips copy-on-write
  and never rebuild them (see ``docs/PERFORMANCE.md`` for the sharing
  contract).

Because gateway replicas share one :class:`Ranker` with the direct
engine (see :func:`repro.serve.gateway.build_replicas`), warming the
study's engine warms every serving path.
"""

from __future__ import annotations

from typing import Dict, Iterable, Sequence, Set, Tuple

from repro.queries.model import QueryCategory
from repro.seeding import stable_hash, stable_unit

__all__ = ["predicted_maps_cells", "prewarm_round", "prewarm_study"]


def _treatment_locations(treatments: Iterable) -> list:
    """Distinct GPS fixes a set of treatments reports, in fleet order."""
    seen = set()
    locations = []
    for treatment in treatments:
        center = treatment.region.center
        if center not in seen:
            seen.add(center)
            locations.append(center)
    return locations


def prewarm_round(study, query, treatments: Sequence) -> None:
    """Build the shared static state for one round ahead of serving.

    ``treatments`` is the subset of the study's treatments this caller
    will actually crawl (:meth:`Study.run_shard` passes its shard:
    every treatment in-process, a worker's own in a parallel run) —
    warming cells another shard owns would duplicate exactly the work
    sharding is meant to split.
    """
    ranker = study.engine.ranker
    datacenters = [datacenter.name for datacenter in study.cluster]
    ranker.prewarm(query, _treatment_locations(treatments), datacenters)


def predicted_maps_cells(study) -> Dict[object, Tuple[object, Set]]:
    """Predict which (query, cell) pairs will open the maps-card gate.

    The gate (:meth:`Ranker._maps_card`) keys on (query, nonce) only,
    and nonces are ``stable_hash("request-nonce", browser_id, ordinal)``
    with the ordinal advancing once per search — so on a clean run the
    entire gate sequence is known before a single request is issued.
    This walks the schedule with simulated per-browser counters and
    collects, per local query, the snapped cells where at least one
    request passes the gate: exactly the maps cards the crawl will ask
    for.

    Retries (rate limiting, chaos faults) consume extra nonces and
    shift a browser's counter past the simulation; from then on the
    prediction is approximate for that browser.  That only costs
    performance at the margin — a card warmed in vain, or a missed one
    built lazily in the worker — never parity: warming is pure cache
    filling, and the serving path recomputes the real gate per request.

    Returns ``{query.key: (query, {snapped cells})}``.
    """
    ranker = study.engine.ranker
    cal = ranker.calibration
    seed = ranker.seed
    snap = (lambda p: p) if not cal.snap_to_grid else ranker._snap_grid.snap
    counters: Dict[str, int] = {}
    needed: Dict[object, Tuple[object, Set]] = {}
    snapped_centers = {
        id(treatment): snap(treatment.region.center)
        for treatment in study.treatments
    }
    for scheduled in study.iter_rounds():
        query = scheduled.query
        local = query.category is QueryCategory.LOCAL
        probability = (
            cal.maps_prob_brand if query.is_brand else cal.maps_prob_generic
        )
        for treatment in study.treatments:
            namespace = treatment.browser._nonce_namespace
            ordinal = counters.get(namespace, 0) + 1
            counters[namespace] = ordinal
            if not local:
                continue
            nonce = stable_hash("request-nonce", namespace, ordinal)
            if stable_unit("maps-gate", seed, query.key, nonce) < probability:
                needed.setdefault(query.key, (query, set()))[1].add(
                    snapped_centers[id(treatment)]
                )
    return needed


def prewarm_study(study) -> dict:
    """The pre-fork warmup: every round's static state, built once.

    Walks the schedule's distinct queries against every treatment cell
    (rounds repeat the same cells day after day, so one pass covers the
    whole run).  Returns the ranker's :meth:`cache_info` so callers can
    log or assert what the warmup materialised.

    Safe to call on a live study at any point: it only fills pure
    memos, never serving state (sessions, rate-limiter windows, queue
    depths all stay untouched), so output bytes are identical with or
    without the warmup.
    """
    locations = _treatment_locations(study.treatments)
    datacenters = [datacenter.name for datacenter in study.cluster]
    ranker = study.engine.ranker
    for query in study.config.queries:
        ranker.prewarm(query, locations, datacenters)
    for query, cells in predicted_maps_cells(study).values():
        ranker.prewarm_maps(query, cells)
    return ranker.cache_info()
