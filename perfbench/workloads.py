"""The four workloads: inputs from the seed, one timed window, output checks.

Each workload function receives a :class:`~perfbench.child.Context`,
builds its inputs from ``ctx.variant`` (the seed folded onto the
:data:`VARIANTS` input sets whose output digests ``expected.json``
records), ends set-up with ``ctx.setup_done()``, times one window of a
fixed op count between ``ctx.start()`` and ``ctx.stop()``, and returns
what it delivered plus the outcome of its output checks.  Why each
workload exists, and what its ops and pages are, is in ``spec.json``.
"""

from __future__ import annotations

import hashlib
import json
import os
import time
from typing import Dict, List, Tuple

from perfbench.harness import ratio

#: Input sets a run's iterations rotate through; each has its output
#: digests recorded in ``expected.json``.  Four, so that a run of four
#: or more iterations covers them all and its medians do not depend on
#: which input its seed starts at (request streams differ in cost).
VARIANTS = 4

#: Base of the study/serve seeds; variant ``v`` uses ``BASE_SEED + v``.
BASE_SEED = 20151028

#: Crawl shape of paper-study and durable-crawl: 30 queries (20 local,
#: 5 controversial, 5 politician) x 5 days x 48 treatments (8 locations
#: per granularity, treatment + control each) = 7,200 pages.
CRAWL_DAYS = 5

#: Supervised-audit cycle shape: the same 30 queries and 48 treatments
#: over 1 day (1,440 pages), one set-up cycle plus this many timed.
AUDIT_DAYS = 1
AUDIT_WINDOW_CYCLES = 2

#: serve-zipf: untimed warm prefix, then the timed window (>= 1,000
#: requests, so p99 has at least 10 samples beyond it).
SERVE_PREFIX = 500
SERVE_WINDOW = 3000
SERVE_GATEWAYS = 2
SERVE_REPLICATION = 2


def variant_seed(variant: int) -> int:
    return BASE_SEED + variant


def crawl_config(variant: int, days: int = CRAWL_DAYS):
    from repro.parallel.bench import bench_config

    return bench_config("standard", seed=variant_seed(variant)).with_overrides(
        days=days
    )


def sha256_json(value) -> str:
    return hashlib.sha256(
        json.dumps(value, sort_keys=True).encode("utf-8")
    ).hexdigest()


def log_is_clean(path: str) -> bool:
    """The record log exists and fsck finds no corrupt record or torn tail."""
    from repro.store.fsck import fsck_path

    if not os.path.exists(path):
        return False
    report = fsck_path(path)
    return report.corrupt_records == 0 and not report.truncated


def file_digest(path: str) -> str:
    """SHA-256 over every segment of a (possibly rotated) log, in order."""
    from repro.store.record_log import segment_paths

    hasher = hashlib.sha256()
    for segment in segment_paths(path):
        with open(segment, "rb") as handle:
            hasher.update(handle.read())
    return hasher.hexdigest()


def pages_digest(pages) -> str:
    """SHA-256 over served page HTML, in serving order."""
    hasher = hashlib.sha256()
    for html in pages:
        hasher.update(html.encode("utf-8"))
    return hasher.hexdigest()


def partition_ok(stats, offered: int) -> bool:
    """Fleet outcomes partition the offered requests: fresh+stale+shed+failed."""
    return stats.requests == offered and (
        stats.served_fresh + stats.served_stale + stats.shed + stats.failed
        == stats.requests
    )


def recoveries_ok(reports) -> bool:
    """Every supervised run left a report, and none had to recover a worker."""
    return all(
        report is not None and report.stats.recoveries == 0 for report in reports
    )


class RoundClock:
    """Release time of each lock-step round, as seen by the record consumer.

    A round's records reach the sink back to back once the round is
    committed (durably, when a journal is on), so a change of
    ``(query, day)`` marks the release of the next round.
    """

    def __init__(self):
        self.releases: List[int] = []
        self._key = None

    def observe(self, record) -> None:
        key = (record.query, record.day)
        if key != self._key:
            self._key = key
            self.releases.append(time.perf_counter_ns())

    def spans(self, start_ns: int) -> List[Tuple[int, int]]:
        """(start_ns, end_ns) of each round, the first from ``start_ns``."""
        edges = [start_ns] + self.releases
        return list(zip(edges, edges[1:]))


def _figure_rows(dataset) -> Dict[str, list]:
    from repro.core.report import StudyReport

    report = StudyReport(dataset)
    return {
        f"fig{figure}": getattr(report, f"fig{figure}_rows")()
        for figure in range(2, 8)
    }


def _crawl_sample(ctx, study, dataset, clock, page_s: float, cpu_s: float) -> dict:
    attempted = study.round_count() * len(study.treatments)
    return {
        "pages": len(dataset),
        "attempted": attempted,
        "failed": len(study.failures),
        "page_s": page_s,
        "cpu_s": cpu_s,
        "op_spans": clock.spans(ctx.window_start_ns),
    }


def ranker_counts(ranker) -> List[int]:
    """[hits, misses] of a ranker's page memo."""
    info = ranker.cache_info()
    return [info["hits"], info["misses"]]


def window_delta(after, before) -> List[int]:
    """What counters gained between two readings."""
    return [a - b for a, b in zip(after, before)]


def paper_study(ctx) -> dict:
    """Sequential crawl, then figures 2-7 of the paper (see spec.json)."""
    from repro.core.runner import Study
    from repro.parallel.bench import dataset_digest

    study = Study(crawl_config(ctx.variant))
    study.prefork_warmup()
    ctx.setup_done()
    clock = RoundClock()
    memo_before = ranker_counts(study.engine.ranker)
    ctx.start()
    dataset = study.run(sink=clock.observe)
    crawl_s, crawl_cpu_s = ctx.lap()
    rows = _figure_rows(dataset)
    ctx.stop()
    sample = _crawl_sample(ctx, study, dataset, clock, crawl_s, crawl_cpu_s)
    sample["result_s"] = ctx.window_s
    sample["digests"] = {
        "dataset": dataset_digest(dataset),
        "figures": sha256_json(rows),
    }
    sample["checks"] = {
        "dataset_digest": sample["digests"]["dataset"]
        == ctx.expected("paper-study", "dataset"),
        "figure_rows_digest": sample["digests"]["figures"]
        == ctx.expected("paper-study", "figures"),
        "no_crawl_failures": not study.failures,
    }
    ctx.layer_facts(memo=window_delta(ranker_counts(study.engine.ranker), memo_before))
    return sample


def durable_crawl(ctx) -> dict:
    """paper-study's crawl on 2 unsupervised workers, journaled and evented."""
    from repro.core.runner import Study
    from repro.obs.events import validate_events
    from repro.parallel.bench import dataset_digest

    study = Study(crawl_config(ctx.variant))
    study.prefork_warmup()
    checkpoint = os.path.join(ctx.workdir, "crawl.ckpt")
    events = os.path.join(ctx.workdir, "crawl.events.jsonl")
    ctx.setup_done()
    clock = RoundClock()
    memo_before = ranker_counts(study.engine.ranker)
    ctx.start()
    dataset = study.run(
        workers=2, checkpoint=checkpoint, events=events, sink=clock.observe
    )
    ctx.stop()
    sample = _crawl_sample(ctx, study, dataset, clock, ctx.window_s, ctx.cpu_s)
    sample["result_s"] = ctx.window_s
    sample["digests"] = {"dataset": dataset_digest(dataset)}
    sample["checks"] = {
        "dataset_digest_equals_paper_study": sample["digests"]["dataset"]
        == ctx.expected("paper-study", "dataset"),
        "journal_scans_clean": log_is_clean(checkpoint),
        "events_validate": validate_events(events) == [],
        "no_crawl_failures": not study.failures,
    }
    ctx.layer_facts(memo=window_delta(ranker_counts(study.engine.ranker), memo_before))
    return sample


def supervised_audit(ctx) -> dict:
    """Supervised 2-worker audit cycles, fresh seed per cycle, compacting store."""
    import repro.parallel as parallel_module
    from repro.audit.scheduler import AuditSpec
    from repro.audit.service import AuditService
    from repro.audit.streaming import StreamingComparisons

    studies = []
    run_parallel = parallel_module.run_parallel

    def collecting_run_parallel(study, *args, **kwargs):
        studies.append(study)
        return run_parallel(study, *args, **kwargs)

    parallel_module.run_parallel = collecting_run_parallel
    clock = RoundClock()
    observe = StreamingComparisons.observe

    def clocked_observe(self, record):
        clock.observe(record)
        return observe(self, record)

    StreamingComparisons.observe = clocked_observe

    name = "perfbench"
    store_dir = os.path.join(ctx.workdir, "audit")
    service = AuditService(store_dir)
    service.register(
        AuditSpec(
            name=name,
            config=crawl_config(ctx.variant, days=AUDIT_DAYS),
            workers=2,
            supervise=True,
            retention_cycles=1,
        )
    )
    service.run_cycle(name)
    ctx.setup_done()
    ingested_before = service.stats.records_ingested
    window_studies = len(studies)
    clock.releases.clear()
    ctx.start()
    outcomes = [service.run_cycle(name) for _ in range(AUDIT_WINDOW_CYCLES)]
    ctx.stop()
    service.close()
    pages = service.stats.records_ingested - ingested_before
    timed = studies[window_studies:]
    reports = [study.supervisor for study in studies]
    attempted = sum(study.round_count() * len(study.treatments) for study in timed)
    failed = sum(outcome.result["failures"] for outcome in outcomes)
    store_digest = file_digest(service._scheduler.store_path(name))
    sample = {
        "pages": pages,
        "attempted": attempted,
        "failed": failed,
        "page_s": ctx.window_s,
        "cpu_s": ctx.cpu_s,
        "result_s": ctx.window_s,
        "op_spans": clock.spans(ctx.window_start_ns),
        "digests": {"store": store_digest},
        "checks": {
            "store_digest": store_digest == ctx.expected("supervised-audit", "store"),
            "zero_recoveries": recoveries_ok(reports),
            "no_crawl_failures": failed == 0,
        },
    }
    ctx.layer_facts(
        memo=[
            sum(counts)
            for counts in zip(*(ranker_counts(study.engine.ranker) for study in timed))
        ],
        facts={
            "supervise.heartbeats": sum(r.stats.heartbeats for r in reports),
            "supervise.snapshots": sum(r.stats.rounds_received for r in reports),
            "supervise.recoveries": sum(r.stats.recoveries for r in reports),
        },
    )
    return sample


def serve_zipf(ctx) -> dict:
    """Closed loop, one request in flight, against a 2-gateway R=2 fleet."""
    from repro.engine.datacenters import DatacenterCluster
    from repro.engine.request import ResponseStatus
    from repro.queries.corpus import build_corpus
    from repro.seeding import derive_seed
    from repro.serve.fleet import build_fleet
    from repro.serve.loadgen import LazyClientPopulation, LoadGenerator
    from repro.web.world import WebWorld

    seed = variant_seed(ctx.variant)
    corpus = build_corpus()
    world = WebWorld(derive_seed(seed, "world"))
    cluster = DatacenterCluster()
    population = LazyClientPopulation(seed, 100_000, cluster)
    fleet = build_fleet(
        world,
        cluster,
        population.geoip_view(),
        count=SERVE_GATEWAYS,
        corpus=corpus,
        seed=derive_seed(seed, "engine"),
        queue_capacity=32,
        cache_size=4096,
        policy="round-robin",
        replication=SERVE_REPLICATION,
    )
    loadgen = LoadGenerator(list(corpus), population, seed, rate_per_minute=40.0)
    stream = loadgen.requests(SERVE_PREFIX + SERVE_WINDOW)
    submit = fleet.submit
    for _ in range(SERVE_PREFIX):
        submit(next(stream))
    gateways = [shard.gateway for shard in fleet.shards.values()]
    ranker = gateways[0].replicas[0].engine.ranker
    ctx.setup_done()

    def cache_counts():
        return (
            sum(g.stats.cache_hits for g in gateways),
            sum(g.stats.cache_misses for g in gateways),
        )

    cache_before = cache_counts()
    memo_before = ranker_counts(ranker)
    op_spans: List[Tuple[int, int]] = []
    responses = []
    clock = time.perf_counter_ns
    ctx.start()
    for request in stream:
        started = clock()
        result = submit(request)
        op_spans.append((started, clock()))
        responses.append(result)
    ctx.stop()
    ok = sum(
        1
        for result in responses
        if not result.degraded and result.response.status is ResponseStatus.OK
    )
    served_digest = pages_digest(result.response.html for result in responses)
    sample = {
        "pages": ok,
        "attempted": len(responses),
        "failed": len(responses) - ok,
        "page_s": ctx.window_s,
        "cpu_s": ctx.cpu_s,
        "result_s": ctx.window_s,
        "op_spans": op_spans,
        "digests": {"served": served_digest},
        "checks": {
            "partition_accounts_every_request": partition_ok(
                fleet.stats, SERVE_PREFIX + SERVE_WINDOW
            ),
            "served_pages_digest": served_digest
            == ctx.expected("serve-zipf", "served"),
            "window_size": len(responses) == SERVE_WINDOW,
        },
    }
    hits, misses = window_delta(cache_counts(), cache_before)
    ctx.layer_facts(
        memo=window_delta(ranker_counts(ranker), memo_before),
        facts={
            "serve.cache.hit_ratio": ratio(hits, hits + misses),
            "serve.cache.live_entries": sum(len(g.cache) for g in gateways),
        },
    )
    return sample


WORKLOADS = {
    "paper-study": paper_study,
    "durable-crawl": durable_crawl,
    "supervised-audit": supervised_audit,
    "serve-zipf": serve_zipf,
}

#: Tail percentile per workload: p99 over >= 1,000 serve requests; p90
#: over crawl rounds (150 per crawl, 30 per audit cycle, pooled across a
#: run's iterations) so at least 10 rounds lie beyond it.
TAIL_PCT = {
    "paper-study": 90,
    "durable-crawl": 90,
    "supervised-audit": 90,
    "serve-zipf": 99,
}
