"""Study orchestration: wiring the crawl and running it.

:class:`Study` builds the whole apparatus — synthetic web, engine,
datacenters, DNS (pinned or not), GeoIP, the 44-machine crawl fleet,
one browser pair per location — then executes the paper's schedule:

* queries are split into day-blocks (the paper ran the 120
  local+controversial terms for 5 days, then the 120 politicians);
* within a day, query rounds run in **lock step**: every location and
  its control issue the same term at the same virtual minute;
* rounds are spaced 11 minutes apart, above the engine's 10-minute
  session window;
* cookies are cleared after every query.

The crawl can optionally flow through the serving gateway
(``route_via_gateway``): one engine replica per datacenter behind
routing and admission control, byte-identical to the direct path as
long as the SERP cache stays disabled.

The runner is hardened against the failure modes the paper's PhantomJS
fleet actually hit (and a :class:`~repro.faults.plan.FaultPlan` can
inject deterministically): browser crashes restart the browser, DNS
failures / timeouts / 5xx / truncated pages surface as structured
:class:`CrawlFailure` records with a :class:`~repro.faults.plan.
FailureKind` taxonomy, retries follow a shared capped-backoff
:class:`~repro.faults.retry.RetryPolicy`, repeated failures from one
machine trip a per-IP circuit breaker, and ``run(checkpoint=path)``
journals each round so a killed crawl resumes byte-identically.

One loop crawls the schedule, :meth:`Study.run_shard`: the in-process
run is one shard of every treatment, and each worker of a parallel run
(:mod:`repro.parallel`) crawls its own shard.  One :class:`RoundMerge`
per run releases each finished round in one order — journal, event
log (with the round's spans when traced), then the failure log,
dataset, and sink — whichever loop or worker produced it.

The result is a :class:`SerpDataset` the analysis modules consume.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field
from typing import Dict, Iterator, List, Optional, Sequence, Tuple, Union

from repro.core.browser import MobileBrowser, Network
from repro.core.datastore import SerpDataset, SerpRecord
from repro.core.experiment import StudyConfig
from repro.core.parser import SerpParseError, parse_serp_html
from repro.engine.datacenters import DatacenterCluster
from repro.engine.frontend import SearchEngine
from repro.engine.request import ResponseStatus
from repro.faults.breaker import BreakerBoard
from repro.faults.checkpoint import (
    CHECKPOINT_VERSION,
    CheckpointError,
    CheckpointWriter,
    ResumeState,
    load_checkpoint,
)
from repro.faults.injector import (
    BrowserCrash,
    FaultStats,
    FaultyNetwork,
    RequestTimeout,
)
from repro.faults.plan import FailureKind, FaultPlan
from repro.faults.retry import RetryPolicy
from repro.geo.granularity import Granularity, StudyLocations, select_study_locations
from repro.geo.regions import Region
from repro.net.dns import DNSResolver, ResolutionError
from repro.net.geoip import GeoIPDatabase
from repro.net.machines import MachineFleet
from repro.obs.metrics import MetricSet
from repro.obs.trace import Tracer, trace_id_for
from repro.queries.corpus import QueryCorpus
from repro.queries.model import Query
from repro.seeding import derive_seed, stable_hash
from repro.serve.gateway import Gateway, build_replicas
from repro.web.world import WebWorld

__all__ = [
    "Study",
    "CrawlFailure",
    "CrawlStats",
    "RoundMerge",
    "ScheduledRound",
    "serialize_outcome",
    "deserialize_outcome",
]

MINUTES_PER_DAY = 24 * 60

#: Failure kinds that count against a machine's circuit breaker: the
#: endpoint (or the path to it) misbehaved.  A browser crash is the
#: client's own fault and a fast-fail issued no request at all, so
#: neither feeds the breaker.
_BREAKER_TRIP_KINDS = frozenset(
    {
        FailureKind.DNS_FAILURE,
        FailureKind.TIMEOUT,
        FailureKind.SERVER_ERROR,
        FailureKind.RATE_LIMITED,
        FailureKind.RATE_LIMIT_STORM,
        FailureKind.OVERLOADED,
        FailureKind.MALFORMED_SERP,
    }
)


@dataclass(frozen=True)
class CrawlFailure:
    """One query that did not produce a usable result page.

    ``kind`` is the machine-readable taxonomy entry (a
    :class:`~repro.faults.plan.FailureKind` value); ``reason`` remains
    the human-readable field older tooling prints.
    """

    query: str
    location_name: str
    day: int
    copy_index: int
    reason: str
    kind: str = FailureKind.RATE_LIMITED.value


@dataclass
class CrawlStats(MetricSet):
    """Counters for one study run.

    Every field is a plain sum (``failures_by_kind`` sums per key), so
    stats from sharded workers merge associatively into exactly the
    sequential counters; snapshot/merge/restore come from
    :class:`~repro.obs.metrics.MetricSet`.
    """

    requests: int = 0
    retries: int = 0
    captchas: int = 0
    pages: int = 0
    crashes: int = 0
    """Browser crashes absorbed by restart-and-retry."""
    dns_failures: int = 0
    timeouts: int = 0
    server_errors: int = 0
    malformed: int = 0
    """Pages that came back 200 but were not complete SERPs."""
    overloads: int = 0
    """Requests shed by the serving gateway (every queue full)."""
    breaker_fastfails: int = 0
    """Attempts suppressed because the machine's breaker was open."""
    failures_by_kind: Dict[str, int] = field(default_factory=dict)
    """Terminal failures by :class:`FailureKind` value."""

    def record_failure_kind(self, kind: str) -> None:
        self.failures_by_kind[kind] = self.failures_by_kind.get(kind, 0) + 1


@dataclass(frozen=True)
class ScheduledRound:
    """One lock-step round of the study schedule.

    ``ordinal`` is the round's global position (0-based, schedule
    order) — the canonical sort key the parallel executor merges shard
    results by, and the granularity of crawl checkpoints.
    """

    ordinal: int
    query: Query
    day_offset: int
    timestamp: float


@dataclass
class _Treatment:
    """One (granularity, location, copy) vantage point and its browser."""

    granularity: Granularity
    region: Region
    copy_index: int
    browser: MobileBrowser


def serialize_outcome(outcome: Union[SerpRecord, CrawlFailure]) -> dict:
    """One round outcome as a checkpoint-journal dict."""
    if isinstance(outcome, CrawlFailure):
        return {"f": asdict(outcome)}
    return {"r": outcome.to_dict()}


def deserialize_outcome(payload: dict) -> Union[SerpRecord, CrawlFailure]:
    """Inverse of :func:`serialize_outcome` (exact round-trip)."""
    if "f" in payload:
        return CrawlFailure(**payload["f"])
    return SerpRecord.from_dict(payload["r"])


class RoundMerge:
    """Where one run's finished rounds are released, in one order.

    The merge owns the run's checkpoint journal, its event log builder
    (one :class:`~repro.obs.events.CrawlEventBuilder`, which writes the
    spans too when traced), dataset, and sink.  :meth:`commit` takes one
    round's ``(treatment_index, SerpRecord | CrawlFailure)`` pairs,
    every treatment in ascending order, and makes the round (with its
    spans, when traced) durable in the journal, writes its span tree
    and crawl events to the log, and only then releases it to
    ``study.failures``, the dataset, and the sink — so a kill at any
    instant loses no acknowledged record, and the log a failing sink
    leaves behind does not depend on the worker count.  The in-process
    run and the parallel executor both commit here; a resumed run's
    journalled rounds take the same release.

    ``trace`` and ``events`` name the same one log: ``trace`` writes it
    with its spans.  Passing both raises ``ValueError``.
    """

    def __init__(
        self,
        study: Study,
        *,
        sink=None,
        checkpoint: Optional[str] = None,
        trace: Optional[str] = None,
        events: Optional[str] = None,
    ) -> None:
        if trace is not None and events is not None:
            raise ValueError(
                "trace= and events= name the same event log; pass one "
                "(trace= writes it with its spans)"
            )
        self.study = study
        self.sink = sink
        self.dataset = SerpDataset()
        self.journal: Optional[CheckpointWriter] = None
        self.events = None
        self.traced = trace is not None
        self._checkpoint = checkpoint
        self._log = trace if trace is not None else events

    def open(self, shards: Sequence[Sequence[int]]) -> ResumeState:
        """Open the log and the journal for a run dealt as ``shards``.

        ``shards`` holds each worker's treatment indices.  A traced run
        enables the study's tracer.  A fresh journal gets a header
        recording the shards; an existing one is checked against the
        study and that layout, truncated to its durable prefix, and
        each journalled round is released again in schedule order, so
        the dataset, sink, failure log, and event log catch up before
        crawling resumes; a traced resume of a journal without spans
        raises :class:`~repro.faults.checkpoint.CheckpointError`.
        Returns the resume point (``next_ordinal`` plus every shard's
        state), empty unless a journal was resumed.
        """
        checkpoint = self._checkpoint
        study = self.study
        fingerprint = study.checkpoint_fingerprint()
        resume = None
        if checkpoint is not None:
            # Checked before the log is opened, so a refused resume
            # leaves the file at the log path as it was.
            resume = load_checkpoint(
                checkpoint, expected_fingerprint=fingerprint, shards=shards
            )
            if self.traced and resume is not None and None in resume.spans:
                raise CheckpointError(
                    f"checkpoint {checkpoint!r} was journalled untraced: its "
                    "rounds carry no spans to rebuild the trace from"
                )
        if self._log is not None:
            from repro.obs.events import CrawlEventBuilder

            if self.traced:
                study.tracer.enable(trace_id_for(fingerprint))
            self.events = CrawlEventBuilder(
                self._log, study=study, traced=self.traced
            )
        if checkpoint is None:
            return ResumeState()
        if resume is None:
            header = {
                "version": CHECKPOINT_VERSION,
                "shards": [list(shard) for shard in shards],
                "fingerprint": fingerprint,
            }
            self.journal = CheckpointWriter.create(checkpoint, header)
            return ResumeState()
        for ordinal, outcomes in enumerate(resume.rounds):
            self._release(
                ordinal,
                list(enumerate(deserialize_outcome(payload) for payload in outcomes)),
                resume.spans[ordinal] if self.traced else None,
            )
        self.journal = CheckpointWriter.append_to(checkpoint)
        return resume

    def commit(
        self,
        ordinal: int,
        outcomes: List[Tuple[int, Union[SerpRecord, CrawlFailure]]],
        states: Optional[Dict[int, dict]] = None,
        spans: Optional[List[dict]] = None,
    ) -> None:
        """Release round ``ordinal``'s ``(treatment_index, outcome)`` pairs.

        ``states`` maps each shard to its snapshot (journalled runs);
        ``spans`` holds the round's span trees (traced runs), sorted by
        treatment here, once, for the journal and the log.
        """
        if self.traced:
            spans = sorted(spans, key=lambda tree: tree["attrs"]["treatment"])
        else:
            spans = None
        if self.journal is not None:
            self.journal.append_round(
                ordinal,
                [serialize_outcome(outcome) for _, outcome in outcomes],
                states,
                spans,
            )
        self._release(ordinal, outcomes, spans)

    def _release(self, ordinal: int, outcomes, spans) -> None:
        """One round to the event log, then failures, dataset, sink."""
        if self.events is not None:
            self.events.add_round(ordinal, outcomes, spans)
        for _, outcome in outcomes:
            if isinstance(outcome, CrawlFailure):
                self.study.failures.append(outcome)
                continue
            self.dataset.add(outcome)
            if self.sink is not None:
                self.sink(outcome)

    def close(self, ledger=None) -> None:
        """Close the journal and the log, and disable the tracer.

        ``ledger``, a supervised run's
        :class:`~repro.supervise.stats.SupervisorReport`, ends a traced
        log with its recovery events as ``supervisor.*`` spans under
        the study root.
        """
        if self.journal is not None:
            self.journal.close()
        if self.events is not None:
            self.events.close(ledger)
        if self.traced:
            self.study.tracer.disable()


class Study:
    """A fully wired, runnable instance of the paper's experiment."""

    def __init__(self, config: Optional[StudyConfig] = None):
        self.config = config or StudyConfig()
        seed = self.config.seed

        if self.config.study_locations is not None:
            self.locations: StudyLocations = self.config.study_locations
        else:
            self.locations = select_study_locations(
                seed,
                state_count=self.config.state_count,
                county_count=self.config.county_count,
                district_count=self.config.district_count,
            )
        self.world = WebWorld(derive_seed(seed, "world"), locator=self.config.locator)
        self.cluster = DatacenterCluster(hostname=self.config.dialect.hostname)
        self.resolver = DNSResolver()
        self.cluster.install_into(self.resolver)
        if self.config.pin_datacenter:
            self.resolver.pin(self.cluster.hostname, self.cluster[0].frontend_ip)

        self.geoip = GeoIPDatabase()
        self.fleet = MachineFleet.crawl_fleet(count=self.config.machine_count)
        self.geoip.register_fleet(self.fleet)

        corpus = QueryCorpus(queries=list(self.config.queries))
        engine_seed = derive_seed(seed, "engine", self.config.dialect.name)
        self.engine = SearchEngine(
            self.world,
            self.cluster,
            self.geoip,
            corpus=corpus,
            calibration=self.config.calibration,
            seed=engine_seed,
            dialect=self.config.dialect,
        )
        self.gateway: Optional[Gateway] = None
        if self.config.route_via_gateway:
            # Queues must absorb one full lock-step round (every
            # treatment fires at the same virtual minute), or the
            # gateway would shed requests the direct path serves.
            round_burst = self.locations.total() * self.config.copies_per_location
            replicas = build_replicas(
                self.world,
                self.cluster,
                self.geoip,
                corpus=corpus,
                calibration=self.config.calibration,
                seed=engine_seed,
                dialect=self.config.dialect,
                queue_capacity=max(32, round_burst),
                # Replicas share the direct engine's ranker: they skip
                # their own static-pool warm-up and build organic cards
                # through the same URL-keyed memo a direct run uses.
                ranker=self.engine.ranker,
            )
            self.gateway = Gateway(
                replicas,
                self.geoip,
                policy=self.config.gateway_routing,
                cache_size=self.config.gateway_cache_size,
                cell_miles=self.config.calibration.snap_cell_miles,
            )

        self.fault_plan: Optional[FaultPlan] = self.config.fault_plan
        if self.fault_plan is not None and not isinstance(self.fault_plan, FaultPlan):
            raise TypeError("config.fault_plan must be a FaultPlan or None")
        self.fault_stats = FaultStats()
        serving_surface = self.gateway or self.engine
        if self.fault_plan is not None:
            self.network: Network = FaultyNetwork(
                self.resolver, serving_surface, self.fault_plan, stats=self.fault_stats
            )
        else:
            self.network = Network(self.resolver, serving_surface)

        # One tracer instance threads through the layers that record
        # deterministic telemetry: the network (DNS answers, injected
        # faults) and — in direct mode only — the engine.  The gateway
        # and its replicas are deliberately left on NULL_TRACER: their
        # live telemetry is shard-local, so the canonical gateway view
        # of a crawl is reconstructed at merge time by
        # :class:`~repro.obs.replay.GatewayReplay` instead.
        self.tracer = Tracer()
        self.network.tracer = self.tracer
        if self.gateway is None:
            self.engine.tracer = self.tracer

        breakers_enabled = self.config.circuit_breakers
        if breakers_enabled is None:
            breakers_enabled = self.fault_plan is not None
        self.breakers: Optional[BreakerBoard] = (
            BreakerBoard() if breakers_enabled else None
        )
        self.retry_policy = RetryPolicy(
            base_minutes=self.config.retry_backoff_minutes,
            cap_minutes=max(
                self.config.retry_cap_minutes, self.config.retry_backoff_minutes
            ),
            jitter=self.config.retry_jitter,
        )

        self.treatments = self._build_treatments()
        self.failures: List[CrawlFailure] = []
        self.stats = CrawlStats()
        # How many parallel shard executions built this apparatus from
        # the config instead of inheriting it.  Unsupervised workers get
        # the built study (fork passes it; spawn pickles it and only
        # rebuilds if it will not pickle), so 0 on fork platforms;
        # supervised runs build every execution from the config.
        # Accumulated by the executor's merge.
        self.worker_rebuilds = 0
        # Set by the parallel executor when the run is supervised: the
        # SupervisorReport (counters + recovery ledger).  Kept as a
        # plain attribute so this module never imports the supervisor.
        self.supervisor = None

    # -- construction ----------------------------------------------------------

    def _build_treatments(self) -> List[_Treatment]:
        treatments: List[_Treatment] = []
        browser_index = 0
        for granularity in Granularity.order():
            for region in self.locations.locations(granularity):
                for copy_index in range(self.config.copies_per_location):
                    machine = self.fleet[browser_index % len(self.fleet)]
                    browser = MobileBrowser(
                        browser_id=(
                            f"{granularity.value}:{region.qualified_name}:c{copy_index}"
                        ),
                        machine=machine,
                        network=self.network,
                    )
                    browser.geolocation.set(region.center)
                    treatments.append(
                        _Treatment(
                            granularity=granularity,
                            region=region,
                            copy_index=copy_index,
                            browser=browser,
                        )
                    )
                    browser_index += 1
        return treatments

    # -- execution ---------------------------------------------------------------

    def run(
        self,
        *,
        sink=None,
        workers: int = 1,
        checkpoint: Optional[str] = None,
        trace: Optional[str] = None,
        events: Optional[str] = None,
        supervise: bool = False,
    ) -> SerpDataset:
        """Execute the full schedule and return the collected dataset.

        The in-process run is :meth:`run_shard` over every treatment;
        either way each round is released through one
        :class:`RoundMerge`, so the journal, event log, and sink see
        rounds in the same order at any worker count.

        Args:
            sink: Optional callable receiving each :class:`SerpRecord`
                as it is collected (e.g.
                :meth:`~repro.core.datastore.IncrementalWriter.write`),
                so long crawls persist as they go.
            workers: Number of crawl worker processes.  ``1`` runs the
                schedule in-process; ``N > 1`` shards each lock-step
                round across processes via :mod:`repro.parallel` and
                merges the results back in canonical order — the
                dataset, stats, and failures are byte-identical to the
                sequential run (the parity tests pin this down).
                Requires a freshly constructed :class:`Study`.
            checkpoint: Optional journal path.  Every completed round
                is appended durably (outcomes + full engine/browser
                state) before being released; if the file already holds
                a compatible journal, the study resumes after its last
                durable round and the final dataset, stats, and failure
                log are byte-identical to an uninterrupted run.  The
                shard layout (the worker count and which treatments
                each worker crawls) must match the journal's;
                ``supervise`` need not, and composes with it.
            events: Optional path for the canonical wide-event log (see
                :mod:`repro.obs.events`), a framed record log: one
                ``crawl`` event per (round, treatment) cell, synthesized
                from the canonical outcome stream at merge time, so the
                file is byte-identical for any ``workers`` count **and**
                composes with ``checkpoint`` — a resumed run replays the
                journaled rounds' events before crawling on.
            trace: Like ``events``, with the run's spans: the same log
                also holds one ``span`` event per round tree (and per
                ``supervisor.*`` recovery of a supervised run — after a
                resume, only the resumed run's), closed by the
                ``study.run`` root.  Still byte-identical for any
                ``workers`` count and composable with ``checkpoint``:
                each round's spans ride its journal line, so a resumed
                run rebuilds the log's prefix from the journal.  Pass
                ``trace`` or ``events``, not both (``ValueError``).
            supervise: Turn on recovery in the parallel executor
                (see :mod:`repro.supervise`): a crashed, hung, or
                erroring shard is respawned as itself in a new worker
                process from its last snapshot, with the merged output
                still byte-identical, instead of failing the run.  Applies even at ``workers=1`` (a single
                supervised worker still gets crash recovery), and
                composes with ``checkpoint`` — the parent journals
                every shard's snapshot, so a killed supervised run
                resumes like any other.
        """
        if workers < 1:
            raise ValueError("workers must be >= 1")
        if workers > 1 or supervise:
            from repro.parallel import run_parallel

            return run_parallel(
                self,
                workers=workers,
                sink=sink,
                checkpoint=checkpoint,
                trace=trace,
                events=events,
                supervise=supervise,
            )
        merge = RoundMerge(
            self, sink=sink, checkpoint=checkpoint, trace=trace, events=events
        )
        shard = list(range(len(self.treatments)))

        def commit(ordinal: int, outcomes, state, spans) -> None:
            states = None if state is None else {0: state}
            merge.commit(ordinal, outcomes, states, spans)

        try:
            resume = merge.open([shard])
            if resume.next_ordinal > 0:
                self.restore_state(resume.worker_states[0])
            self.run_shard(
                shard,
                on_round=commit,
                start_ordinal=resume.next_ordinal,
                capture_state=checkpoint is not None,
                trace=trace is not None,
            )
        finally:
            merge.close()
        return merge.dataset

    def metrics_registry(self, *, include_caches: bool = False):
        """This study's stats, bound into a :class:`MetricsRegistry`."""
        from repro.obs.metrics import build_study_registry

        return build_study_registry(self, include_caches=include_caches)

    def iter_rounds(self) -> Iterator[ScheduledRound]:
        """The study schedule as a flat, ordered stream of rounds.

        Every executor — sequential or any shard of a parallel run —
        walks this exact stream, so "round ``ordinal``" means the same
        (query, day, virtual minute) everywhere.
        """
        ordinal = 0
        for block_index, block in enumerate(self._query_blocks()):
            first_day = block_index * self.config.days
            for day_offset in range(self.config.days):
                absolute_day = first_day + day_offset
                for round_index, query in enumerate(block):
                    timestamp = (
                        absolute_day * MINUTES_PER_DAY
                        + round_index * self.config.wait_between_queries_minutes
                    )
                    yield ScheduledRound(ordinal, query, day_offset, timestamp)
                    ordinal += 1

    def round_count(self) -> int:
        """Total rounds in the schedule (each round = one query, all treatments)."""
        return self.config.days * len(self.config.queries)

    def _query_blocks(self) -> List[List[Query]]:
        block_size = self.config.queries_per_day_block
        queries = list(self.config.queries)
        return [queries[i : i + block_size] for i in range(0, len(queries), block_size)]

    def prefork_warmup(self) -> dict:
        """Materialise every pure cache the schedule will touch.

        Called by the parallel executor in the parent before forking so
        workers inherit hot ranking pools and digest caches
        copy-on-write instead of rebuilding them per process.  Returns
        the ranker's cache sizes (see :meth:`Ranker.cache_info`).
        """
        from repro.batch import prewarm_study

        return prewarm_study(self)

    def run_shard(
        self,
        treatment_indices: List[int],
        *,
        on_round,
        on_round_start=None,
        start_ordinal: int = 0,
        capture_state: bool = False,
        trace: bool = False,
    ) -> None:
        """Crawl only the given treatments through the full schedule.

        The one crawl loop: the in-process run calls it with every
        treatment and each parallel worker with its own shard.  The
        study walks :meth:`iter_rounds`, crawls each round's shard
        (:meth:`_crawl_round`), and calls ``on_round(ordinal, outcomes,
        state, spans)`` after each round with the list of
        ``(treatment_index, SerpRecord | CrawlFailure)`` in ascending
        treatment order.  ``state`` is this shard's
        :meth:`capture_state` snapshot when ``capture_state`` is set
        (journalled or supervised runs), else ``None``.  ``spans`` is
        the round's drained span trees when ``trace`` is set, else
        ``None`` — span ids key on (trace id, round,
        treatment), so trees from different shards interleave into
        exactly the sequential trace.  Rounds before ``start_ordinal``
        are skipped — the resume path, which assumes
        :meth:`restore_state` was fed the matching snapshot.
        ``self.stats`` accumulates this shard's counters.
        ``on_round_start(ordinal, timestamp_minutes)``, when given, is
        called before each round is crawled — the supervisor's
        virtual-time heartbeat hook.
        """
        if trace:
            self.tracer.enable(trace_id_for(self.checkpoint_fingerprint()))
        shard = [(index, self.treatments[index]) for index in treatment_indices]
        for scheduled in self.iter_rounds():
            if scheduled.ordinal < start_ordinal:
                continue
            if on_round_start is not None:
                on_round_start(scheduled.ordinal, scheduled.timestamp)
            outcomes = self._crawl_round(scheduled, shard)
            state = self.capture_state(scheduled.timestamp) if capture_state else None
            spans = self.tracer.drain() if trace else None
            on_round(scheduled.ordinal, outcomes, state, spans)

    def _crawl_round(
        self, scheduled: ScheduledRound, shard: List[Tuple[int, _Treatment]]
    ) -> List[Tuple[int, Union[SerpRecord, CrawlFailure]]]:
        """One lock-step round: every ``(index, treatment)`` of ``shard``
        runs the query at once."""
        from repro.batch import prewarm_round

        prewarm_round(self, scheduled.query, [treatment for _, treatment in shard])
        self.tracer.begin_round(scheduled.ordinal)
        return [
            (index, self._crawl_treatment(index, treatment, scheduled))
            for index, treatment in shard
        ]

    def _crawl_treatment(
        self,
        index: int,
        treatment: _Treatment,
        scheduled: ScheduledRound,
    ) -> Union[SerpRecord, CrawlFailure]:
        """One treatment's turn in a round: crawl, parse, or fail."""
        query = scheduled.query
        if self.tracer.enabled:
            region = treatment.region
            self.tracer.begin(
                "crawl",
                start=scheduled.timestamp,
                treatment=index,
                query=query.text,
                location=region.qualified_name,
                granularity=treatment.granularity.value,
                copy=treatment.copy_index,
                gps=[region.center.lat, region.center.lon],
            )
        parsed, failure_kind = self._crawl_with_retries(
            treatment, query.text, scheduled.timestamp
        )
        if self.config.clear_cookies:
            treatment.browser.clear_cookies()
        if parsed is None:
            self.stats.record_failure_kind(failure_kind.value)
            if self.tracer.enabled:
                self.tracer.end(outcome=failure_kind.value)
            return CrawlFailure(
                query=query.text,
                location_name=treatment.region.qualified_name,
                day=scheduled.day_offset,
                copy_index=treatment.copy_index,
                reason=failure_kind.value,
                kind=failure_kind.value,
            )
        self.stats.pages += 1
        if self.tracer.enabled:
            self.tracer.end(outcome="ok")
        return SerpRecord.from_parsed(
            parsed,
            category=query.category.value,
            granularity=treatment.granularity.value,
            location_name=treatment.region.qualified_name,
            day=scheduled.day_offset,
            copy_index=treatment.copy_index,
        )

    def _crawl_with_retries(
        self, treatment: _Treatment, query_text: str, timestamp: float
    ) -> Tuple[Optional[object], Optional[FailureKind]]:
        """Issue one query with retries; classify every failed attempt.

        Returns ``(parsed_page, None)`` on success or ``(None,
        terminal_kind)`` after exhausting the retry budget.  Backoff
        follows the shared :class:`RetryPolicy` (capped, deterministic
        jitter keyed per browser+round).  When breakers are enabled, an
        open breaker suppresses the attempt entirely (``breaker-open``,
        no request issued).  Every failed attempt is booked in
        ``fault_stats`` as absorbed (a later attempt succeeded) or
        terminal — the ledger the chaos accounting invariant audits.
        """
        browser = treatment.browser
        breaker_key = str(browser.machine.ip)
        attempt_time = timestamp
        pending: List[FailureKind] = []
        issued = 0
        tracing = self.tracer.enabled
        for attempt in range(self.config.max_retries + 1):
            marker = self._breaker_marker()
            if self.breakers is not None and not self.breakers.allow(
                breaker_key, attempt_time
            ):
                self.stats.breaker_fastfails += 1
                pending.append(FailureKind.BREAKER_OPEN)
                if tracing:
                    self._trace_breaker_transitions(marker, attempt_time)
                    self.tracer.event(
                        "breaker.fastfail", at=attempt_time, machine=breaker_key
                    )
            else:
                issued += 1
                self.stats.requests += 1
                if issued > 1:
                    self.stats.retries += 1
                if tracing:
                    self._trace_breaker_transitions(marker, attempt_time)
                    self.tracer.begin("attempt", start=attempt_time, n=attempt)
                parsed, kind = self._attempt(treatment, query_text, attempt_time)
                if parsed is not None:
                    if tracing:
                        self.tracer.end(status="ok")
                    marker = self._breaker_marker()
                    if self.breakers is not None:
                        self.breakers.record_success(breaker_key, attempt_time)
                        if tracing:
                            self._trace_breaker_transitions(marker, attempt_time)
                    for absorbed in pending:
                        self.fault_stats.record_absorbed(absorbed)
                    self.fault_stats.record_attempts(issued)
                    return parsed, None
                if tracing:
                    self.tracer.end(status=kind.value)
                pending.append(kind)
                marker = self._breaker_marker()
                if self.breakers is not None and kind in _BREAKER_TRIP_KINDS:
                    self.breakers.record_failure(breaker_key, attempt_time)
                    if tracing:
                        self._trace_breaker_transitions(marker, attempt_time)
            if attempt < self.config.max_retries:
                delay = self.retry_policy.delay_minutes(
                    attempt, browser.browser_id, timestamp
                )
                if tracing:
                    self.tracer.event(
                        "retry.backoff", at=attempt_time, minutes=delay
                    )
                attempt_time += delay
        for absorbed in pending[:-1]:
            self.fault_stats.record_absorbed(absorbed)
        terminal = pending[-1]
        self.fault_stats.record_terminal(terminal)
        self.fault_stats.record_attempts(issued)
        return None, terminal

    def _breaker_marker(self) -> int:
        """Transition-log position, for diffing after a breaker call."""
        if self.breakers is None or not self.tracer.enabled:
            return 0
        return self.breakers.transition_count()

    def _trace_breaker_transitions(self, marker: int, at: float) -> None:
        """Emit span events for breaker transitions after ``marker``."""
        if self.breakers is None:
            return
        for transition in self.breakers.transitions()[marker:]:
            self.tracer.event(
                "breaker.transition",
                at=at,
                machine=transition.key,
                old=transition.old.value,
                new=transition.new.value,
            )

    def _attempt(
        self, treatment: _Treatment, query_text: str, attempt_time: float
    ) -> Tuple[Optional[object], Optional[FailureKind]]:
        """One request attempt: ``(parsed, None)`` or ``(None, kind)``."""
        browser = treatment.browser
        try:
            crawl = browser.search(query_text, attempt_time)
        except BrowserCrash:
            self.stats.crashes += 1
            browser.restart()
            return None, FailureKind.BROWSER_CRASH
        except RequestTimeout:
            self.stats.timeouts += 1
            return None, FailureKind.TIMEOUT
        except ResolutionError:
            self.stats.dns_failures += 1
            return None, FailureKind.DNS_FAILURE
        if crawl.status is ResponseStatus.RATE_LIMITED:
            self.stats.captchas += 1
            # The injector short-circuits *before* the engine during a
            # storm window, so recomputing its exact condition cleanly
            # separates storm CAPTCHAs from organic rate limiting.
            if self.fault_plan is not None and self.fault_plan.in_storm(attempt_time):
                return None, FailureKind.RATE_LIMIT_STORM
            return None, FailureKind.RATE_LIMITED
        if crawl.status is ResponseStatus.OVERLOADED:
            self.stats.overloads += 1
            return None, FailureKind.OVERLOADED
        if crawl.status is ResponseStatus.SERVER_ERROR:
            self.stats.server_errors += 1
            return None, FailureKind.SERVER_ERROR
        try:
            parsed = parse_serp_html(crawl.html)
        except SerpParseError:
            self.stats.malformed += 1
            return None, FailureKind.MALFORMED_SERP
        if not parsed.is_complete:
            self.stats.malformed += 1
            return None, FailureKind.MALFORMED_SERP
        return parsed, None

    # -- checkpointing -------------------------------------------------------

    def checkpoint_fingerprint(self) -> dict:
        """A JSON dict identifying everything that shapes run output.

        Two studies with equal fingerprints produce byte-identical
        schedules and records; a resume against a journal with a
        different fingerprint is refused rather than silently mixing
        datasets.
        """
        config = self.config
        queries_digest = stable_hash(
            "queries",
            *[f"{query.text}|{query.category.value}" for query in config.queries],
        )
        locations_digest = stable_hash(
            "locations",
            *[region.qualified_name for region in self.locations.all_locations()],
        )
        calibration_digest = stable_hash(
            "calibration", json.dumps(asdict(config.calibration), sort_keys=True)
        )
        plan = self.fault_plan
        return {
            "seed": config.seed,
            "queries": queries_digest,
            "locations": locations_digest,
            "calibration": calibration_digest,
            "days": config.days,
            "copies": config.copies_per_location,
            "machines": config.machine_count,
            "wait": config.wait_between_queries_minutes,
            "block": config.queries_per_day_block,
            "pin": config.pin_datacenter,
            "retries": [
                config.max_retries,
                config.retry_backoff_minutes,
                config.retry_cap_minutes,
                config.retry_jitter,
            ],
            "cookies": config.clear_cookies,
            "dialect": config.dialect.name,
            "gateway": [
                config.route_via_gateway,
                config.gateway_routing,
                config.gateway_cache_size,
            ],
            "plan": asdict(plan) if plan is not None else None,
            "breakers": self.breakers is not None,
        }

    def capture_state(self, now_minutes: float) -> dict:
        """JSON-able snapshot of every mutable layer of the crawl.

        Everything not captured here (world, rankers, schedule, DNS
        zone) is a pure function of the config and is rebuilt
        identically by the constructor on resume.
        """
        state = {
            "stats": self.stats.capture_state(),
            "fault_stats": self.fault_stats.capture_state(),
            "browsers": [
                treatment.browser.capture_state() for treatment in self.treatments
            ],
        }
        if self.gateway is not None:
            state["serving"] = self.gateway.capture_state(now_minutes)
        else:
            state["serving"] = self.engine.capture_state(now_minutes)
        if self.breakers is not None:
            state["breakers"] = self.breakers.capture_state()
        return state

    def restore_state(self, state: dict) -> None:
        """Inverse of :meth:`capture_state` (on a fresh study)."""
        self.stats = CrawlStats()
        self.stats.restore_state(state["stats"])
        self.fault_stats.restore_state(state["fault_stats"])
        for treatment, snapshot in zip(self.treatments, state["browsers"]):
            treatment.browser.restore_state(snapshot)
        if self.gateway is not None:
            self.gateway.restore_state(state["serving"])
        else:
            self.engine.restore_state(state["serving"])
        if self.breakers is not None and "breakers" in state:
            self.breakers.restore_state(state["breakers"])

    # -- conveniences --------------------------------------------------------------

    def regions_by_name(self) -> Dict[str, Region]:
        """Qualified name → region, over all study locations."""
        return {
            region.qualified_name: region for region in self.locations.all_locations()
        }

    def run_single_query(
        self, query: Query, *, day: int = 0
    ) -> List[Tuple[str, int, SerpRecord]]:
        """Run one query across all treatments (for examples/debugging)."""
        merge = RoundMerge(self)
        scheduled = ScheduledRound(0, query, day, float(day * MINUTES_PER_DAY))
        merge.commit(0, self._crawl_round(scheduled, list(enumerate(self.treatments))))
        return [(r.location_name, r.copy_index, r) for r in merge.dataset]
