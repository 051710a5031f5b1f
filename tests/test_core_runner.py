"""Tests for the study configuration and runner (methodology wiring)."""

import pytest

import repro.batch as batch_module
from repro.core.experiment import StudyConfig
from repro.core.runner import MINUTES_PER_DAY, Study
from repro.faults.plan import FaultPlan
from repro.obs.events import read_events
from repro.obs.exporters import read_trace
from repro.queries.corpus import build_corpus
from repro.queries.model import Query, QueryCategory


def _mini_queries():
    corpus = build_corpus()
    return [corpus.get("Starbucks"), corpus.get("School"), corpus.get("Gay Marriage")]


class TestStudyConfig:
    def test_defaults_match_paper(self):
        config = StudyConfig()
        assert len(config.queries) == 240
        assert config.days == 5
        assert config.copies_per_location == 2
        assert config.machine_count == 44
        assert config.wait_between_queries_minutes == 11.0
        assert config.queries_per_day_block == 120

    def test_block_must_fit_in_a_day(self):
        with pytest.raises(ValueError):
            StudyConfig(queries_per_day_block=200, wait_between_queries_minutes=11.0)

    def test_invalid_days(self):
        with pytest.raises(ValueError):
            StudyConfig(days=0)

    def test_invalid_machines(self):
        with pytest.raises(ValueError):
            StudyConfig(machine_count=0)

    def test_empty_queries_rejected(self):
        with pytest.raises(ValueError):
            StudyConfig(queries=[])

    def test_small_preset_keeps_methodology(self):
        config = StudyConfig.small(_mini_queries())
        assert config.copies_per_location == 2
        assert config.pin_datacenter
        assert config.clear_cookies

    def test_with_overrides(self):
        config = StudyConfig.small(_mini_queries()).with_overrides(days=1)
        assert config.days == 1


class TestStudyWiring:
    @pytest.fixture(scope="class")
    def study(self):
        return Study(StudyConfig.small(_mini_queries(), days=1, locations_per_granularity=3))

    def test_location_counts(self, study):
        assert study.locations.total() == 9

    def test_treatment_count(self, study):
        # locations x copies
        assert len(study.treatments) == 9 * 2

    def test_browsers_have_geolocation_set(self, study):
        for treatment in study.treatments:
            assert (
                treatment.browser.geolocation.get_current_position()
                == treatment.region.center
            )

    def test_machines_spread_round_robin(self, study):
        used = {t.browser.machine.hostname for t in study.treatments}
        assert len(used) == min(len(study.treatments), len(study.fleet))

    def test_dns_pinned_to_one_datacenter(self, study):
        from repro.engine.datacenters import SEARCH_HOSTNAME

        results = {
            study.resolver.resolve(SEARCH_HOSTNAME, query_id=i) for i in range(20)
        }
        assert len(results) == 1

    def test_unpinned_config_rotates(self):
        study = Study(
            StudyConfig.small(_mini_queries(), days=1, locations_per_granularity=3)
            .with_overrides(pin_datacenter=False)
        )
        from repro.engine.datacenters import SEARCH_HOSTNAME

        results = {
            study.resolver.resolve(SEARCH_HOSTNAME, query_id=i) for i in range(30)
        }
        assert len(results) > 1

    def test_regions_by_name_covers_all_locations(self, study):
        regions = study.regions_by_name()
        assert len(regions) == study.locations.total()


class TestStudyRun:
    def test_run_produces_complete_dataset(self):
        config = StudyConfig.small(_mini_queries(), days=2, locations_per_granularity=3)
        study = Study(config)
        dataset = study.run()
        assert len(dataset) == 3 * 9 * 2 * 2
        assert not study.failures

    def test_day_blocks_schedule_beyond_one_block(self):
        corpus = build_corpus()
        queries = corpus.by_category(QueryCategory.LOCAL)[:4]
        config = StudyConfig.small(queries, days=1, locations_per_granularity=2)
        config = config.with_overrides(queries_per_day_block=2)
        study = Study(config)
        dataset = study.run()
        # Two blocks of two queries; all four still collected with day 0.
        assert len(dataset.queries()) == 4
        assert dataset.days() == [0]

    def test_single_machine_study_gets_rate_limited(self):
        corpus = build_corpus()
        config = StudyConfig.small(
            [corpus.get("School")], days=1, locations_per_granularity=8
        ).with_overrides(machine_count=1, max_retries=0)
        study = Study(config)
        study.run()
        # 24 locations x 2 copies from one IP in one instant: the engine's
        # 20/minute budget must trip — this is why the paper used 44
        # machines.
        assert study.failures
        assert study.stats.captchas > 0

    def test_retries_recover_transient_rate_limiting(self):
        corpus = build_corpus()
        config = StudyConfig.small(
            [corpus.get("School")], days=1, locations_per_granularity=8
        ).with_overrides(machine_count=1, max_retries=3)
        study = Study(config)
        dataset = study.run()
        # Backoff pushes retries past the rolling window, so the crawl
        # completes despite the single IP.
        assert not study.failures
        assert study.stats.retries > 0
        assert len(dataset) == 24 * 2

    def test_stats_track_requests_and_pages(self):
        config = StudyConfig.small(_mini_queries(), days=1, locations_per_granularity=2)
        study = Study(config)
        dataset = study.run()
        assert study.stats.pages == len(dataset)
        assert study.stats.requests == study.stats.pages  # no retries needed
        assert study.stats.captchas == 0

    def test_run_single_query(self):
        config = StudyConfig.small(_mini_queries(), days=1, locations_per_granularity=2)
        study = Study(config)
        rows = study.run_single_query(config.queries[0])
        assert len(rows) == 6 * 2

    def test_lockstep_timestamps(self):
        # All treatments of one round share one timestamp; rounds are
        # spaced by the configured wait.
        config = StudyConfig.small(_mini_queries(), days=1, locations_per_granularity=2)
        study = Study(config)
        seen = []

        original = study._crawl_round

        def spy(scheduled, shard):
            seen.append((scheduled.query.text, scheduled.timestamp))
            return original(scheduled, shard)

        study._crawl_round = spy
        study.run()
        timestamps = [t for _, t in seen]
        assert timestamps == sorted(timestamps)
        spacing = timestamps[1] - timestamps[0]
        assert spacing == config.wait_between_queries_minutes

    def test_days_offset_by_minutes_per_day(self):
        config = StudyConfig.small(_mini_queries(), days=2, locations_per_granularity=2)
        study = Study(config)
        seen = []
        original = study._crawl_round

        def spy(scheduled, shard):
            seen.append((scheduled.day_offset, scheduled.timestamp))
            return original(scheduled, shard)

        study._crawl_round = spy
        study.run()
        day0 = [t for d, t in seen if d == 0]
        day1 = [t for d, t in seen if d == 1]
        assert min(day1) - min(day0) == MINUTES_PER_DAY


def _four_round_config(**overrides):
    """A 4-query, 1-day small study: 4 rounds of 12 treatments."""
    queries = _mini_queries() + [build_corpus().get("Mazie Gibbs")]
    config = StudyConfig.small(queries, days=1, locations_per_granularity=2)
    return config.with_overrides(**overrides) if overrides else config


class _SinkFailure(Exception):
    pass


class TestOneRoundMerge:
    """Every run crawls through ``run_shard`` and releases each round
    through one merge: journal, event log (with its spans when traced),
    then failures, dataset, and sink."""

    @pytest.mark.parametrize("journalled", [False, True], ids=["plain", "checkpoint"])
    def test_every_round_is_prewarmed(self, tmp_path, monkeypatch, journalled):
        config = _four_round_config()
        original = batch_module.prewarm_round
        warmed = []

        def counting(study, query, treatments):
            warmed.append((query.text, len(treatments)))
            return original(study, query, treatments)

        monkeypatch.setattr(batch_module, "prewarm_round", counting)
        study = Study(config)
        checkpoint = str(tmp_path / "run.ckpt") if journalled else None
        study.run(checkpoint=checkpoint)
        treatments = len(study.treatments)
        assert warmed == [(query.text, treatments) for query in config.queries]

    @pytest.mark.parametrize("journalled", [False, True], ids=["plain", "checkpoint"])
    def test_failing_sink_leaves_the_same_event_log_at_any_worker_count(
        self, tmp_path, journalled
    ):
        config = _four_round_config()
        third_query = config.queries[2].text

        def sink(record):
            if record.query == third_query:
                raise _SinkFailure(record.location_name)

        logs = {}
        for workers in (1, 2):
            path = tmp_path / f"w{workers}.events.jsonl"
            checkpoint = str(tmp_path / f"w{workers}.ckpt") if journalled else None
            study = Study(config)
            with pytest.raises(_SinkFailure):
                study.run(
                    workers=workers, sink=sink, events=str(path), checkpoint=checkpoint
                )
            logs[workers] = path.read_bytes()
            _, events, _ = read_events(path)
            # Round 2 is logged before its first record reaches the sink.
            assert len(events) == 3 * len(study.treatments)
        assert logs[1] == logs[2]

    @pytest.mark.parametrize("workers", [1, 2])
    def test_traced_log_holds_the_untraced_crawl_events(self, tmp_path, workers):
        config = _four_round_config(
            route_via_gateway=True,
            fault_plan=FaultPlan.named("flaky-network", seed=7),
            machine_count=5,
        )
        traced, untraced = tmp_path / "run.trace", tmp_path / "run.events"
        Study(config).run(workers=workers, trace=str(traced))
        Study(config).run(workers=workers, events=str(untraced))
        header, events, _ = read_events(traced)
        assert header == read_events(untraced)[0]
        crawl = [event for event in events if event["stream"] == "crawl"]
        assert crawl == read_events(untraced)[1]
        _, spans, _ = read_trace(traced)
        crawl_spans = {span["id"] for span in spans if span["name"] == "crawl"}
        assert all(event["span"] in crawl_spans for event in crawl)

    def test_trace_and_events_together_are_refused(self, tmp_path):
        trace, events = tmp_path / "run.trace", tmp_path / "run.events"
        for workers in (1, 2):
            with pytest.raises(ValueError, match="same event log"):
                Study(_four_round_config()).run(
                    workers=workers, trace=str(trace), events=str(events)
                )
        assert not trace.exists() and not events.exists()
