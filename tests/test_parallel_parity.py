"""Tests for the parallel crawl executor (repro.parallel).

The contract under test: sharding the lock-step study across worker
processes is *invisible* in the output — the merged dataset serialises
to the same bytes as the sequential run, stats counters are equal, and
the failure list is equal, for every worker count and routing mode.
"""

import json
import multiprocessing

import pytest

from repro.core.experiment import StudyConfig
from repro.core.runner import CrawlStats, Study
from repro.engine.calibration import EngineCalibration
from repro.parallel import bench_config, dataset_digest, plan_shards, run_parallel
from repro.queries.corpus import build_corpus


def _queries():
    corpus = build_corpus()
    return [corpus.get("Starbucks"), corpus.get("School"), corpus.get("Gay Marriage")]


def _config(**overrides):
    # machine_count=5 < treatment count so browsers share crawl
    # machines (and therefore client IPs) — the coupling the
    # machine-granular shard plan exists to preserve.
    config = StudyConfig.small(
        _queries(), days=1, locations_per_granularity=2
    ).with_overrides(machine_count=5)
    return config.with_overrides(**overrides) if overrides else config


def _serialized(dataset) -> str:
    return "".join(json.dumps(record.to_dict()) + "\n" for record in dataset)


class TestShardPlan:
    def test_covers_every_treatment_exactly_once(self):
        plan = plan_shards(treatment_count=12, machine_count=5, workers=3)
        flat = sorted(index for shard in plan.assignments for index in shard)
        assert flat == list(range(12))

    def test_machines_never_span_workers(self):
        plan = plan_shards(treatment_count=23, machine_count=7, workers=4)
        owner = {}
        for worker, shard in enumerate(plan.assignments):
            for index in shard:
                machine = index % 7
                assert owner.setdefault(machine, worker) == worker

    def test_worker_count_clamped_to_occupied_machines(self):
        plan = plan_shards(treatment_count=3, machine_count=2, workers=8)
        assert plan.workers == 2
        plan = plan_shards(treatment_count=1, machine_count=44, workers=8)
        assert plan.workers == 1

    def test_shards_ascending(self):
        plan = plan_shards(treatment_count=30, machine_count=5, workers=2)
        for shard in plan.assignments:
            assert list(shard) == sorted(shard)

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError):
            plan_shards(treatment_count=0, machine_count=1, workers=1)
        with pytest.raises(ValueError):
            plan_shards(treatment_count=1, machine_count=1, workers=0)

    @pytest.mark.parametrize("workers", [2, 3, 4])
    def test_bench_shape_keeps_each_location_on_one_worker(self, workers):
        study = Study(bench_config())
        plan = plan_shards(len(study.treatments), len(study.fleet), workers)
        owners = {}
        for worker, shard in enumerate(plan.assignments):
            for index in shard:
                region = study.treatments[index].region
                owners.setdefault(region.qualified_name, set()).add(worker)
        assert len(owners) == 24
        assert all(len(workers_of) == 1 for workers_of in owners.values())

    def test_largest_shard_within_one_machine_of_an_even_share(self):
        cases = [
            (12, 5, 3),
            (23, 7, 4),
            (3, 2, 8),
            (1, 44, 8),
            (30, 5, 2),
            (48, 44, 2),
            (48, 44, 3),
            (48, 44, 4),
            (48, 44, 8),
            (118, 44, 2),
            (118, 44, 4),
            (118, 44, 8),
            (30, 20, 20),
            (31, 10, 9),
            (97, 13, 6),
        ]
        for treatments, machines, workers in cases:
            plan = plan_shards(treatments, machines, workers)
            heaviest = len(range(0, treatments, machines))
            largest = max(len(shard) for shard in plan.assignments)
            assert all(plan.assignments), (treatments, machines, workers)
            assert largest * plan.workers < treatments + heaviest * plan.workers, (
                treatments,
                machines,
                workers,
            )

    def test_cold_shard_builds_only_its_own_cells(self):
        # A supervised shard execution builds its study from the config;
        # its ranker then holds one static pool per (query, cell) of the
        # shard's own treatments.  Days do not change the pool count.
        config = bench_config().with_overrides(days=1)
        study = Study(config)
        shard = plan_shards(len(study.treatments), len(study.fleet), 2).assignments[0]
        ranker = study.engine.ranker
        regions = {study.treatments[index].region for index in shard}
        cells = {ranker._snap_grid.snap(region.center) for region in regions}
        study.run_shard(list(shard), on_round=lambda *round_: None)
        pools = ranker.cache_info()["static_pools"]
        # Half the study's 24 locations, both copies of each: at most
        # 30 queries x 12 cells (two locations may share a snapped cell).
        assert len(regions) == 12
        assert pools == len(config.queries) * len(cells) <= 360


class TestByteParity:
    @pytest.mark.parametrize("route_via_gateway", [False, True])
    def test_parallel_dataset_is_byte_identical(self, route_via_gateway):
        config = _config(route_via_gateway=route_via_gateway)
        sequential = Study(config).run()
        expected = _serialized(sequential)
        for workers in (1, 2, 4):
            parallel = run_parallel(Study(config), workers=workers)
            assert _serialized(parallel) == expected, (
                f"workers={workers} gateway={route_via_gateway}"
            )

    def test_run_workers_api_matches_sequential(self):
        config = _config()
        expected = dataset_digest(Study(config).run())
        assert dataset_digest(Study(config).run(workers=2)) == expected

    def test_parity_with_unpinned_dns(self):
        config = _config(pin_datacenter=False)
        expected = dataset_digest(Study(config).run())
        assert dataset_digest(run_parallel(Study(config), workers=3)) == expected

    def test_parity_under_rate_limiting(self):
        # Two machines x six browsers each, three admits per window:
        # every round produces CAPTCHAs and retries, and with retries
        # exhausted some treatments fail — all of it must shard cleanly.
        config = _config(
            machine_count=2,
            calibration=EngineCalibration(ratelimit_max_per_minute=3),
        )
        seq_study = Study(config)
        expected = _serialized(seq_study.run())
        assert seq_study.stats.captchas > 0
        par_study = Study(config)
        assert _serialized(run_parallel(par_study, workers=2)) == expected
        assert par_study.failures == seq_study.failures

    def test_requires_fresh_study(self):
        config = _config()
        study = Study(config)
        study.run()
        with pytest.raises(ValueError):
            run_parallel(study, workers=2)

    def test_rejects_zero_workers(self):
        with pytest.raises(ValueError):
            Study(_config()).run(workers=0)


class TestMergedState:
    def test_stats_counters_equal_sequential(self):
        config = _config()
        seq_study = Study(config)
        seq_study.run()
        par_study = Study(config)
        run_parallel(par_study, workers=3)
        assert par_study.stats == seq_study.stats
        assert par_study.stats.pages > 0

    def test_stats_merge_is_associative_sum(self):
        total = CrawlStats()
        total.merge(CrawlStats(requests=3, retries=1, captchas=1, pages=2))
        total.merge(CrawlStats(requests=5, retries=0, captchas=0, pages=5))
        assert total == CrawlStats(requests=8, retries=1, captchas=1, pages=7)

    def test_sink_receives_records_in_canonical_order(self):
        config = _config()
        streamed = []
        dataset = run_parallel(Study(config), workers=2, sink=streamed.append)
        assert streamed == list(dataset)


class TestChaosParity:
    """Byte parity must survive the fault layer: injected faults,
    retries, and per-IP breakers are all keyed on worker-independent
    state, so a chaos-plan run shards without drift."""

    def test_chaos_plan_parity_across_workers(self):
        from repro.faults.plan import FaultPlan

        config = _config(fault_plan=FaultPlan.named("chaos"), max_retries=2)
        seq_study = Study(config)
        expected = _serialized(seq_study.run())
        par_study = Study(config)
        dataset = run_parallel(par_study, workers=2)
        assert _serialized(dataset) == expected
        assert par_study.stats == seq_study.stats
        assert par_study.failures == seq_study.failures
        assert par_study.fault_stats == seq_study.fault_stats
        assert par_study.fault_stats.unaccounted() == {}

    def test_chaos_plan_parity_three_workers(self):
        from repro.faults.plan import FaultPlan

        config = _config(fault_plan=FaultPlan.named("flaky-network"))
        expected = _serialized(Study(config).run())
        assert _serialized(run_parallel(Study(config), workers=3)) == expected


class TestBatchPathParity:
    """The batched SERP hot path (round prewarm + vectorized fast path +
    string-scan parser) must be byte-invisible: a run with every fast
    path disabled is the parity oracle for the default run."""

    def test_fast_path_off_run_is_byte_identical(self):
        config = _config()
        reference = Study(config)
        reference.engine.ranker.fast_path = False
        expected = _serialized(reference.run())
        assert _serialized(Study(config).run()) == expected

    @pytest.mark.parametrize("route_via_gateway", [False, True])
    def test_fast_path_off_oracle_matches_parallel(self, route_via_gateway):
        from repro.faults.plan import FaultPlan

        config = _config(
            route_via_gateway=route_via_gateway,
            fault_plan=FaultPlan.named("chaos"),
            max_retries=2,
        )
        reference = Study(config)
        reference.engine.ranker.fast_path = False
        expected = _serialized(reference.run())
        for workers in (1, 2, 4):
            parallel = run_parallel(Study(config), workers=workers)
            assert _serialized(parallel) == expected, (
                f"workers={workers} gateway={route_via_gateway}"
            )

    def test_parser_fast_scan_off_is_byte_identical(self):
        from repro.core.parser import set_fast_scan

        config = _config()
        expected = _serialized(Study(config).run())
        previous = set_fast_scan(False)
        try:
            assert _serialized(Study(config).run()) == expected
        finally:
            set_fast_scan(previous)


class TestZeroRebuildWorkers:
    """Workers inherit the parent's built-and-warmed study; nobody
    rebuilds from config unless the study cannot pickle under spawn —
    and the fallback is output-invisible when it happens."""

    def test_fork_workers_inherit_without_rebuild(self):
        if "fork" not in multiprocessing.get_all_start_methods():
            pytest.skip("fork start method unavailable")
        config = _config()
        expected = dataset_digest(Study(config).run())
        study = Study(config)
        dataset = run_parallel(study, workers=2, start_method="fork")
        assert dataset_digest(dataset) == expected
        assert study.worker_rebuilds == 0

    def test_spawn_workers_receive_built_study(self):
        config = _config()
        expected = dataset_digest(Study(config).run())
        study = Study(config)
        dataset = run_parallel(study, workers=2, start_method="spawn")
        assert dataset_digest(dataset) == expected
        assert study.worker_rebuilds == 0

    def test_unpicklable_study_falls_back_to_config_rebuild(self):
        config = _config()
        expected = dataset_digest(Study(config).run())
        study = Study(config)
        study.engine.ranker._poison = lambda: None  # closures do not pickle
        dataset = run_parallel(study, workers=2, start_method="spawn")
        assert dataset_digest(dataset) == expected
        assert study.worker_rebuilds == 2

    def test_worker_main_reports_rebuild_path(self):
        from repro.parallel.executor import _worker_main

        class Sink:
            def __init__(self):
                self.messages = []

            def put(self, message):
                self.messages.append(message)

        config = _config()
        study = Study(config)
        study.prefork_warmup()
        plan = plan_shards(len(study.treatments), len(study.fleet), 2)

        def run_worker(shard, payload):
            results = Sink()
            _worker_main(
                shard, 0, plan.assignments[shard], 0, None, payload,
                results, (), False, False, False,
            )
            return results.messages[-1]

        done = run_worker(0, study)
        assert done[0] == "shard-done"
        assert done[5] is False

        done = run_worker(1, config)
        assert done[0] == "shard-done"
        assert done[5] is True

    def test_prefork_warmup_is_output_invisible(self):
        config = _config()
        expected = _serialized(Study(config).run())
        warmed = Study(config)
        info = warmed.prefork_warmup()
        assert info["bundles"] > 0
        assert info["skew_vecs"] > 0
        assert _serialized(warmed.run()) == expected

    def test_prefork_warmup_predicts_maps_cards_exactly(self):
        # The maps gate keys on (query, nonce) and nonces are a pure
        # function of the schedule, so on a clean run the warmup's
        # schedule walk must warm exactly the cards the crawl asks for
        # lazily — no misses, nothing wasted.
        config = _config()
        baseline = Study(config)
        baseline.run()
        assert baseline.stats.retries == 0  # clean run: prediction is exact
        lazily_needed = set(baseline.engine.ranker._maps_cache)
        assert lazily_needed
        warmed = Study(config)
        warmed.prefork_warmup()
        assert set(warmed.engine.ranker._maps_cache) == lazily_needed
