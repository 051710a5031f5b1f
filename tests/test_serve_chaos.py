"""Serve-chaos accounting: nothing vanishes, nothing double-counts.

The invariant under test is the fleet's outcome partition —

    served fresh + served stale + shed + failed == requests

— across fleet sizes, replication factors, and fault plans, plus the
determinism contract: one configuration yields one ledger, byte for
byte, however the faults landed.
"""

from __future__ import annotations

import pytest

from repro.engine.datacenters import DatacenterCluster
from repro.faults.plan import NAMED_PLANS, FaultPlan
from repro.queries.corpus import build_corpus
from repro.serve import (
    BrownoutPolicy,
    LazyClientPopulation,
    LoadGenerator,
    ServeChaos,
    build_fleet,
)
from repro.web.world import WebWorld

REQUESTS = 300


@pytest.fixture(scope="module")
def world():
    return WebWorld(21)


def _harness(world, *, gateways, replication, plan, brownout=None, seed=21):
    cluster = DatacenterCluster()
    corpus = build_corpus()
    population = LazyClientPopulation(seed, 100_000, cluster)
    fleet = build_fleet(
        world,
        cluster,
        population.geoip_view(),
        count=gateways,
        corpus=corpus,
        seed=seed,
        cache_size=512,
        replication=replication,
        plan=plan,
        brownout=brownout,
    )
    loadgen = LoadGenerator(
        list(corpus), population, seed, rate_per_minute=40.0
    )
    return ServeChaos(fleet, loadgen)


class TestAccounting:
    @pytest.mark.parametrize("gateways,replication", [(1, 1), (2, 2), (3, 2)])
    def test_every_request_accounted_under_chaos(
        self, world, gateways, replication
    ):
        plan = FaultPlan.named("serve-chaos", seed=11)
        harness = _harness(
            world, gateways=gateways, replication=replication, plan=plan
        )
        report = harness.run(REQUESTS)
        assert report.requests == REQUESTS
        assert report.unaccounted() == 0
        assert sum(report.faults_injected.values()) > 0
        assert sum(report.shard_requests.values()) == REQUESTS

    def test_accounting_holds_with_brownout_active(self, world):
        plan = FaultPlan.named("serve-chaos", seed=11)
        harness = _harness(
            world,
            gateways=3,
            replication=2,
            plan=plan,
            brownout=BrownoutPolicy(min_window_requests=10),
        )
        report = harness.run(REQUESTS)
        assert report.unaccounted() == 0

    def test_no_faults_means_no_degradation(self, world):
        harness = _harness(world, gateways=3, replication=2, plan=None)
        report = harness.run(REQUESTS)
        assert report.unaccounted() == 0
        assert report.faults_injected == {}
        assert report.served_fresh == REQUESTS


class TestDeterminism:
    def test_identical_configs_produce_identical_ledgers(self, world):
        plan = FaultPlan.named("serve-chaos", seed=11)
        ledgers = []
        for _ in range(2):
            harness = _harness(world, gateways=3, replication=2, plan=plan)
            ledgers.append(harness.run(REQUESTS).capture_state())
        assert ledgers[0] == ledgers[1]

    def test_fault_schedule_keys_on_nonce_not_fleet_size(self, world):
        """The same offered stream draws the same fault kinds whether
        the fleet has two shards or three — schedules are a function of
        (plan seed, nonce), never of shard interleaving."""
        plan = FaultPlan.named("serve-chaos", seed=11)
        by_size = {}
        for gateways in (2, 3):
            harness = _harness(
                world, gateways=gateways, replication=2, plan=plan
            )
            report = harness.run(REQUESTS)
            assert report.unaccounted() == 0
            by_size[gateways] = report.faults_injected
        assert by_size[2] == by_size[3]


class TestPlans:
    def test_serve_chaos_plan_is_registered(self):
        plan = NAMED_PLANS["serve-chaos"]
        assert plan.has_serve_faults
        assert 0.0 < plan.serve_fault_rate < 0.1
        assert not plan.is_zero

    def test_crawl_plans_carry_no_serve_faults(self):
        assert not NAMED_PLANS["chaos"].has_serve_faults
        assert NAMED_PLANS["chaos"].serve_fault_rate == 0.0
