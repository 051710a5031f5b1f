"""Unit tests for repro.faults: plans, retry policy, breakers, injector.

The overarching contract: every fault decision is a pure function of
(plan seed, request nonce) or (plan seed, virtual time) — never of
wall clock, global counters, or request interleaving — so chaos runs
are exactly as reproducible as clean ones.
"""

import pytest

from repro.core.browser import MobileBrowser, Network
from repro.core.experiment import StudyConfig
from repro.core.parser import parse_serp_html
from repro.core.runner import Study
from repro.faults.breaker import BreakerBoard, BreakerState
from repro.faults.injector import (
    BrowserCrash,
    FaultStats,
    FaultyNetwork,
    InjectedDNSFailure,
    RequestTimeout,
)
from repro.faults.plan import FaultKind, FaultPlan, FailureKind, NAMED_PLANS
from repro.faults.retry import RetryPolicy
from repro.net.dns import ResolutionError
from repro.parallel import dataset_digest
from repro.queries.corpus import build_corpus


def _queries():
    corpus = build_corpus()
    return [corpus.get("Starbucks"), corpus.get("School")]


def _tiny_config(**overrides):
    config = StudyConfig.small(_queries(), days=1, locations_per_granularity=2)
    return config.with_overrides(**overrides) if overrides else config


class TestFaultPlan:
    def test_decisions_are_deterministic(self):
        plan = FaultPlan(seed=7, crash_rate=0.2, timeout_rate=0.2)
        for nonce in range(50):
            assert plan.request_fault(nonce) == plan.request_fault(nonce)

    def test_seed_changes_schedule(self):
        a = FaultPlan(seed=1, crash_rate=0.3)
        b = FaultPlan(seed=2, crash_rate=0.3)
        decisions_a = [a.request_fault(n) for n in range(200)]
        decisions_b = [b.request_fault(n) for n in range(200)]
        assert decisions_a != decisions_b

    def test_zero_plan_injects_nothing(self):
        plan = FaultPlan()
        assert plan.is_zero
        assert all(plan.request_fault(n) is None for n in range(100))
        assert not any(plan.truncates(n) for n in range(100))
        assert not plan.in_storm(0.0) and not plan.in_storm(1e6)

    def test_rates_hit_roughly_their_targets(self):
        plan = FaultPlan(seed=3, dns_failure_rate=0.25)
        hits = sum(
            plan.request_fault(n) is FaultKind.DNS_FAILURE for n in range(2000)
        )
        assert 0.2 < hits / 2000 < 0.3

    def test_storm_windows_cover_the_right_fraction(self):
        plan = FaultPlan(seed=5, storm_period_minutes=100.0, storm_minutes=10.0)
        in_storm = sum(plan.in_storm(float(t)) for t in range(10_000))
        assert 0.08 < in_storm / 10_000 < 0.12
        # and the window is contiguous per period
        assert any(plan.in_storm(float(t)) for t in range(100))

    def test_rejects_bad_rates(self):
        with pytest.raises(ValueError):
            FaultPlan(crash_rate=1.5)
        with pytest.raises(ValueError):
            FaultPlan(storm_period_minutes=-1.0)
        with pytest.raises(ValueError):
            FaultPlan(storm_period_minutes=1.0, storm_minutes=2.0)

    def test_named_plans(self):
        assert FaultPlan.named("calm").is_zero
        chaos = FaultPlan.named("chaos", seed=42)
        assert chaos.seed == 42
        # the acceptance bar: chaos faults >10% of requests
        assert chaos.request_fault_rate > 0.10
        with pytest.raises(ValueError):
            FaultPlan.named("no-such-plan")
        for name, plan in NAMED_PLANS.items():
            assert FaultPlan.named(name, seed=9).seed == 9


class TestRetryPolicy:
    def test_default_reproduces_seed_doubling(self):
        # The seed runner did 1.5, 3.0, 6.0 for max_retries=3; the
        # default policy must match exactly (cap engages only later).
        policy = RetryPolicy()
        assert policy.schedule(3, "b", 0.0) == [1.5, 3.0, 6.0]

    def test_cap_engages_beyond_seed_budgets(self):
        policy = RetryPolicy()
        assert policy.delay_minutes(3, "b", 0.0) == 8.0
        assert policy.delay_minutes(10, "b", 0.0) == 8.0

    def test_jitter_is_deterministic_and_bounded(self):
        policy = RetryPolicy(jitter=0.5)
        base = RetryPolicy()
        for attempt in range(4):
            d1 = policy.delay_minutes(attempt, "browser-1", 11.0)
            d2 = policy.delay_minutes(attempt, "browser-1", 11.0)
            assert d1 == d2
            unjittered = base.delay_minutes(attempt, "browser-1", 11.0)
            assert 0.5 * unjittered <= d1 < 1.5 * unjittered

    def test_jitter_varies_by_key(self):
        policy = RetryPolicy(jitter=0.5)
        delays = {policy.delay_minutes(1, f"browser-{i}", 0.0) for i in range(20)}
        assert len(delays) > 10

    def test_validation(self):
        with pytest.raises(ValueError):
            RetryPolicy(base_minutes=0)
        with pytest.raises(ValueError):
            RetryPolicy(multiplier=0.5)
        with pytest.raises(ValueError):
            RetryPolicy(base_minutes=10.0, cap_minutes=5.0)
        with pytest.raises(ValueError):
            RetryPolicy(jitter=1.0)
        with pytest.raises(ValueError):
            RetryPolicy().delay_minutes(-1)


class TestCircuitBreaker:
    def test_opens_after_threshold_consecutive_failures(self):
        board = BreakerBoard(failure_threshold=3, cooldown_minutes=5.0)
        for minute in range(3):
            assert board.allow("ip", float(minute))
            board.record_failure("ip", float(minute))
        assert board.state_of("ip") is BreakerState.OPEN
        assert not board.allow("ip", 2.5)

    def test_success_resets_the_count(self):
        board = BreakerBoard(failure_threshold=3)
        board.record_failure("ip", 0.0)
        board.record_failure("ip", 1.0)
        board.record_success("ip", 2.0)
        board.record_failure("ip", 3.0)
        board.record_failure("ip", 4.0)
        assert board.state_of("ip") is BreakerState.CLOSED

    def test_half_open_probe_then_close(self):
        board = BreakerBoard(failure_threshold=1, cooldown_minutes=2.0)
        board.record_failure("ip", 0.0)
        assert board.state_of("ip") is BreakerState.OPEN
        assert not board.allow("ip", 1.0)
        assert board.allow("ip", 2.0)  # cooldown passed: probe admitted
        assert board.state_of("ip") is BreakerState.HALF_OPEN
        assert not board.allow("ip", 2.0)  # only one probe at a time
        board.record_success("ip", 2.1)
        assert board.state_of("ip") is BreakerState.CLOSED
        assert board.allow("ip", 2.2)

    def test_half_open_probe_failure_reopens(self):
        board = BreakerBoard(failure_threshold=1, cooldown_minutes=2.0)
        board.record_failure("ip", 0.0)
        assert board.allow("ip", 2.0)
        board.record_failure("ip", 2.1)
        assert board.state_of("ip") is BreakerState.OPEN
        assert not board.allow("ip", 3.0)  # new cooldown from 2.1
        assert board.allow("ip", 4.5)

    def test_transitions_are_logged_with_keys(self):
        board = BreakerBoard(failure_threshold=1, cooldown_minutes=1.0)
        board.record_failure("a", 0.0)
        board.allow("a", 1.0)
        board.record_success("a", 1.1)
        states = [(t.key, t.old, t.new) for t in board.transitions()]
        assert states == [
            ("a", BreakerState.CLOSED, BreakerState.OPEN),
            ("a", BreakerState.OPEN, BreakerState.HALF_OPEN),
            ("a", BreakerState.HALF_OPEN, BreakerState.CLOSED),
        ]

    def test_capture_restore_round_trip(self):
        board = BreakerBoard(failure_threshold=2, cooldown_minutes=3.0)
        board.record_failure("a", 0.0)
        board.record_failure("a", 1.0)
        board.record_failure("b", 1.0)
        snapshot = board.capture_state()
        clone = BreakerBoard(failure_threshold=2, cooldown_minutes=3.0)
        clone.restore_state(snapshot)
        assert clone.capture_state() == snapshot
        assert clone.state_of("a") is BreakerState.OPEN
        # restored breaker behaves identically going forward
        assert clone.allow("a", 5.0) == board.allow("a", 5.0)


class TestFaultStats:
    def test_accounting_invariant(self):
        stats = FaultStats()
        stats.record_injected(FailureKind.TIMEOUT)
        stats.record_injected(FailureKind.TIMEOUT)
        stats.record_absorbed(FailureKind.TIMEOUT)
        assert stats.unaccounted() == {"timeout": 1}
        stats.record_terminal(FailureKind.TIMEOUT)
        assert stats.unaccounted() == {}

    def test_merge_sums_all_ledgers(self):
        a, b = FaultStats(), FaultStats()
        a.record_injected(FailureKind.DNS_FAILURE)
        a.record_attempts(2)
        b.record_injected(FailureKind.DNS_FAILURE)
        b.record_absorbed(FailureKind.DNS_FAILURE)
        b.record_attempts(2)
        a.merge(b)
        assert a.injected == {"dns-failure": 2}
        assert a.absorbed == {"dns-failure": 1}
        assert a.retry_histogram == {2: 2}

    def test_capture_restore_round_trip(self):
        stats = FaultStats()
        stats.record_injected(FailureKind.BROWSER_CRASH)
        stats.record_terminal(FailureKind.BROWSER_CRASH)
        stats.record_attempts(3)
        clone = FaultStats()
        clone.restore_state(stats.capture_state())
        assert clone == stats


class _Harness:
    """One browser wired through a FaultyNetwork into a real engine."""

    def __init__(self, plan):
        study = Study(_tiny_config())
        self.stats = FaultStats()
        self.network = FaultyNetwork(
            study.resolver, study.engine, plan, stats=self.stats
        )
        treatment = study.treatments[0]
        self.browser = MobileBrowser(
            browser_id="harness",
            machine=treatment.browser.machine,
            network=self.network,
        )
        self.browser.geolocation.set(treatment.region.center)


class TestFaultyNetwork:
    def test_zero_plan_is_transparent(self):
        study_a = Study(_tiny_config())
        study_b = Study(_tiny_config(fault_plan=FaultPlan()))
        assert isinstance(study_b.network, FaultyNetwork)
        html_a = study_a.treatments[0].browser.search("Starbucks", 0.0).html
        html_b = study_b.treatments[0].browser.search("Starbucks", 0.0).html
        assert html_a == html_b
        # A whole crawl through the hardened path (FaultyNetwork and
        # per-IP breakers on, nothing injected) writes the plain bytes.
        plain = Study(_tiny_config())
        calm = Study(_tiny_config(fault_plan=FaultPlan()))
        assert calm.breakers is not None
        assert dataset_digest(calm.run()) == dataset_digest(plain.run())
        assert calm.failures == plain.failures

    def test_injected_faults_raise_typed_exceptions(self):
        crash = _Harness(FaultPlan(crash_rate=1.0))
        with pytest.raises(BrowserCrash):
            crash.browser.search("Starbucks", 0.0)
        assert crash.stats.injected == {"browser-crash": 1}

        dns = _Harness(FaultPlan(dns_failure_rate=1.0))
        with pytest.raises(ResolutionError):  # injected subclass of organic
            dns.browser.search("Starbucks", 0.0)
        with pytest.raises(InjectedDNSFailure):
            dns.browser.search("Starbucks", 1.0)

        timeout = _Harness(FaultPlan(timeout_rate=1.0))
        with pytest.raises(RequestTimeout):
            timeout.browser.search("Starbucks", 0.0)

    def test_server_error_surfaces_as_500(self):
        harness = _Harness(FaultPlan(server_error_rate=1.0))
        result = harness.browser.search("Starbucks", 0.0)
        assert result.status.value == 500
        assert not result.ok

    def test_storm_serves_captcha_interstitial(self):
        plan = FaultPlan(storm_period_minutes=100.0, storm_minutes=100.0 - 1e-9)
        harness = _Harness(plan)
        result = harness.browser.search("Starbucks", 0.0)
        assert result.status.value == 429
        parsed = parse_serp_html(result.html)
        assert parsed.is_captcha
        assert harness.stats.injected == {"rate-limit-storm": 1}

    def test_truncated_pages_are_detectably_incomplete(self):
        harness = _Harness(FaultPlan(truncation_rate=1.0))
        seen = 0
        for i in range(10):
            result = harness.browser.search("Starbucks", float(i * 11))
            assert result.ok  # bytes arrived 200 OK
            try:
                parsed = parse_serp_html(result.html)
            except Exception:
                continue  # unparsable truncation: also detectable
            assert not parsed.is_complete
            seen += 1
        assert harness.stats.injected == {"malformed-serp": 10}
        assert seen > 0  # at least some truncations parse partially

    def test_fault_schedule_is_nonce_keyed_not_order_keyed(self):
        plan = FaultPlan(seed=11, crash_rate=0.3)

        def outcomes(harness):
            results = []
            for i in range(30):
                try:
                    harness.browser.search("Starbucks", float(i * 11))
                    results.append("ok")
                except BrowserCrash:
                    results.append("crash")
            return results

        assert outcomes(_Harness(plan)) == outcomes(_Harness(plan))


class TestRunnerIntegration:
    def test_browser_crash_restarts_and_recovers(self):
        config = _tiny_config(
            fault_plan=FaultPlan(seed=4, crash_rate=0.2), max_retries=4
        )
        study = Study(config)
        dataset = study.run()
        assert study.stats.crashes > 0
        assert sum(t.browser.restarts for t in study.treatments) == study.stats.crashes
        assert len(dataset) > 0
        assert study.fault_stats.unaccounted() == {}

    def test_failures_carry_taxonomy_kinds(self):
        # max_retries=0: every injected fault is terminal.
        config = _tiny_config(
            fault_plan=FaultPlan(seed=4, dns_failure_rate=0.3), max_retries=0
        )
        study = Study(config)
        study.run()
        assert study.failures, "a 30% DNS failure rate must lose some queries"
        kinds = {failure.kind for failure in study.failures}
        assert kinds == {"dns-failure"}
        assert all(failure.reason == failure.kind for failure in study.failures)
        assert study.fault_stats.unaccounted() == {}

    def test_organic_resolution_error_is_a_structured_failure(self):
        # Break DNS for real (no injection): unpin and empty the zone.
        config = _tiny_config(max_retries=0)
        study = Study(config)
        study.resolver._static.clear()
        study.resolver._zone.clear()
        dataset = study.run()
        assert len(dataset) == 0
        assert study.failures
        assert {failure.kind for failure in study.failures} == {"dns-failure"}
        assert "could not resolve" in str(
            ResolutionError(study.engine.dialect.hostname)
        )

    def test_breakers_fastfail_under_sustained_faults(self):
        config = _tiny_config(
            fault_plan=FaultPlan(seed=2, server_error_rate=0.9),
            max_retries=2,
        )
        study = Study(config)
        study.run()
        assert study.breakers is not None
        assert study.stats.breaker_fastfails > 0
        assert any(
            t.new is BreakerState.OPEN for t in study.breakers.transitions()
        )
        assert {f.kind for f in study.failures} <= {"server-error", "breaker-open"}
        assert study.fault_stats.unaccounted() == {}

    def test_breakers_off_by_default_without_plan(self):
        assert Study(_tiny_config()).breakers is None
        assert Study(_tiny_config(fault_plan=FaultPlan())).breakers is not None
        assert (
            Study(_tiny_config(circuit_breakers=True)).breakers is not None
        )
        assert (
            Study(
                _tiny_config(fault_plan=FaultPlan(), circuit_breakers=False)
            ).breakers
            is None
        )

    def test_storm_failures_attributed_to_storm_not_captcha(self):
        config = _tiny_config(
            fault_plan=FaultPlan(
                seed=1, storm_period_minutes=100.0, storm_minutes=99.0
            ),
            max_retries=0,
        )
        study = Study(config)
        study.run()
        storm_failures = [f for f in study.failures if f.kind == "rate-limit-storm"]
        assert storm_failures, "a near-permanent storm must lose queries"
        assert study.fault_stats.unaccounted() == {}
