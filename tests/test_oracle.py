import math
import statistics

import pytest

from ozsim.config import Fault, FaultSpec, PriceSpec, ScenarioConfig
from ozsim.ledger import Ledger
from ozsim.oracle import (
    PRIMARY,
    SECONDARY,
    FeedState,
    OracleHub,
    PriceProcess,
    PriceSample,
    Regime,
    UnknownFeed,
    detect_divergence,
)
from ozsim.sim import EventLog, RngStream, Scheduler
from ozsim.units import to_micro


def make_hub(seed=11, noise=0.0002, regimes=None):
    sched = Scheduler(seed=seed)
    config = ScenarioConfig(
        "oracle", seed, 1, secondary_noise_frac=noise,
        price=PriceSpec(regimes=regimes or [Regime(0, 0.0)]),
    )
    log = EventLog()
    return sched, OracleHub(sched, log, config, Ledger(sched, log, config))


def oracle_fault(kind, feed=PRIMARY, offset=0.0):
    return Fault(FaultSpec("oracle", kind, 0, 0, feed, offset), 0)


class TestPriceProcess:
    def test_zero_sigma_zero_drift_holds_constant(self):
        process = PriceProcess(PriceSpec(regimes=[Regime(0, 0.0)]), RngStream(1, "price"))
        for t in range(10):
            assert process.step(t * 1000) == to_micro(2400.0)

    def test_realized_sigma_matches_configured(self):
        sigma = 0.0005
        process = PriceProcess(PriceSpec(regimes=[Regime(0, sigma)]), RngStream(5, "price"))
        last = math.log(2400.0)
        returns = []
        for t in range(10_000):
            p = process.step(t * 1000)
            lp = math.log(p / 1e6)
            returns.append(lp - last)
            last = lp
        realized = statistics.stdev(returns)
        assert abs(realized - sigma) <= 0.1 * sigma

    def test_same_seed_same_path(self):
        a = PriceProcess(PriceSpec(regimes=[Regime(0, 1e-4)]), RngStream(7, "price"))
        b = PriceProcess(PriceSpec(regimes=[Regime(0, 1e-4)]), RngStream(7, "price"))
        assert [a.step(t) for t in range(100)] == [b.step(t) for t in range(100)]

    def test_regime_schedule_switches_sigma(self):
        process = PriceProcess(
            PriceSpec(regimes=[Regime(0, 1e-5), Regime(60_000, 1e-3)]), RngStream(1, "price")
        )
        assert process.sigma_at(0) == 1e-5
        assert process.sigma_at(59_999) == 1e-5
        assert process.sigma_at(60_000) == 1e-3


class TestDivergence:
    def _feeds(self, p_price, s_price, p_t, s_t):
        p = FeedState(PriceSample(p_price, p_t))
        s = FeedState(PriceSample(s_price, s_t))
        return p, s

    def test_stale_primary_after_threshold(self):
        p, s = self._feeds(to_micro(2400.0), to_micro(2400.0), 100_000, 111_000)
        assert detect_divergence(p, s, 111_000) == "stale"

    def test_equal_prices_no_finding(self):
        p, s = self._feeds(to_micro(2400.0), to_micro(2400.0), 111_000, 111_000)
        assert detect_divergence(p, s, 111_000) is None

    def test_half_percent_divergence_detected(self):
        # 2413 / 2400 - 1 = 0.542% which exceeds the 0.5% default.
        p, s = self._feeds(to_micro(2413.0), to_micro(2400.0), 111_000, 111_000)
        assert detect_divergence(p, s, 111_000) == "diverged"

    def test_stale_wins_over_divergence(self):
        p, s = self._feeds(to_micro(2500.0), to_micro(2400.0), 100_000, 111_000)
        assert detect_divergence(p, s, 111_000) == "stale"


class TestFaults:
    def test_stuck_freezes_primary_only(self):
        sched, hub = make_hub()
        hub.start()
        sched.run_until(5000)
        hub.inject_fault(oracle_fault("stuck"), 5000)
        sched.run_until(125_000)
        assert hub.feeds[PRIMARY].last.t == 5000
        assert hub.feeds[SECONDARY].last.t == 125_000

    def test_spoofed_reports_offset_price(self):
        sched, hub = make_hub(noise=0.0)
        hub.inject_fault(oracle_fault("spoofed", offset=0.05), 0)
        hub.step(1000)
        true = hub.true_price
        assert hub.feeds[PRIMARY].last.price == round(true * 1.05)
        assert hub.feeds[SECONDARY].last.price == true

    def test_restore_clears_fault_within_next_step(self):
        sched, hub = make_hub()
        hub.start()
        fault = oracle_fault("stuck")
        hub.inject_fault(fault, 0)
        sched.run_until(60_000)
        assert hub.detect(60_000, 10_000, 0.005) == "stale"
        hub.restore(fault, 60_000)
        sched.run_until(61_000)
        assert hub.detect(61_000, 10_000, 0.005) is None

    def test_unknown_feed_rejected(self):
        sched, hub = make_hub()
        with pytest.raises(UnknownFeed):
            hub.inject_fault(oracle_fault("stuck", feed="tertiary"), 0)


def test_no_false_positives_over_long_healthy_run():
    # Secondary noise at 0.02% must never look stale or diverged at the
    # default thresholds across 1e5 one-second steps.
    sched, hub = make_hub(seed=23, regimes=[Regime(0, 5e-4)])
    findings = []
    for t in range(1, 100_001):
        now = t * 1000
        hub.step(now)
        result = hub.detect(now, 10_000, 0.005)
        if result is not None:
            findings.append((now, result))
    assert findings == []


def test_published_prices_pure_function_of_seed_and_faults():
    def run(seed):
        sched, hub = make_hub(seed=seed, regimes=[Regime(0, 1e-4)])
        hub.start()
        fault = oracle_fault("spoofed", feed=SECONDARY, offset=0.01)
        hub.inject_fault(fault, 0)
        sched.run_until(30_000)
        hub.restore(fault, 30_000)
        sched.run_until(60_000)
        return [(f.last.t, f.last.price) for f in hub.feeds.values()]

    assert run(9) == run(9)
    assert run(9) != run(10)
