import pytest

from ozsim.agents.market_maker import MM_ADDRESS
from ozsim.agents.risk import (
    CONCENTRATION,
    GOVERNANCE_OOB,
    ORACLE_STALE,
    RESERVE_SHORTFALL,
    AdmissionGate,
    RiskAgent,
)
from ozsim.config import Fault, FaultSpec, RiskSpec, ScenarioConfig
from ozsim.ledger import Ledger
from ozsim.oracle import PRIMARY, SECONDARY
from ozsim.sim import EventLog, Scheduler
from ozsim.units import to_micro

STUCK_PRIMARY = FaultSpec("oracle", "stuck", 0, 0, PRIMARY)
MISREPORT = FaultSpec("vault", "misreport", 0, 0, magnitude=0.005)


class TestOracleChecks:
    def test_stuck_primary_detected_at_threshold_with_switch_and_halt(self, world_factory):
        w = world_factory()
        w.run_to(5_000)
        w.oracle.inject_fault(Fault(STUCK_PRIMARY, 5_000), 5_000)
        w.run_to(14_999)
        assert w.risk.oracle_alert is None
        w.run_to(15_500)  # staleness hits 10 s at 15_000; cycle runs at 15_500
        alert = w.risk.oracle_alert
        assert alert is not None and alert.kind == ORACLE_STALE
        assert alert.raised_at == 15_500
        assert w.ledger.reference_feed == SECONDARY
        assert w.ledger.trading_paused

    def test_single_alert_per_episode_and_recovery_switches_back(self, world_factory):
        w = world_factory()
        w.run_to(5_000)
        fault = Fault(STUCK_PRIMARY, 5_000)
        w.oracle.inject_fault(fault, 5_000)
        w.run_to(60_000)
        stale_alerts = [a for a in w.risk.alerts if a.kind == ORACLE_STALE]
        assert len(stale_alerts) == 1
        w.oracle.restore(fault, 60_000)
        w.run_to(62_000)
        assert stale_alerts[0].cleared_at is not None
        assert w.ledger.reference_feed == PRIMARY

    def test_breaker_lifts_after_cooldown_and_trading_resumes(self, world_factory):
        w = world_factory()
        w.run_to(5_000)
        fault = Fault(STUCK_PRIMARY, 5_000)
        w.oracle.inject_fault(fault, 5_000)
        w.run_to(20_000)
        assert w.ledger.trading_paused
        trip_t = w.ledger.halts[-1]["tripped_at"]
        w.oracle.restore(fault, 20_000)
        w.run_to(trip_t + 300_000)
        assert not w.ledger.trading_paused


class TestReserveChecks:
    # supply 1000 OZ against a 1000 oz vault (300 already with the MM)
    FULL = {"whale-free": 700}

    def test_shortfall_detected_within_one_cycle_and_mints_blocked(self, world_factory):
        w = world_factory(genesis_balances=self.FULL)
        w.run_to(30_000)
        w.vault.inject_misreport(Fault(MISREPORT, 30_000), 30_000)
        w.run_to(59_000)
        assert not w.ledger.issuance_paused  # attestation not yet revealing
        # attestation at 60 s submits, lands in the 61 s block, cycle at 61.5 s
        w.run_to(61_499)
        assert not w.ledger.issuance_paused
        w.run_to(61_500)
        assert w.ledger.issuance_paused
        alert = w.risk.shortfall_alert
        assert alert.kind == RESERVE_SHORTFALL
        assert alert.raised_at - 61_000 < 1000  # under a second after the reveal
        receipt = w.ledger.execute_mint("anyone", to_micro(1))
        assert not receipt.accepted

    def test_clear_without_coverage_stays_frozen_until_covered(self, world_factory):
        w = world_factory(genesis_balances=self.FULL)
        w.run_to(30_000)
        fault = Fault(MISREPORT, 30_000)
        w.vault.inject_misreport(fault, 30_000)
        w.run_to(62_000)
        assert w.ledger.issuance_paused
        w.risk.request_clear(62_000)
        w.run_to(80_000)
        assert w.ledger.issuance_paused  # acknowledged, but reserve still short
        w.vault.restore(fault, 80_000)
        w.run_to(122_000)  # attestation at 120 s covers; standing clear applies
        assert not w.ledger.issuance_paused

    def test_coverage_without_clear_stays_frozen(self, world_factory):
        w = world_factory(genesis_balances=self.FULL)
        w.run_to(30_000)
        fault = Fault(MISREPORT, 30_000)
        w.vault.inject_misreport(fault, 30_000)
        w.run_to(62_000)
        assert w.ledger.issuance_paused
        w.vault.restore(fault, 62_000)
        w.run_to(180_000)  # several covering attestations later
        assert w.ledger.attested_reserve == to_micro(1000)
        assert w.ledger.issuance_paused  # no operator clear yet
        w.risk.request_clear(180_000)
        w.run_to(181_000)
        assert not w.ledger.issuance_paused

    def test_burns_still_allowed_while_frozen(self, world_factory):
        w = world_factory(genesis_balances=self.FULL)
        w.run_to(30_000)
        w.vault.inject_misreport(Fault(MISREPORT, 30_000), 30_000)
        w.run_to(62_000)
        assert w.ledger.issuance_paused
        assert w.ledger.execute_burn("whale-free", to_micro(1)).accepted


class TestConcentration:
    def test_crossing_twenty_percent_raises_single_flag(self, world_factory):
        rest = {f"r{i}": 150 for i in range(5)}  # five holders at 15% each
        w = world_factory(mm_baseline_oz=0.0, genesis_balances={"a": 250, **rest})
        w.run_to(3_000)
        flags = [a for a in w.risk.alerts if a.kind == CONCENTRATION]
        assert len(flags) == 1
        assert flags[0].detail["address"] == "a"
        w.run_to(10_000)
        assert len([a for a in w.risk.alerts if a.kind == CONCENTRATION]) == 1

    def test_exactly_twenty_percent_no_flag(self, world_factory):
        rest = {f"r{i}": 160 for i in range(5)}
        w = world_factory(mm_baseline_oz=0.0, genesis_balances={"a": 200, **rest})
        w.run_to(3_000)
        assert [a for a in w.risk.alerts if a.kind == CONCENTRATION] == []

    def test_flag_only_no_halt(self, world_factory):
        w = world_factory(mm_baseline_oz=0.0, genesis_balances={"a": 250, "rest": 750})
        w.run_to(3_000)
        assert not w.ledger.issuance_paused
        assert not w.ledger.trading_paused

    def test_exempt_platform_addresses_not_flagged(self, world_factory):
        w = world_factory()  # MM holds 300 of 300 supply = 100%
        w.run_to(3_000)
        assert [a for a in w.risk.alerts if a.kind == CONCENTRATION] == []

    def test_supply_shrink_can_push_holder_over_limit(self, world_factory):
        rest = {f"r{i}": 162 for i in range(5)}  # 18% each
        w = world_factory(mm_baseline_oz=0.0, genesis_balances={"a": 190, **rest})
        w.run_to(2_000)
        assert [a for a in w.risk.alerts if a.kind == CONCENTRATION] == []
        # burn elsewhere: a's share rises above 20% without a touching its balance
        w.ledger.submit_tx("burn", "r0", ("r0", to_micro(100)))
        w.run_to(4_000)
        flags = [a for a in w.risk.alerts if a.kind == CONCENTRATION]
        assert len(flags) == 1 and flags[0].detail["address"] == "a"


    def test_alerts_follow_the_order_balances_changed(self):
        # No mint or burn since the last cycle, so the sweep visits only the
        # touched holders; it must visit them in the order their balances
        # changed, not in an order set by string hashing.
        sched, log = Scheduler(seed=1), EventLog()
        ledger = Ledger(sched, log, ScenarioConfig("risk", 1, 1))
        ledger.set_genesis_reserve(to_micro(10_000))
        ledger.genesis_mint(MM_ADDRESS, to_micro(10_000))
        risk = RiskAgent(sched, log, ledger, RiskSpec(concentration_limit=0.01))
        risk.cycle(500)
        holders = [f"holder-{i}" for i in (3, 9, 0, 6, 1, 8, 4, 2, 7, 5)]
        for holder in holders:  # 2% of supply each
            assert ledger.execute_transfer(MM_ADDRESS, holder, to_micro(200)).accepted
        risk.cycle(1500)
        assert [a.detail["address"] for a in risk.alerts if a.kind == CONCENTRATION] == holders


class TestAdmissionGate:
    def test_low_load_passes_through_with_negligible_wait(self):
        gate = AdmissionGate(service_rate=6400.0, headroom=0.85)
        waits = [gate.admit(t * 1000) for t in range(10)]
        assert all(w == 0 for w in waits)

    def test_saturation_queues_and_pins_utilization_at_headroom(self):
        gate = AdmissionGate(service_rate=100.0, headroom=0.85)
        # offer 200 events at once against 85 admitted/s capacity
        waits = [gate.admit(0) for _ in range(200)]
        assert waits[-1] > waits[0]
        util = gate.utilization_since_last_sample(1000, 1000)
        assert util == pytest.approx(0.85, rel=0.02)  # pinned at the headroom share
        assert gate.admit(1000) > 0

    def test_spacing_matches_admission_rate(self):
        gate = AdmissionGate(service_rate=100.0, headroom=0.85)
        gate.admit(0)
        second = gate.admit(0)
        assert second == round(1000 / 85)


def test_governance_out_of_bounds_alert_reaches_risk(world_factory):
    from ozsim.governance import Governance

    w = world_factory(genesis_balances={"whale": 400})
    gov = Governance(w.ledger, alert_sink=w.risk.governance_alert)
    prop = gov.propose_param("breaker_swing_threshold", 0.5, now=0, timelock_ms=60_000)
    gov.vote(prop, "whale", True)
    w.run_to(61_000)
    assert gov.execute_param(prop, w.sched.now()) == "rejected_out_of_bounds"
    assert any(a.kind == GOVERNANCE_OOB for a in w.risk.alerts)
