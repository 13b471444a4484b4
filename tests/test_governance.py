import pytest

from ozsim.governance import AlreadyExecuted, Governance, NotASigner, tally
from ozsim.ledger import Ledger, PriceWindow
from ozsim.sim import EventLog, Scheduler
from ozsim.units import to_micro

DAY_MS = 86_400_000


def make_gov(alerts=None):
    sched = Scheduler(seed=3)
    ledger = Ledger(sched, EventLog(), authorized_auditors={"auditor-1"})
    ledger.set_genesis_reserve(to_micro(1000))
    sink = None
    if alerts is not None:
        sink = lambda kind, detail: alerts.append((kind, detail))
    gov = Governance(ledger, signer_set={"s1", "s2", "s3"}, alert_sink=sink)
    return sched, ledger, gov


class TestMultisig:
    def test_single_signature_stays_pending(self):
        _, _, gov = make_gov()
        prop = gov.propose_update("market-maker", "v2")
        assert gov.sign_update(prop, "s1") == "pending"

    def test_second_distinct_signature_makes_executable(self):
        _, _, gov = make_gov()
        prop = gov.propose_update("market-maker", "v2")
        gov.sign_update(prop, "s1")
        assert gov.sign_update(prop, "s2") == "executed"
        assert gov.drain_agent_updates() == [("market-maker", "v2")]

    def test_duplicate_signer_does_not_advance_count(self):
        _, _, gov = make_gov()
        prop = gov.propose_update("risk", "v3")
        gov.sign_update(prop, "s1")
        assert gov.sign_update(prop, "s1") == "pending"
        assert len(prop.signatures) == 1

    def test_outsider_cannot_sign(self):
        _, _, gov = make_gov()
        prop = gov.propose_update("risk", "v3")
        with pytest.raises(NotASigner):
            gov.sign_update(prop, "mallory")

    def test_signing_executed_proposal_raises(self):
        _, _, gov = make_gov()
        prop = gov.propose_update("risk", "v3")
        gov.sign_update(prop, "s1")
        gov.sign_update(prop, "s2")
        with pytest.raises(AlreadyExecuted):
            gov.sign_update(prop, "s3")


class TestTally:
    def _proposal(self, gov, votes_for, votes_against):
        prop = gov.propose_param("breaker_swing_threshold", 0.03, now=0)
        prop.total_power = 1000
        prop.votes_for = votes_for
        prop.votes_against = votes_against
        return prop

    def test_no_quorum_rejected(self):
        _, _, gov = make_gov()
        prop = self._proposal(gov, 250, 100)
        assert tally(prop, 1000) == "rejected"

    def test_quorum_and_majority_passes(self):
        _, _, gov = make_gov()
        prop = self._proposal(gov, 300, 150)
        assert tally(prop, 1000) == "passed"

    def test_tie_is_rejected(self):
        _, _, gov = make_gov()
        prop = self._proposal(gov, 200, 200)
        assert tally(prop, 1000) == "rejected"


class TestExecuteParam:
    def _passed_proposal(self, gov, ledger, key, value, timelock_ms=DAY_MS):
        # give voters stake so quorum is reachable
        ledger.genesis_mint("whale", to_micro(500))
        ledger.genesis_mint("minnow", to_micro(100))
        prop = gov.propose_param(key, value, now=0, timelock_ms=timelock_ms)
        gov.vote(prop, "whale", True)
        gov.vote(prop, "minnow", False)
        return prop

    def test_in_bounds_executes_after_timelock(self):
        sched, ledger, gov = make_gov()
        prop = self._passed_proposal(gov, ledger, "breaker_swing_threshold", 0.03)
        assert gov.execute_param(prop, DAY_MS) == "executed"
        assert ledger.params.get("breaker_swing_threshold") == 0.03

    def test_execution_before_timelock_fails(self):
        sched, ledger, gov = make_gov()
        prop = self._passed_proposal(gov, ledger, "breaker_swing_threshold", 0.03)
        assert gov.execute_param(prop, DAY_MS - 1000) == "too_early"
        assert ledger.params.get("breaker_swing_threshold") == 0.02
        # still executable once the lock expires
        assert gov.execute_param(prop, DAY_MS) == "executed"

    def test_out_of_bounds_rejected_with_alert(self):
        alerts = []
        sched, ledger, gov = make_gov(alerts)
        prop = self._passed_proposal(gov, ledger, "breaker_swing_threshold", 0.15)
        assert gov.execute_param(prop, DAY_MS) == "rejected_out_of_bounds"
        assert ledger.params.get("breaker_swing_threshold") == 0.02
        assert alerts and alerts[0][0] == "GovernanceOutOfBounds"

    def test_vote_power_is_snapshot_at_proposal(self):
        sched, ledger, gov = make_gov()
        ledger.genesis_mint("whale", to_micro(500))
        prop = gov.propose_param("fee_rate", 0.001, now=0)
        ledger.genesis_mint("late", to_micro(10_000))  # after snapshot
        gov.vote(prop, "late", False)
        gov.vote(prop, "whale", True)
        assert prop.votes_against == 0  # late stake has no power
        assert gov.execute_param(prop, DAY_MS) == "executed"

    def test_duplicate_vote_ignored(self):
        sched, ledger, gov = make_gov()
        ledger.genesis_mint("whale", to_micro(500))
        prop = gov.propose_param("fee_rate", 0.001, now=0)
        gov.vote(prop, "whale", True)
        gov.vote(prop, "whale", True)
        assert prop.votes_for == to_micro(500)


def test_threshold_change_alters_subsequent_trip_decision():
    sched, ledger, gov = make_gov()
    ledger.genesis_mint("whale", to_micro(500))

    def swing_window(now):  # 2.5% move inside the 5 minute window
        return [(now - 200_000, to_micro(2400.0)), (now, to_micro(2460.0))]

    sched.run_until(200_000)
    assert ledger.evaluate_breaker(PriceWindow(swing_window(200_000)), 200_000) is True
    assert ledger.trading_paused
    ledger.governance_unpause(200_000)

    prop = gov.propose_param("breaker_swing_threshold", 0.03, now=200_000)
    gov.vote(prop, "whale", True)
    sched.run_until(200_000 + DAY_MS)
    assert gov.execute_param(prop, sched.now()) == "executed"

    later = 200_000 + DAY_MS
    assert ledger.evaluate_breaker(PriceWindow(swing_window(later)), later) is False
    assert not ledger.trading_paused


def test_governance_actions_are_logged():
    sched, ledger, gov = make_gov()
    ledger.genesis_mint("whale", to_micro(500))
    prop = gov.propose_param("fee_rate", 0.002, now=0)
    gov.vote(prop, "whale", True)
    gov.execute_param(prop, DAY_MS)
    kinds = [r["kind"] for r in ledger.log.records if r["source"] == "governance"]
    assert "param_proposed" in kinds
    assert "param_vote" in kinds
    assert "param_executed" in kinds
