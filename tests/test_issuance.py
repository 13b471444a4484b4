import json

import pytest

from ozsim.agents.issuance import (
    COMPLETED,
    INSUFFICIENT_BALANCE,
    INSUFFICIENT_HEADROOM,
    ISSUANCE_FROZEN,
    ISSUE,
    REDEEM,
    REVERTED,
)
from ozsim.agents.orchestrator import UserState, _UserFlow
from ozsim.units import to_micro


def approve(w, *names):
    for name in names:
        w.orchestrator.users[name] = UserState(approved=True)


def process(w, kind, user, amount):
    """Hand the agent one workflow built as the orchestrator builds it, past
    its admission gate; the flow's report lands in w.reports."""
    flow = _UserFlow(w.orchestrator, kind, user, amount)
    if kind == ISSUE:
        w.issuance.process_issue(flow)
    else:
        w.issuance.process_redeem(flow)
    return flow


class TestIssue:
    def test_latency_decomposition_with_deterministic_agent_delay(self, world_factory):
        w = world_factory(issuance_sigma=0.0)
        approve(w, "alice")
        results = w.reports
        w.run_to(10_000)
        process(w, ISSUE, "alice", to_micro(5))
        w.run_to(12_000)
        (res,) = results
        assert res.status == COMPLETED
        # request 10.000 s -> processing to 10.400 s -> block 11.000 s ->
        # confirmation observable 11.300 s: 1.3 s end to end.
        assert res.agent_ms == 400
        assert res.finished_at == 11_300
        assert res.latency_ms == 1_300
        assert res.chain_ms == 900
        assert w.ledger.balance("alice") == to_micro(5)

    def test_frozen_request_fails_fast_without_mint_tx(self, world_factory):
        w = world_factory()
        approve(w, "alice")
        w.run_to(5_000)
        # freeze comes from the risk agent in practice; emulate its state here
        from ozsim.agents.risk import RiskAlert

        w.ledger.set_issuance_paused(True, 5_000, "risk")
        w.risk.shortfall_alert = RiskAlert("ReserveShortfall", 5_000, "frozen")
        results = w.reports
        process(w, ISSUE, "alice", to_micro(1))
        w.run_to(8_000)
        assert results[0].status == ISSUANCE_FROZEN
        assert results[0].latency_ms == 0
        mint_rows = [
            row
            for r in map(json.loads, w.log_stream.getvalue().splitlines())
            if r["kind"] == "block"
            for row in r["detail"]["txs"] if row[0] == "mint"
        ]
        assert mint_rows == []

    def test_headroom_precheck_fails_before_any_tx(self, world_factory):
        w = world_factory()
        approve(w, "alice")
        results = w.reports
        process(w, ISSUE, "alice", to_micro(800))  # headroom is 700
        w.run_to(3_000)
        assert results[0].status == INSUFFICIENT_HEADROOM
        assert w.vault.locked_micro_oz == to_micro(300)  # no stray lock

    def test_concurrent_issues_second_reverts_on_chain_and_lock_released(self, world_factory):
        w = world_factory(issuance_sigma=0.0)
        approve(w, "a", "b")
        # metal deposited but not yet attested: vault accepts both locks while
        # the on-chain reserve still caps supply at 1000
        w.vault.deposit_physical(to_micro(500))
        results = w.reports
        w.run_to(10_000)
        process(w, ISSUE, "a", to_micro(400))
        process(w, ISSUE, "b", to_micro(400))
        w.run_to(12_000)
        statuses = sorted(r.status for r in results)
        assert statuses == [COMPLETED, REVERTED]
        assert w.ledger.total_supply == to_micro(700)
        # only the accepted mint's lock is retained
        assert w.vault.locked_micro_oz == to_micro(700)

    def test_mint_reverted_by_halt_retries_after_lift(self, world_factory):
        w = world_factory(issuance_sigma=0.0)
        approve(w, "alice")
        results = w.reports
        w.run_to(10_000)
        process(w, ISSUE, "alice", to_micro(5))
        w.run_to(10_500)
        w.ledger.trip_breaker(10_500, "test")
        w.run_to(60_000)
        assert results == []  # still pending through the halt
        w.run_to(312_000)  # lift at 310_500, retry lands in the next block
        assert results and results[0].status == COMPLETED
        assert w.ledger.balance("alice") == to_micro(5)


class TestRedeem:
    def test_redemption_burns_and_withdraws_metal(self, world_factory):
        w = world_factory(issuance_sigma=0.0, genesis_balances={"alice": 5})
        approve(w, "alice")
        results = w.reports
        w.run_to(10_000)
        process(w, REDEEM, "alice", to_micro(5))
        w.run_to(12_000)
        (res,) = results
        assert res.status == COMPLETED
        assert w.ledger.balance("alice") == 0
        assert w.vault.total_micro_oz == to_micro(995)
        assert w.ledger.total_supply == to_micro(300)  # MM endowment remains

    def test_redemption_during_halt_retried_after_lift(self, world_factory):
        w = world_factory(issuance_sigma=0.0, genesis_balances={"alice": 5})
        approve(w, "alice")
        results = w.reports
        w.run_to(10_000)
        w.ledger.trip_breaker(10_000, "test")
        process(w, REDEEM, "alice", to_micro(5))
        w.run_to(300_000)
        assert results == []
        w.run_to(312_000)
        assert results and results[0].status == COMPLETED
        assert w.vault.total_micro_oz == to_micro(995)

    def test_insufficient_balance_fails_immediately(self, world_factory):
        w = world_factory(genesis_balances={"alice": 1})
        approve(w, "alice")
        results = w.reports
        process(w, REDEEM, "alice", to_micro(2))
        assert results[0].status == INSUFFICIENT_BALANCE


def test_vault_and_chain_stay_consistent_through_issue_redeem_cycle(world_factory):
    w = world_factory(issuance_sigma=0.0)
    approve(w, "alice")
    results = w.reports
    w.run_to(5_000)
    process(w, ISSUE, "alice", to_micro(50))
    w.run_to(8_000)
    process(w, REDEEM, "alice", to_micro(20))
    w.run_to(70_000)  # past the next attestation
    assert [r.status for r in results] == [COMPLETED, COMPLETED]
    # attested reserve reflects the withdrawal; supply matches backing
    assert w.ledger.attested_reserve == w.vault.total_micro_oz
    assert w.ledger.total_supply == to_micro(330)
    assert w.vault.locked_micro_oz == to_micro(330)
