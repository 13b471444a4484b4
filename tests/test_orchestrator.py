import pytest

from ozsim.agents.compliance import UserProfile
from ozsim.agents.orchestrator import UserState
from ozsim.exchange import ASK, BID
from ozsim.units import to_micro

PRE_TRADE_MS = 275  # pre_trade_mean_ms with pre_trade_sigma=0
EXPIRY_MS = 5000  # order_expiry_ms


def find(reports, kind):
    return [r for r in reports if r.kind == kind]


def test_onboard_issue_sell_lifecycle_gates_in_order(world_factory):
    w = world_factory(issuance_sigma=0.0, pre_trade_sigma=0.0, start_mm=True)
    w.orchestrator.onboard(UserProfile("alice"))
    assert not w.orchestrator.is_approved("alice")

    # act before approval: gated out
    w.orchestrator.handle("issue", "alice", to_micro(5))
    assert find(w.reports, "issue")[0].status == "not_onboarded"

    w.run_to(400_000)  # screening finishes (~168 s)
    assert w.orchestrator.is_approved("alice")
    onboard = find(w.reports, "onboard")[0]
    assert onboard.ok

    w.orchestrator.handle("issue", "alice", to_micro(5))
    w.run_to(405_000)
    issue = find(w.reports, "issue")[-1]
    assert issue.ok
    assert w.orchestrator.holdings("alice") == to_micro(5)
    assert w.ledger.balance("alice") == to_micro(5)

    w.orchestrator.handle("sell", "alice", to_micro(5))
    w.run_to(410_000)
    sell = find(w.reports, "sell")[-1]
    assert sell.ok
    assert w.orchestrator.holdings("alice") == 0
    # tokens settled to the market maker, none created or destroyed
    assert sum(w.ledger.balances.values()) == w.ledger.total_supply


def test_buy_from_non_onboarded_user_rejected(world_factory):
    w = world_factory()
    w.orchestrator.onboard(UserProfile("bob"))
    w.orchestrator.handle("buy", "bob", to_micro(1))
    report = find(w.reports, "buy")[0]
    assert report.status == "not_onboarded"
    assert report.latency_ms == 0


def test_sell_beyond_holdings_rejected_without_commitment(world_factory):
    w = world_factory(start_mm=True)
    w.orchestrator.users["carol"] = UserState(UserProfile("carol"), approved=True)
    w.run_to(5_000)
    w.orchestrator.handle("sell", "carol", to_micro(3))
    w.run_to(6_000)
    report = find(w.reports, "sell")[0]
    assert report.status == "insufficient_holdings"


def test_denied_user_never_becomes_actionable(world_factory):
    w = world_factory()
    w.orchestrator.onboard(UserProfile("eve", sanctions_match=True))
    w.run_to(400_000)
    assert not w.orchestrator.is_approved("eve")
    onboard = find(w.reports, "onboard")[0]
    assert onboard.status == "denied"


def test_manual_review_user_approved_after_resolution(world_factory):
    w = world_factory()
    w.orchestrator.onboard(UserProfile("grace", face_match_confidence=0.85))
    w.run_to(400_000)
    assert not w.orchestrator.is_approved("grace")  # still with the reviewers
    w.run_to(8_000_000)  # reviews resolve within two hours of the decision
    assert w.orchestrator.is_approved("grace")


# -- order workflows: every way an order can end reports exactly once ----------


def trader(w, name, oz=0):
    """An approved user whose orchestrator position matches a genesis balance."""
    w.orchestrator.users[name] = UserState(UserProfile(name), approved=True, holdings=to_micro(oz))


def test_unfilled_market_order_reports_once(world_factory):
    w = world_factory(pre_trade_sigma=0.0)
    trader(w, "alice")
    w.run_to(5_000)
    w.orchestrator.handle("buy", "alice", to_micro(1))  # the book is empty
    w.run_to(30_000)
    (report,) = w.reports
    assert report.status == "unfilled"
    assert (report.requested_at, report.finished_at) == (5_000, 5_000 + PRE_TRADE_MS)
    assert (report.agent_ms, report.chain_ms) == (PRE_TRADE_MS, 0)
    assert w.orchestrator.holdings("alice") == 0
    assert w.orchestrator._maker_contexts == {}


def test_resting_limit_order_expires_unfilled(world_factory):
    w = world_factory(pre_trade_sigma=0.0, order_style="mixed")
    trader(w, "alice")
    w.run_to(5_000)
    w.orchestrator.handle("buy", "alice", to_micro(1))
    w.run_to(5_000 + PRE_TRADE_MS)
    assert len(w.orchestrator._maker_contexts) == 1  # resting on an empty book
    assert w.exchange.book.best_bid() is not None
    assert w.reports == []
    w.run_to(30_000)
    (report,) = w.reports
    assert report.status == "unfilled"
    assert report.finished_at == 5_000 + PRE_TRADE_MS + EXPIRY_MS
    assert report.chain_ms == EXPIRY_MS
    assert w.orchestrator._maker_contexts == {}
    assert w.exchange.book.best_bid() is None  # cancelled at expiry
    assert w.orchestrator.holdings("alice") == 0


def test_resting_limit_order_filled_later_completes_after_settlement(world_factory):
    w = world_factory(pre_trade_sigma=0.0, order_style="mixed", genesis_balances={"bob": 5})
    trader(w, "alice")
    trader(w, "bob", oz=5)
    w.run_to(5_000)
    w.orchestrator.handle("buy", "alice", to_micro(2))
    w.run_to(6_000)
    for _ in range(2):  # two fills, two settlement callbacks, one report
        trades, resting = w.exchange.place("bob", ASK, to_micro(1), kind="market")
        assert sum(t.qty for t in trades) == to_micro(1) and resting is None
    assert w.orchestrator.holdings("alice") == to_micro(2)  # credited at the fills
    assert w.reports == []  # complete only once the transfer settles
    w.run_to(30_000)
    (report,) = w.reports
    assert report.ok
    assert report.finished_at < 5_000 + PRE_TRADE_MS + EXPIRY_MS
    assert w.orchestrator._maker_contexts == {}
    assert w.ledger.balance("alice") == to_micro(2)
    assert sum(w.ledger.balances.values()) == w.ledger.total_supply


def test_partially_filled_sell_returns_remainder_at_expiry(world_factory):
    w = world_factory(pre_trade_sigma=0.0, order_style="mixed", genesis_balances={"carol": 5})
    trader(w, "carol", oz=5)
    trader(w, "dave")
    w.run_to(5_000)
    w.orchestrator.handle("sell", "carol", to_micro(5))
    assert w.orchestrator.holdings("carol") == 0  # committed to the sale
    w.run_to(6_000)
    trades, _ = w.exchange.place("dave", BID, to_micro(2), kind="market")
    assert sum(t.qty for t in trades) == to_micro(2)
    w.run_to(30_000)
    (report,) = w.reports
    assert report.ok
    assert w.orchestrator._maker_contexts == {}
    assert w.exchange.book.best_ask() is None
    assert w.orchestrator.holdings("carol") == to_micro(3) == w.ledger.balance("carol")
    assert w.ledger.balance("dave") == to_micro(2)


def test_halt_between_admission_and_place_returns_sell_commitment(world_factory):
    w = world_factory(pre_trade_sigma=0.0, genesis_balances={"carol": 5})
    trader(w, "carol", oz=5)
    w.run_to(5_000)
    w.orchestrator.handle("sell", "carol", to_micro(2))
    assert w.orchestrator.holdings("carol") == to_micro(3)
    w.ledger.trip_breaker(w.sched.now(), "test halt")
    w.run_to(30_000)
    (report,) = w.reports
    assert report.status == "trading_halted"
    assert (report.finished_at, report.agent_ms) == (5_000 + PRE_TRADE_MS, PRE_TRADE_MS)
    assert w.orchestrator.holdings("carol") == to_micro(5)
    assert w.orchestrator._maker_contexts == {}


def test_approval_revoked_before_place_returns_sell_commitment(world_factory):
    w = world_factory(pre_trade_sigma=0.0, genesis_balances={"carol": 5})
    trader(w, "carol", oz=5)
    w.run_to(5_000)
    w.orchestrator.handle("sell", "carol", to_micro(2))
    assert w.orchestrator.holdings("carol") == to_micro(3)
    w.orchestrator.users["carol"].approved = False  # the exchange now refuses this user
    w.run_to(30_000)
    (report,) = w.reports
    assert report.status == "not_onboarded"
    assert (report.finished_at, report.agent_ms) == (5_000 + PRE_TRADE_MS, PRE_TRADE_MS)
    assert w.orchestrator.holdings("carol") == to_micro(5)
    assert w.orchestrator._maker_contexts == {}


def test_unknown_action_rejected_before_admission(world_factory):
    w = world_factory()
    trader(w, "alice", oz=5)
    w.run_to(5_000)
    gate = w.risk.gate
    before = (gate._next_free_ms, list(gate._work))
    with pytest.raises(ValueError, match="unknown action 'swap'"):
        w.orchestrator.handle("swap", "alice", to_micro(1))
    assert (gate._next_free_ms, list(gate._work)) == before
    w.run_to(30_000)
    assert w.reports == []
