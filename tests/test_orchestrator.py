import dataclasses
from collections import deque

import pytest

from ozsim.agents.compliance import UserProfile
from ozsim.agents.market_maker import MM_ADDRESS
from ozsim.agents.orchestrator import UserState
from ozsim.agents.risk import AdmissionGate
from ozsim.bench import bench_config
from ozsim.config import load_bundled
from ozsim.exchange import ASK, BID
from ozsim.runner import Simulation
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
    w.orchestrator.users["carol"] = UserState(approved=True)
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
    w.orchestrator.users[name] = UserState(approved=True, holdings=to_micro(oz))


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


# -- issue and redeem: the issuance agent's report, forwarded -------------------


def test_issue_latency_counts_the_admission_wait(world_factory):
    w = world_factory(issuance_sigma=0.0)
    trader(w, "alice")
    w.risk.gate = AdmissionGate(service_rate=1.0, headroom=1.0)  # one event a second
    w.run_to(10_000)
    w.risk.gate.admit(10_000)  # the pipeline is busy until 11.000 s
    w.orchestrator.handle("issue", "alice", to_micro(5))
    w.run_to(20_000)
    (report,) = w.reports
    assert report.ok
    # admitted 11.000 s -> processed 11.400 s -> block 12.000 s -> observable 12.300 s
    assert (report.requested_at, report.finished_at) == (10_000, 12_300)
    assert (report.agent_ms, report.chain_ms) == (400, 900)
    assert report.latency_ms == 2_300
    assert w.orchestrator.holdings("alice") == to_micro(5) == w.ledger.balance("alice")


def test_redeem_whose_burn_reverts_returns_the_holdings(world_factory):
    w = world_factory(issuance_sigma=0.0, genesis_balances={"carol": 5})
    trader(w, "carol", oz=5)
    trader(w, "dave")
    w.run_to(10_000)
    w.orchestrator.handle("redeem", "carol", to_micro(5))
    assert w.orchestrator.holdings("carol") == 0  # committed to the redemption
    # the balance leaves in the same block, ahead of the burn submitted at 10.400 s
    w.ledger.submit_tx("transfer", "carol", ("carol", "dave", to_micro(5)))
    w.run_to(20_000)
    (report,) = w.reports
    assert (report.kind, report.status) == ("redeem", "reverted")
    assert (report.requested_at, report.finished_at, report.agent_ms) == (10_000, 11_300, 400)
    assert w.vault.total_micro_oz == to_micro(1000)  # no metal left the vault
    assert w.orchestrator.holdings("carol") == to_micro(5)
    assert w.ledger.balance("dave") == to_micro(5)


# -- order-path state lives as long as its workflow, not as long as its timers ----


def test_reported_flow_registers_no_further_settlement_waiter(world_factory):
    w = world_factory(pre_trade_sigma=0.0, order_style="mixed",
                      genesis_balances={"bob": 1, "dave": 1})
    trader(w, "alice")
    trader(w, "bob", oz=1)
    trader(w, "dave", oz=1)
    w.run_to(5_000)
    w.exchange.place("bob", ASK, to_micro(1), price=1)  # any bid crosses it
    w.orchestrator.handle("buy", "alice", to_micro(2))
    w.run_to(5_000 + PRE_TRADE_MS)
    assert w.exchange.book.best_bid() is not None  # half filled, half resting
    w.run_to(8_000)
    (report,) = w.reports  # the first fill settled
    assert report.ok
    trades, _ = w.exchange.place("dave", ASK, to_micro(1), kind="market")
    assert [t.maker_owner for t in trades] == ["alice"]
    assert w.exchange._waiters == {}  # the reported flow waits for nothing
    assert w.orchestrator._maker_contexts == {}  # nor outlives its filled order
    w.run_to(30_000)
    assert len(w.reports) == 1
    assert w.orchestrator.holdings("alice") == to_micro(2) == w.ledger.balance("alice")
    assert w.exchange.unsettled_qty() == 0


def test_fully_filled_order_drops_its_context_at_the_fill(world_factory):
    w = world_factory(pre_trade_sigma=0.0, order_style="mixed", genesis_balances={"bob": 2})
    trader(w, "alice")
    trader(w, "bob", oz=2)
    w.run_to(5_000)
    w.orchestrator.handle("buy", "alice", to_micro(2))
    w.run_to(6_000)
    assert len(w.orchestrator._maker_contexts) == 1
    w.exchange.place("bob", ASK, to_micro(1), kind="market")
    assert len(w.orchestrator._maker_contexts) == 1  # half the order still rests
    w.exchange.place("bob", ASK, to_micro(1), kind="market")
    assert w.orchestrator._maker_contexts == {}
    assert len(w.orchestrator._expiries) == 1  # the expiry still fires, and finds nothing
    w.run_to(30_000)
    assert w.orchestrator._expiries == deque()
    (report,) = w.reports
    assert report.ok


def bench_point(users, duration_ms, **overrides):
    base = dataclasses.replace(load_bundled("bench-base"), duration_ms=duration_ms, **overrides)
    return Simulation(bench_config(base, users))


def test_maker_contexts_are_exactly_the_resting_user_orders():
    sim = bench_point(2000, 8_000)
    sim.execute()
    book = sim.exchange.book
    resting = {oid for oid, order in book._orders.items() if order.owner != MM_ADDRESS}
    assert resting  # the point ends with user orders in the book
    assert set(sim.orchestrator._maker_contexts) == resting


# Digests of the same points before expiries were queued by order id; they pin
# the FIFO expiry order, down to expiries in the millisecond of their placement.
EXPIRY_DIGESTS = {
    0: "d2201ef327cc903a4f0286d7bda8fa594d73445b0e896d3ebddac20fe2b908bb",
    300: "701e9222d0bc6e7d6fd0003e45ab2d26cb0a132ceb2580565cd7bf739774d59d",
    5000: "cf2df5e28e3db82aa2bd19d52f7642cbecc312d0cb36d1ff0a279abf30088b20",
}


@pytest.mark.parametrize("expiry_ms", sorted(EXPIRY_DIGESTS))
def test_order_expiry_digests_are_pinned(expiry_ms):
    digest = bench_point(1000, 6_000, order_expiry_ms=expiry_ms).execute()
    assert digest == EXPIRY_DIGESTS[expiry_ms]
