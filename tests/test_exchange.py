import pytest
from hypothesis import given, settings, strategies as st

from ozsim.config import ScenarioConfig
from ozsim.exchange import ASK, BID, EmptySide, Exchange, NotOnboarded, TradingHalted
from ozsim.ledger import Ledger
from ozsim.sim import EventLog, Scheduler
from ozsim.units import to_micro


def make_exchange(onboarded=None, balances=None):
    sched = Scheduler(seed=2)
    log = EventLog()
    config = ScenarioConfig("exchange", 2, 1)
    ledger = Ledger(sched, log, config)
    ledger.set_genesis_reserve(to_micro(100_000))
    for addr, amount in (balances or {}).items():
        ledger.genesis_mint(addr, to_micro(amount))
    ledger.start()
    exchange = Exchange(sched, log, ledger, config, onboarded=onboarded)
    return sched, ledger, exchange


def px(usd):
    return to_micro(usd)


class TestMatching:
    def test_market_buy_fills_single_level(self):
        _, _, ex = make_exchange()
        ex.place("mm", ASK, to_micro(100), px(2401.0))
        trades, _ = ex.place("alice", BID, to_micro(40), kind="market")
        assert len(trades) == 1
        assert trades[0].price == px(2401.0)
        assert trades[0].qty == to_micro(40)
        assert ex.book.resting_qty(ASK) == to_micro(60)

    def test_market_buy_walks_price_levels(self):
        _, _, ex = make_exchange()
        ex.place("mm", ASK, to_micro(50), px(2401.0))
        ex.place("mm", ASK, to_micro(50), px(2402.0))
        trades, _ = ex.place("alice", BID, to_micro(80), kind="market")
        assert [(t.price, t.qty) for t in trades] == [
            (px(2401.0), to_micro(50)),
            (px(2402.0), to_micro(30)),
        ]

    def test_limit_remainder_rests(self):
        _, _, ex = make_exchange()
        ex.place("mm", ASK, to_micro(50), px(2401.0))
        trades, resting = ex.place("alice", BID, to_micro(80), px(2401.0))
        assert len(trades) == 1
        assert resting is not None
        assert ex.book.best_bid() == px(2401.0)

    def test_market_remainder_cancels(self):
        _, _, ex = make_exchange()
        trades, resting = ex.place("alice", BID, to_micro(10), kind="market")
        assert trades == [] and resting is None
        assert ex.book.resting_qty(BID) == 0

    def test_taker_never_trades_through_its_limit(self):
        _, _, ex = make_exchange()
        ex.place("mm", ASK, to_micro(50), px(2401.0))
        ex.place("mm", ASK, to_micro(50), px(2402.0))
        trades, _ = ex.place("alice", BID, to_micro(80), px(2401.5))
        assert [(t.price, t.qty) for t in trades] == [(px(2401.0), to_micro(50))]

    def test_fifo_within_level(self):
        _, _, ex = make_exchange()
        _, first = ex.place("m1", ASK, to_micro(10), px(2401.0))
        _, second = ex.place("m2", ASK, to_micro(10), px(2401.0))
        trades, _ = ex.place("alice", BID, to_micro(10), kind="market")
        assert trades[0].maker_id == first

    def test_self_match_prevention_skips_own_orders(self):
        _, _, ex = make_exchange()
        ex.place("mm", ASK, to_micro(10), px(2401.0))
        ex.place("other", ASK, to_micro(10), px(2402.0))
        trades, _ = ex.place("mm", BID, to_micro(10), kind="market")
        assert len(trades) == 1
        assert trades[0].maker_owner == "other"
        assert ex.book.resting_qty(ASK) == to_micro(10)  # own ask untouched

    def test_place_during_halt_raises_and_leaves_book_unchanged(self):
        sched, ledger, ex = make_exchange()
        ex.place("mm", ASK, to_micro(10), px(2401.0))
        ledger.trip_breaker(0, "test")
        with pytest.raises(TradingHalted):
            ex.place("alice", BID, to_micro(10), kind="market")
        assert ex.book.resting_qty(ASK) == to_micro(10)
        assert ex.trade_count == 0

    def test_compliance_gate(self):
        _, _, ex = make_exchange(onboarded=lambda owner: owner != "stranger")
        with pytest.raises(NotOnboarded):
            ex.place("stranger", BID, to_micro(1), kind="market")


class TestDepth:
    def _ladder(self, ex, mid_usd=2400.0):
        for bps in (10, 30, 60, 95):
            ex.place("mm", ASK, to_micro(60), px(mid_usd * (1 + bps / 10_000)))
            ex.place("mm", BID, to_micro(60), px(mid_usd * (1 - bps / 10_000)))

    def test_ladder_depth_within_one_percent(self):
        _, _, ex = make_exchange()
        self._ladder(ex)
        bid_depth, ask_depth = ex.book.depth_within(0.01)
        assert bid_depth == to_micro(240)
        assert ask_depth == to_micro(240)

    def test_narrower_window_counts_fewer_levels(self):
        _, _, ex = make_exchange()
        self._ladder(ex)
        bid_depth, ask_depth = ex.book.depth_within(0.005)
        assert bid_depth == to_micro(120)  # 10 and 30 bps inside, 60/95 out
        assert ask_depth == to_micro(120)

    def test_empty_book_raises(self):
        _, _, ex = make_exchange()
        with pytest.raises(EmptySide):
            ex.book.depth_within(0.01)

    def test_zero_window_has_no_orders_at_mid(self):
        _, _, ex = make_exchange()
        self._ladder(ex)
        assert ex.book.depth_within(0.0) == (0, 0)


class TestSettlement:
    def test_trades_between_pair_net_to_single_transfer(self):
        sched, ledger, ex = make_exchange(balances={"alice": 100})
        ex.place("alice", ASK, to_micro(5), px(2400.0))
        ex.place("alice", ASK, to_micro(4), px(2400.0))
        ex.place("alice", ASK, to_micro(3), px(2400.0))
        ex.place("bob", BID, to_micro(12), kind="market")
        tx_ids = ex.settle_batch()
        assert len(tx_ids) == 1
        sched.run_until(2000)
        assert ledger.balance("bob") == to_micro(12)
        assert ledger.balance("alice") == to_micro(88)

    def test_opposing_flows_offset(self):
        sched, ledger, ex = make_exchange(balances={"alice": 100, "bob": 100})
        ex.place("alice", ASK, to_micro(5), px(2400.0))
        ex.place("bob", BID, to_micro(5), kind="market")
        ex.place("bob", ASK, to_micro(3), px(2400.0))
        ex.place("alice", BID, to_micro(3), kind="market")
        tx_ids = ex.settle_batch()
        assert len(tx_ids) == 1
        sched.run_until(2000)
        assert ledger.balance("bob") == to_micro(102)
        assert ledger.balance("alice") == to_micro(98)

    def test_no_trades_no_txs(self):
        _, _, ex = make_exchange()
        assert ex.settle_batch() == []

    def test_settlement_reverted_during_halt_retries_after_lift(self):
        sched, ledger, ex = make_exchange(balances={"alice": 100})
        settled = []
        ex.place("alice", ASK, to_micro(5), px(2400.0))
        ex.place("bob", BID, to_micro(5), kind="market")
        ex.wait_settlement("alice", "bob", settled.append)
        ex.start_settlement()
        sched.run_until(500)
        ledger.trip_breaker(500, "test")
        sched.run_until(200_000)
        assert settled == []  # reverted while halted, kept pending
        assert ledger.balance("bob") == 0
        assert ex.unsettled_qty() == to_micro(5)
        sched.run_until(302_000)  # breaker lifts at 300_500, next block settles
        assert ledger.balance("bob") == to_micro(5)
        assert len(settled) == 1
        assert ex.unsettled_qty() == 0

    def test_conservation_book_plus_ledger(self):
        sched, ledger, ex = make_exchange(balances={"alice": 100, "bob": 100})
        supply_before = ledger.total_supply
        ex.place("alice", ASK, to_micro(7), px(2400.0))
        ex.place("bob", BID, to_micro(4), kind="market")
        ex.settle_batch()
        sched.run_until(2000)
        assert ledger.total_supply == supply_before
        assert sum(ledger.balances.values()) == supply_before


def book_state(ex):
    """Every level's FIFO, best price first, as (order_id, owner, qty, remaining, placed_at)."""
    book = ex.book
    state = {}
    for side in (BID, ASK):
        prices = book._prices[side]
        ordered = reversed(prices) if side == BID else prices
        state[side] = [
            (price, [(o.order_id, o.owner, o.qty, o.remaining, o.placed_at)
                     for o in book._levels[side][price]])
            for price in ordered
        ]
    return state, sorted(book._orders)


def book_invariants(book):
    """The book's structure: _orders and the levels hold the same orders, each
    once, under its own id, side and price; no level is empty; each side's
    sorted prices are its level keys."""
    placed = {}  # id(order) -> order, over every level
    for side in (BID, ASK):
        levels = book._levels[side]
        assert book._prices[side] == sorted(levels)
        for price, level in levels.items():
            assert level, (side, price)
            for order in level:
                assert (order.side, order.price, order.kind) == (side, price, "limit")
                assert 0 < order.remaining <= order.qty
                assert id(order) not in placed, order.order_id
                placed[id(order)] = order
    stored = {id(order) for order in book._orders.values()}
    assert len(stored) == len(book._orders)  # no order under two ids
    assert stored == set(placed)
    assert all(order.order_id == order_id for order_id, order in book._orders.items())


_sides = st.sampled_from([BID, ASK])
_qtys = st.integers(1, 10)
_prices = st.integers(95, 105)  # a narrow grid, so quotes collide and cross
_setup_op = st.one_of(
    st.tuples(st.just("limit"), st.sampled_from(["u1", "u2", "mm"]), _sides, _qtys, _prices),
    st.tuples(st.just("market"), st.sampled_from(["u1", "u2", "mm"]), _sides, _qtys),
    st.tuples(st.just("cancel"), st.integers(1, 40)),
)


class TestRequote:
    def _twin(self, setup):
        """An exchange after the setup ops, its trade listener's calls, and
        the ids the market maker's limit orders got."""
        sched, ledger, ex = make_exchange()
        sched.run_until(1_000)
        seen = []
        ex.on_trade(seen.append)
        mm_ids = []
        for op in setup:
            if op[0] == "limit":
                _, owner, side, qty, price = op
                ex.place(owner, side, qty, price)
                if owner == "mm":  # resting or not
                    mm_ids.append(ex._next_order_id - 1)
            elif op[0] == "market":
                _, owner, side, qty = op
                ex.place(owner, side, qty, kind="market")
            else:
                ex.cancel(op[1])
        sched.run_until(2_000)
        return ex, seen, mm_ids

    @settings(max_examples=300, deadline=None)
    @given(
        setup=st.lists(_setup_op, max_size=25),
        stale=st.lists(st.integers(1, 45), max_size=4),
        quotes=st.lists(st.tuples(_sides, _qtys, _prices), max_size=10),
    )
    def test_requote_equals_cancel_then_place(self, setup, stale, quotes):
        a, a_seen, mm_ids = self._twin(setup)
        b, b_seen, _ = self._twin(setup)
        # the maker's orders (some filled or cancelled since) and ids that
        # may rest, may be gone or were never used
        cancel_ids = mm_ids + stale
        first_new_id = a._next_order_id
        got = a.requote("mm", cancel_ids, quotes)
        for order_id in cancel_ids:
            b.cancel(order_id)
        expected = []
        for side, qty, price in quotes:
            _, order_id = b.place("mm", side, qty, price)
            if order_id is not None:
                expected.append(order_id)
        assert got == expected
        assert book_state(a) == book_state(b)
        assert a_seen == b_seen
        assert a._next_order_id == b._next_order_id
        assert a._flows == b._flows
        assert a.log.digest() == b.log.digest()
        book_invariants(a.book)
        assert not [i for i in cancel_ids if i < first_new_id and i in a.book._orders]

    def test_user_order_behind_a_cancelled_quote_stays_ahead_of_its_replacement(self):
        _, _, ex = make_exchange()
        _, mm_id = ex.place("mm", BID, to_micro(1), px(2399.0))
        _, user_id = ex.place("alice", BID, to_micro(2), px(2399.0))
        [new_id] = ex.requote("mm", [mm_id], [(BID, to_micro(3), px(2399.0))])
        level = ex.book._levels[BID][px(2399.0)]
        assert [(o.order_id, o.owner, o.remaining) for o in level] == [
            (user_id, "alice", to_micro(2)), (new_id, "mm", to_micro(3))]
        book_invariants(ex.book)

    def test_quote_inside_the_spread_rests_without_matching(self):
        _, _, ex = make_exchange()
        ex.place("alice", ASK, to_micro(5), px(2401.0))
        ex.book.match = None  # a call would raise
        ids = ex.requote("mm", [], [(BID, to_micro(1), px(2400.0)),
                                    (ASK, to_micro(1), px(2402.0))])
        assert ids == [2, 3]
        assert ex.book.best_bid() == px(2400.0)

    def test_crossing_quote_trades_with_resting_user_order(self):
        _, _, ex = make_exchange()
        ex.place("alice", ASK, to_micro(5), px(2401.0))
        ids = ex.requote("mm", [], [(BID, to_micro(2), px(2401.0))])
        assert ids == []
        assert ex.trade_count == 1
        assert ex.book.resting_qty(ASK) == to_micro(3)

    def test_halted_requote_raises_and_leaves_book_unchanged(self):
        _, ledger, ex = make_exchange()
        _, resting = ex.place("mm", BID, to_micro(10), px(2399.0))
        ex.place("alice", ASK, to_micro(10), px(2401.0))
        before, next_id = book_state(ex), ex._next_order_id
        ledger.trip_breaker(0, "test")
        with pytest.raises(TradingHalted):
            ex.requote("mm", [resting], [(BID, to_micro(10), px(2401.0))])
        assert book_state(ex) == before
        assert ex._next_order_id == next_id
        assert ex.trade_count == 0

    def test_requote_checks_onboarding(self):
        _, _, ex = make_exchange(onboarded=lambda owner: owner != "stranger")
        _, resting = ex.place("mm", BID, to_micro(10), px(2399.0))
        with pytest.raises(NotOnboarded):
            ex.requote("stranger", [resting], [(BID, to_micro(1), px(2398.0))])
        assert ex.book.best_bid() == px(2399.0)
