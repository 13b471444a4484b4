import math
import random
import statistics
import struct
import sys

import pytest
from hypothesis import given, settings, strategies as st

from ozsim.agents.market_maker import MMConfig, MarketMakerAgent, _exact_stdev
from ozsim.exchange import ASK, BID
from ozsim.units import MICRO, to_micro


class TestSpreadFormula:
    def test_floor_at_zero_vol(self, world_factory):
        w = world_factory()
        assert w.mm.half_spread(0.0) == 0.001

    def test_linear_response(self, world_factory):
        w = world_factory()
        assert w.mm.half_spread(0.0005) == pytest.approx(0.003)

    def test_cap(self, world_factory):
        w = world_factory()
        assert w.mm.half_spread(0.01) == 0.005


class TestQuoting:
    def test_zero_vol_total_spread_is_20_bps(self, world_factory):
        w = world_factory()
        w.run_to(5_000)
        w.mm.quote_cycle(5_000)
        book = w.exchange.book
        mid = book.mid()
        spread = (book.best_ask() - book.best_bid()) / mid
        assert spread == pytest.approx(0.002, abs=1e-5)

    def test_full_ladder_depth_within_one_percent(self, world_factory):
        w = world_factory()
        w.run_to(5_000)
        w.mm.quote_cycle(5_000)
        bid_depth, ask_depth = w.exchange.book.depth_within(0.01)
        assert bid_depth == to_micro(240)
        assert ask_depth == to_micro(240)

    def test_capped_half_spread_keeps_ladder_inside_one_percent(self, world_factory):
        w = world_factory()
        w.run_to(5_000)
        # force a saturated vol estimate: alternating +-2% log returns
        for i in range(61):
            w.mm._mid_history.append(2400.0 * (1.02 if i % 2 else 0.98))
        w.mm.quote_cycle(5_000)
        book = w.exchange.book
        mid = book.mid()
        spread = (book.best_ask() - book.best_bid()) / mid
        assert spread == pytest.approx(0.010, abs=1e-4)  # 2 x 0.5% cap
        bid_depth, ask_depth = book.depth_within(0.01)
        assert bid_depth == to_micro(240)
        assert ask_depth == to_micro(240)

    def test_inventory_skews_quotes_down_ten_bps_and_suppresses_bids(self, world_factory):
        w = world_factory()
        w.run_to(5_000)
        w.mm.inventory = to_micro(100)
        w.mm._rebalance_pending = True  # rebalance in flight; quoting sees the limit
        w.mm.quote_cycle(5_000)
        book = w.exchange.book
        assert book.best_bid() is None  # a bid fill would breach the limit
        ref = w.oracle.reference_price()
        expected_ask = round(ref * (1 - 0.001) * (1 + 0.001))
        assert book.best_ask() == pytest.approx(expected_ask, abs=2)

    def test_short_limit_suppresses_asks(self, world_factory):
        w = world_factory()
        w.run_to(5_000)
        w.mm.inventory = -to_micro(100)
        w.mm._rebalance_pending = True
        w.mm.quote_cycle(5_000)
        assert w.exchange.book.best_ask() is None
        assert w.exchange.book.best_bid() is not None

    def test_cycle_skipped_while_halted(self, world_factory):
        w = world_factory()
        w.run_to(5_000)
        w.ledger.trip_breaker(5_000, "test")
        w.mm.quote_cycle(5_000)
        assert w.exchange.book.best_bid() is None
        assert w.exchange.book.best_ask() is None

    def test_requote_replaces_stale_orders(self, world_factory):
        w = world_factory()
        w.run_to(5_000)
        w.mm.quote_cycle(5_000)
        first_count = len(w.mm._live_orders)
        w.run_to(6_000)
        w.mm.quote_cycle(6_000)
        assert len(w.mm._live_orders) == first_count
        assert w.exchange.book.resting_qty(BID) == to_micro(240)
        assert w.exchange.book.resting_qty(ASK) == to_micro(240)

    def test_mid_tracks_reference_within_half_spread(self, world_factory):
        w = world_factory(start_mm=True)
        w.run_to(30_000)
        book = w.exchange.book
        ref = w.oracle.reference_price()
        mid = book.mid()
        assert abs(mid - ref) / ref <= w.mm.current_half_spread


class TestInventoryControl:
    def test_fills_move_inventory(self, world_factory):
        w = world_factory()
        w.orchestrator.register_platform("taker")
        w.run_to(5_000)
        w.mm.quote_cycle(5_000)
        w.exchange.place("taker", BID, to_micro(40), kind="market")
        assert w.mm.inventory == -to_micro(40)  # MM sold to the taker
        w.exchange.place("taker", ASK, to_micro(100), kind="market")
        assert w.mm.inventory == to_micro(60)

    def test_rebalance_below_threshold_no_action(self, world_factory):
        w = world_factory()
        w.run_to(5_000)
        w.mm.inventory = to_micro(30)
        w.mm.maybe_rebalance(5_000)
        assert w.mm.rebalance_events == []
        assert w.mm.inventory == to_micro(30)

    def test_long_rebalance_transfers_to_cold_storage(self, world_factory):
        w = world_factory()
        w.run_to(5_000)
        # the MM really holds the excess on-chain: move 50 from a filled sale
        w.orchestrator.register_platform("seller")
        w.ledger.genesis_balance = None  # no-op guard
        w.mm.quote_cycle(5_000)
        w.exchange.place("seller", ASK, to_micro(50), kind="market")
        assert w.mm.inventory == to_micro(50)
        w.run_to(7_000)  # settlement lands the tokens with the MM
        w.mm.maybe_rebalance(7_000)
        w.run_to(10_000)
        assert w.mm.inventory == 0
        assert w.ledger.balance("mm-cold") == to_micro(50)
        assert w.mm.rebalance_events == [(7_000, to_micro(50))]

    def test_short_rebalance_restocks_from_cold_then_mint(self, world_factory):
        w = world_factory()
        w.run_to(5_000)
        w.mm.inventory = -to_micro(50)
        w.mm.maybe_rebalance(5_000)
        w.run_to(8_000)
        assert w.mm.inventory == 0
        # cold storage was empty, so the restock minted fresh supply
        assert w.ledger.total_supply == to_micro(350)
        assert w.vault.locked_micro_oz == to_micro(350)

    def test_rebalance_only_triggers_at_threshold(self, world_factory):
        w = world_factory()
        w.run_to(5_000)
        w.mm.inventory = to_micro(49)
        w.mm.maybe_rebalance(5_000)
        assert w.mm.rebalance_events == []
        w.mm.inventory = to_micro(50)
        w.mm.maybe_rebalance(5_000)
        assert len(w.mm.rebalance_events) == 1


def _bits(x: float) -> bytes:
    return struct.pack("<d", x)


# statistics.stdev, the reference below, is correctly rounded from Python 3.11 on
needs_exact_reference = pytest.mark.skipif(
    sys.version_info < (3, 11), reason="statistics.stdev rounds correctly from 3.11"
)


class TestExactStdev:
    @needs_exact_reference
    @settings(max_examples=500, deadline=None)
    @given(st.lists(st.floats(min_value=-1.0, max_value=1.0, allow_nan=False),
                    min_size=2, max_size=61))
    def test_property_bit_identical_to_statistics_stdev(self, xs):
        assert _bits(_exact_stdev(xs)) == _bits(statistics.stdev(xs))

    @needs_exact_reference
    @pytest.mark.parametrize("xs", [
        [1e-4, -3e-4],
        [0.0025] * 7,
        [-1e-3] * 60,
        [0.0, 0.0],
        [0.0, -0.0, 0.0],
        [0.0, -0.0, 1e-4, -0.0],
        [5e-324, 0.0],
        [5e-324, -5e-324, 1e-323, 0.0],
        [2.2250738585072014e-308, 5e-324, -1e-310],
        [1e-300, 1e-2],
        [1e-300, -1e-2, 3e-5, 0.0, 5e-324],
        [1.0, -1.0, 0.5],
        [0.0, 1e300],
        [2.0**60, -2.0**61, 3.0],
        [1e300, -1e300, 5e-324],
    ])
    def test_bit_identical_on_edge_cases(self, xs):
        assert _bits(_exact_stdev(xs)) == _bits(statistics.stdev(xs))

    @pytest.mark.parametrize("xs", [[0.25] * 2, [-0.0] * 5, [5e-324] * 3])
    def test_equal_values_give_zero(self, xs):
        assert _bits(_exact_stdev(xs)) == _bits(0.0)

    @needs_exact_reference
    def test_realized_sigma_is_stdev_of_log_returns(self, world_factory):
        w = world_factory()
        rng = random.Random(11)
        prices = [2400.0]
        for _ in range(w.mm.config.vol_window_s):
            prices.append(round(prices[-1] * math.exp(rng.gauss(0.0, 1e-3)), 6))
        w.mm._mid_history.extend(prices)
        returns = [math.log(b / a) for a, b in zip(prices, prices[1:])]
        assert _bits(w.mm.realized_sigma()) == _bits(statistics.stdev(returns))
