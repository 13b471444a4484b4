"""Price-time-priority limit order book with batched on-chain settlement.

Matching is off-chain and instantaneous in simulated time; fills execute at
the maker's price.  Each block interval the accumulated trades are netted per
counterparty pair and submitted as ledger transfers; transfers reverted during
a halt are retried in later batches so settlement eventually completes.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right, insort
from collections import deque
from typing import Callable, NamedTuple, Optional

from .config import ScenarioConfig
from .ledger import Ledger, Receipt
from .sim import EventLog, Scheduler

BID = "bid"
ASK = "ask"


class TradingHalted(Exception):
    pass


class NotOnboarded(Exception):
    pass


class EmptySide(Exception):
    pass


class Order:
    __slots__ = ("order_id", "owner", "side", "price", "qty", "placed_at", "kind", "remaining")

    def __init__(
        self,
        order_id: int,
        owner: str,
        side: str,  # bid | ask
        price: Optional[int],  # micro-USD per OZ; None for market orders
        qty: int,  # micro-OZ
        placed_at: int,
        kind: str,  # limit | market
    ) -> None:
        if qty <= 0:
            raise ValueError("order qty must be positive")
        if kind == "limit" and (price is None or price <= 0):
            raise ValueError("limit orders need a positive price")
        self.order_id = order_id
        self.owner = owner
        self.side = side
        self.price = price
        self.qty = qty
        self.placed_at = placed_at
        self.kind = kind
        self.remaining = qty


class Trade(NamedTuple):
    maker_id: int
    taker_id: int
    maker_owner: str
    taker_owner: str
    price: int
    qty: int
    t: int
    taker_side: str


class OrderBook:
    """Two sides of price levels, FIFO queues within each level."""

    def __init__(self) -> None:
        self._levels: dict[str, dict[int, deque[Order]]] = {BID: {}, ASK: {}}
        self._prices: dict[str, list[int]] = {BID: [], ASK: []}  # ascending
        self._orders: dict[int, Order] = {}

    def best_bid(self) -> Optional[int]:
        prices = self._prices[BID]
        return prices[-1] if prices else None

    def best_ask(self) -> Optional[int]:
        prices = self._prices[ASK]
        return prices[0] if prices else None

    def mid(self) -> Optional[float]:
        bid, ask = self.best_bid(), self.best_ask()
        if bid is None or ask is None:
            return None
        return (bid + ask) / 2

    def resting_qty(self, side: str) -> int:
        return sum(
            order.remaining for q in self._levels[side].values() for order in q
        )

    def rest(self, order: Order) -> None:
        levels = self._levels[order.side]
        level = levels.get(order.price)
        if level is None:  # a level is dropped as soon as it empties
            level = levels[order.price] = deque()
            insort(self._prices[order.side], order.price)
        level.append(order)
        self._orders[order.order_id] = order

    def cancel(self, order_id: int) -> bool:
        order = self._orders.pop(order_id, None)
        if order is None:
            return False
        level = self._levels[order.side][order.price]  # every resting order is in its level
        level.remove(order)
        if not level:
            self._drop_level(order.side, order.price)
        return True

    def _drop_level(self, side: str, price: int) -> None:
        del self._levels[side][price]
        prices = self._prices[side]
        idx = bisect_left(prices, price)
        if idx < len(prices) and prices[idx] == price:
            prices.pop(idx)

    def match(self, taker: Order, now: int) -> list[Trade]:
        """Walk the opposite side in price-time priority at maker prices."""
        trades: list[Trade] = []
        opposite = ASK if taker.side == BID else BID
        skip = 0  # levels passed over because they held only own orders
        while taker.remaining > 0:
            prices = self._prices[opposite]
            if skip >= len(prices):
                break
            best = prices[skip] if opposite == ASK else prices[-1 - skip]
            if taker.price is not None:
                if opposite == ASK and best > taker.price:
                    break
                if opposite == BID and best < taker.price:
                    break
            level = self._levels[opposite][best]
            made_progress = False
            for maker in list(level):
                if taker.remaining <= 0:
                    break
                if maker.owner == taker.owner:
                    continue  # self-match prevention: skip own resting orders
                qty = min(taker.remaining, maker.remaining)
                maker.remaining -= qty
                taker.remaining -= qty
                made_progress = True
                trades.append(
                    Trade(
                        maker.order_id,
                        taker.order_id,
                        maker.owner,
                        taker.owner,
                        best,
                        qty,
                        now,
                        taker.side,
                    )
                )
                if maker.remaining == 0:
                    level.remove(maker)
                    self._orders.pop(maker.order_id, None)
            if not level:
                self._drop_level(opposite, best)
            elif not made_progress:
                skip += 1  # only own orders left here; try the next level
        return trades

    def depth_one_sided(self, side: str, pct: float = 0.01) -> int:
        """Resting micro-OZ within pct of the side's own best price."""
        prices = self._prices[side]
        if not prices:
            return 0
        if side == BID:
            return self._depth(BID, prices[-1] * (1 - pct), math.inf)
        return self._depth(ASK, -math.inf, prices[0] * (1 + pct))

    def depth_within(self, pct: float, mid: Optional[float] = None) -> tuple[int, int]:
        """Resting micro-OZ within pct of mid on each side: (bid, ask).

        mid defaults to the book's; a caller that has just read the best prices
        passes it in.
        """
        if mid is None:
            mid = self.mid()
            if mid is None:
                raise EmptySide("depth_within needs both sides quoted")
        return (self._depth(BID, mid * (1 - pct), math.inf),
                self._depth(ASK, -math.inf, mid * (1 + pct)))

    def _depth(self, side: str, lo: float, hi: float) -> int:
        """Resting micro-OZ on side at prices from lo to hi."""
        prices, levels = self._prices[side], self._levels[side]
        depth = 0
        for price in prices[bisect_left(prices, lo):bisect_right(prices, hi)]:
            for order in levels[price]:
                depth += order.remaining
        return depth


def _pair_key(a: str, b: str) -> tuple[str, str]:
    return (a, b) if a <= b else (b, a)


class Exchange:
    """Order gateway, trade tape, and settlement batcher."""

    def __init__(
        self,
        sched: Scheduler,
        log: EventLog,
        ledger: Ledger,
        config: ScenarioConfig,
        onboarded: Optional[Callable[[str], bool]] = None,
    ):
        self.sched = sched
        self.log = log
        self.ledger = ledger
        self.config = config
        self.onboarded = onboarded
        self.book = OrderBook()
        self.trade_count = 0
        self.traded_micro_oz = 0
        self._next_order_id = 1
        # Signed net flow per unordered pair: positive means key[0] -> key[1].
        self._flows: dict[tuple[str, str], int] = {}
        self._waiters: dict[tuple[str, str], list[Callable[[int], None]]] = {}
        self._pending_qty = 0  # micro-OZ submitted in transfers not yet confirmed
        self._trade_listeners: list[Callable[[Trade], None]] = []

    def on_trade(self, listener: Callable[[Trade], None]) -> None:
        self._trade_listeners.append(listener)

    def place(
        self,
        owner: str,
        side: str,
        qty: int,
        price: Optional[int] = None,
        kind: str = "limit",
    ) -> tuple[list[Trade], Optional[int]]:
        """Match then rest (limit) or cancel (market) the remainder.

        Returns (trades, resting order id or None).
        """
        self._check_gate(owner)
        now = self.sched.now()
        order = Order(self._next_order_id, owner, side, price, qty, now, kind)
        self._next_order_id += 1
        trades = self.book.match(order, now)
        resting: Optional[int] = None
        if order.remaining > 0 and kind == "limit":
            self.book.rest(order)
            resting = order.order_id
        for trade in trades:
            self._record_trade(trade)
        return trades, resting

    def cancel(self, order_id: int) -> bool:
        return self.book.cancel(order_id)

    def requote(
        self, owner: str, cancel_ids: list[int], quotes: list[tuple[str, int, int]]
    ) -> list[int]:
        """Cancel the given orders, then place each (side, qty, price) limit quote.

        The same as cancel() for each id followed by place() for each quote,
        down to order ids, queue positions and trades, with the halt and the
        onboarding checked once, before anything changes.  A quote that
        reaches the opposite best price goes through place() and may trade;
        any other would match nothing, so it rests directly, reusing the
        Order object, and the one-order level, that a cancel freed when there
        is one.  Returns the ids of the quotes left resting.
        """
        self._check_gate(owner)
        book = self.book
        orders, levels, prices = book._orders, book._levels, book._prices
        freed: list[deque[Order]] = []  # one level each, holding one cancelled order
        for order_id in cancel_ids:
            order = orders.pop(order_id, None)
            if order is None:
                continue
            side_levels, price = levels[order.side], order.price
            level = side_levels[price]
            if len(level) == 1:  # the order is alone at its price: drop its level
                del side_levels[price]
                side_prices = prices[order.side]
                side_prices.pop(bisect_left(side_prices, price))
                freed.append(level)
            else:
                level.remove(order)
                freed.append(deque((order,)))
        now = self.sched.now()
        bids, asks = prices[BID], prices[ASK]
        resting: list[int] = []
        for side, qty, price in quotes:
            if qty <= 0 or price <= 0:
                raise ValueError("a quote needs a positive qty and price")
            if (asks and price >= asks[0]) if side == BID else (bids and price <= bids[-1]):
                order_id = self.place(owner, side, qty, price)[1]
                if order_id is not None:
                    resting.append(order_id)
                continue
            order_id = self._next_order_id
            self._next_order_id += 1
            if freed:
                fresh = freed.pop()
                order = fresh[0]
                order.order_id, order.owner, order.kind = order_id, owner, "limit"
                order.side, order.price, order.qty, order.remaining = side, price, qty, qty
                order.placed_at = now
            else:
                order = Order(order_id, owner, side, price, qty, now, "limit")
                fresh = deque((order,))
            side_levels = levels[side]
            level = side_levels.get(price)
            if level is None:  # the quote opens its level
                side_levels[price] = fresh
                insort(prices[side], price)
            else:
                level.append(order)
            orders[order_id] = order
            resting.append(order_id)
        return resting

    def _check_gate(self, owner: str) -> None:
        if self.ledger.trading_paused:
            raise TradingHalted()
        if self.onboarded is not None and not self.onboarded(owner):
            raise NotOnboarded(owner)

    def _record_trade(self, trade: Trade) -> None:
        self.trade_count += 1
        self.traded_micro_oz += trade.qty
        seller = trade.maker_owner if trade.taker_side == BID else trade.taker_owner
        buyer = trade.taker_owner if trade.taker_side == BID else trade.maker_owner
        key = _pair_key(seller, buyer)
        signed = trade.qty if seller == key[0] else -trade.qty
        self._flows[key] = self._flows.get(key, 0) + signed
        if self.config.log_trades:
            self.log.append(
                trade.t,
                "exchange",
                "trade",
                {"px": trade.price, "qty": trade.qty, "maker": trade.maker_owner,
                 "taker": trade.taker_owner, "side": trade.taker_side},
            )
        for listener in self._trade_listeners:
            listener(trade)

    def wait_settlement(self, owner_a: str, owner_b: str, cb: Callable[[int], None]) -> None:
        """Invoke cb(t) once the net flow between the two owners settles."""
        self._waiters.setdefault(_pair_key(owner_a, owner_b), []).append(cb)

    # -- settlement -----------------------------------------------------------

    def start_settlement(self) -> None:
        """Settle once a block."""
        interval = self.config.block_interval_ms
        self.sched.every(self.sched.now() + interval, interval, 0, "settle", self.settle_batch)

    def settle_batch(self) -> list[int]:
        """Net accumulated trades per pair into at most one transfer each."""
        tx_ids: list[int] = []
        now = self.sched.now()
        flows, self._flows = self._flows, {}
        for key, net in flows.items():
            waiters = self._waiters.pop(key, [])
            if net == 0:
                # Fully internalized: obligations cancel without a transfer.
                for cb in waiters:
                    cb(now)
                continue
            src, dst = (key[0], key[1]) if net > 0 else (key[1], key[0])
            qty = abs(net)
            self._pending_qty += qty
            tx_ids.append(
                self.ledger.submit_tx(
                    "transfer", src, (src, dst, qty), _Batch(self, key, net, waiters)
                )
            )
        return tx_ids

    def unsettled_qty(self) -> int:
        return self._pending_qty + sum(abs(net) for net in self._flows.values())


class _Batch:
    """One pair's netted transfer in flight, and the callback of its receipt,
    which settles or refolds it."""

    __slots__ = ("exchange", "key", "net", "waiters")

    def __init__(
        self, exchange: Exchange, key: tuple[str, str], net: int,
        waiters: list[Callable[[int], None]],
    ) -> None:
        self.exchange = exchange
        self.key = key
        self.net = net
        self.waiters = waiters

    def __call__(self, receipt: Receipt) -> None:
        exchange, key, net, waiters = self.exchange, self.key, self.net, self.waiters
        exchange._pending_qty -= abs(net)
        if receipt.accepted:
            now = exchange.sched.now()
            for cb in waiters:
                cb(now)
            return
        # Halted or momentarily underfunded: fold back for the next batch.
        exchange._flows[key] = exchange._flows.get(key, 0) + net
        if waiters:
            exchange._waiters.setdefault(key, []).extend(waiters)
