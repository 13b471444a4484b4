"""Price-time-priority limit order book with batched on-chain settlement.

Matching is off-chain and instantaneous in simulated time; fills execute at
the maker's price.  Each block interval the accumulated trades are netted per
counterparty pair and submitted as ledger transfers; transfers reverted during
a halt are retried in later batches so settlement eventually completes.
"""

from __future__ import annotations

from bisect import bisect_left, insort
from collections import deque
from dataclasses import dataclass, field
from typing import Callable, Optional

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


@dataclass
class Order:
    order_id: int
    owner: str
    side: str  # bid | ask
    price: Optional[int]  # micro-USD per OZ; None for market orders
    qty: int  # micro-OZ
    placed_at: int
    kind: str  # limit | market
    remaining: int = field(default=0)

    def __post_init__(self) -> None:
        if self.qty <= 0:
            raise ValueError("order qty must be positive")
        if self.kind == "limit" and (self.price is None or self.price <= 0):
            raise ValueError("limit orders need a positive price")
        self.remaining = self.qty


@dataclass(frozen=True)
class Trade:
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
        level = self._levels[order.side].setdefault(order.price, deque())
        if not level:
            insort(self._prices[order.side], order.price)
        level.append(order)
        self._orders[order.order_id] = order

    def cancel(self, order_id: int) -> bool:
        order = self._orders.pop(order_id, None)
        if order is None:
            return False
        level = self._levels[order.side].get(order.price)
        if level is not None:
            try:
                level.remove(order)
            except ValueError:
                pass
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
            lo = prices[-1] * (1 - pct)
            return sum(
                sum(o.remaining for o in level)
                for price, level in self._levels[BID].items()
                if price >= lo
            )
        hi = prices[0] * (1 + pct)
        return sum(
            sum(o.remaining for o in level)
            for price, level in self._levels[ASK].items()
            if price <= hi
        )

    def depth_within(self, pct: float) -> tuple[int, int]:
        """Resting micro-OZ within pct of mid on each side: (bid, ask)."""
        mid = self.mid()
        if mid is None:
            raise EmptySide("depth_within needs both sides quoted")
        lo, hi = mid * (1 - pct), mid * (1 + pct)
        bid_depth = sum(
            sum(o.remaining for o in level)
            for price, level in self._levels[BID].items()
            if price >= lo
        )
        ask_depth = sum(
            sum(o.remaining for o in level)
            for price, level in self._levels[ASK].items()
            if price <= hi
        )
        return bid_depth, ask_depth


def _pair_key(a: str, b: str) -> tuple[str, str]:
    return (a, b) if a <= b else (b, a)


class Exchange:
    """Order gateway, trade tape, and settlement batcher."""

    def __init__(
        self,
        sched: Scheduler,
        log: EventLog,
        ledger: Ledger,
        onboarded: Optional[Callable[[str], bool]] = None,
        settle_interval_ms: int = 1000,
        log_trades: bool = True,
    ):
        self.sched = sched
        self.log = log
        self.ledger = ledger
        self.onboarded = onboarded
        self.settle_interval_ms = settle_interval_ms
        self.log_trades = log_trades
        self.book = OrderBook()
        self.trade_count = 0
        self.traded_micro_oz = 0
        self._next_order_id = 1
        # Signed net flow per unordered pair: positive means key[0] -> key[1].
        self._flows: dict[tuple[str, str], int] = {}
        self._waiters: dict[tuple[str, str], list[Callable[[int], None]]] = {}
        self._pending: dict[int, tuple[tuple[str, str], int, list]] = {}
        self._next_batch = 1
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
        if self.ledger.trading_paused:
            raise TradingHalted()
        if self.onboarded is not None and not self.onboarded(owner):
            raise NotOnboarded(owner)
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

    def _record_trade(self, trade: Trade) -> None:
        self.trade_count += 1
        self.traded_micro_oz += trade.qty
        seller = trade.maker_owner if trade.taker_side == BID else trade.taker_owner
        buyer = trade.taker_owner if trade.taker_side == BID else trade.maker_owner
        key = _pair_key(seller, buyer)
        signed = trade.qty if seller == key[0] else -trade.qty
        self._flows[key] = self._flows.get(key, 0) + signed
        if self.log_trades:
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
        interval = self.settle_interval_ms
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
            batch_id = self._next_batch
            self._next_batch += 1
            self._pending[batch_id] = (key, net, waiters)
            tx_ids.append(
                self.ledger.submit_tx(
                    "transfer",
                    src,
                    {"from": src, "to": dst, "amount": qty},
                    on_receipt=lambda r, b=batch_id: self._on_settled(b, r),
                )
            )
        return tx_ids

    def _on_settled(self, batch_id: int, receipt: Receipt) -> None:
        key, net, waiters = self._pending.pop(batch_id)
        if receipt.accepted:
            now = self.sched.now()
            for cb in waiters:
                cb(now)
            return
        # Halted or momentarily underfunded: fold back for the next batch.
        self._flows[key] = self._flows.get(key, 0) + net
        if waiters:
            self._waiters.setdefault(key, []).extend(waiters)

    def unsettled_qty(self) -> int:
        pending = sum(abs(net) for _, net, _ in self._pending.values())
        return pending + sum(abs(net) for net in self._flows.values())
