"""Market-making agent: volatility-scaled ladder quoting and inventory control.

Every second the agent reprices a four-level ladder around the reference feed.
The half-spread widens linearly with realized one-minute volatility between a
0.1% floor and a 0.5% cap, so the quoted spread sits at 0.2% in calm markets
and never exceeds 1%.  Ladder levels sit at fixed offsets from the anchor but
never inside the current half-spread; levels pushed together share a price.
Inventory skews the anchor and, at the hard limit, suppresses the side whose
fill would breach it.  Crossing the rebalance threshold moves excess tokens to
cold storage (long) or recalls/mints stock (short).
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass
from itertools import pairwise, repeat
from operator import mul
from typing import Optional

from ..exchange import ASK, BID, Exchange, Trade
from ..ledger import Ledger, Receipt
from ..sim import EventLog, Scheduler
from ..units import MICRO, to_micro


def _exact_stdev(xs: list[float]) -> float:
    """Sample standard deviation of finite floats, equal bit for bit to
    `statistics.stdev` of Python 3.11 and later (the first to round it
    correctly).

    Every float is m/d with d a power of two, so scaling all of them by
    2**shift, with shift set by the smallest nonzero magnitude, gives exact
    integers v.  Their sums make the variance exactly
    (n*sum(v*v) - sum(v)**2) / (n*(n-1) * 4**shift), the rational that
    `statistics.stdev` builds from Fractions.  Its square root is rounded once,
    correctly: an integer square root of at least 55 significant bits, made
    odd when inexact (round-to-odd, as in CPython's statistics module), loses
    nothing to the final rounding to a float.  A correctly rounded result is
    unique, so the two agree.  NaN and infinities have no integer value and
    raise.
    """
    tiny = min(filter(None, map(abs, xs)), default=0.0)
    shift = 53 - math.frexp(tiny)[1]
    try:  # C-level scaling; 10% off day-24h wall time against the fallback alone
        vs = list(map(int, map(math.ldexp, xs, repeat(shift))))
    except OverflowError:  # magnitudes more than 2**971 apart do not fit one float
        vs = [m << (shift + 1 - d.bit_length()) for m, d in map(float.as_integer_ratio, xs)]
    n = len(vs)
    sx = sum(vs)
    num = n * sum(map(mul, vs, vs)) - sx * sx
    den = n * (n - 1)
    # sqrt(num/den) = a * 2**q with a an integer of 55 or more bits
    q = (num.bit_length() - den.bit_length() - 109) // 2
    if q >= 0:
        den <<= 2 * q
    else:
        num <<= -2 * q
    a = math.isqrt(num // den)
    a |= a * a * den != num
    e = q - shift
    return float(a << e) if e >= 0 else a / (1 << -e)


@dataclass
class MMConfig:
    base_half_spread: float = 0.001
    vol_coeff: float = 4.0
    half_spread_cap: float = 0.005
    ladder_offsets: tuple[float, ...] = (0.0010, 0.0030, 0.0060, 0.0095)
    level_qty_oz: float = 60.0
    inv_limit_oz: float = 100.0
    rebalance_threshold_oz: float = 50.0
    skew_coeff: float = 0.001
    vol_window_s: int = 60
    address: str = "mm"
    cold_address: str = "mm-cold"


class MarketMakerAgent:
    def __init__(
        self,
        sched: Scheduler,
        log: EventLog,
        ledger: Ledger,
        exchange: Exchange,
        oracle,
        issuance=None,  # used to mint restock when cold storage runs dry
        config: Optional[MMConfig] = None,
        baseline_oz: float = 300.0,
    ):
        self.sched = sched
        self.log = log
        self.ledger = ledger
        self.exchange = exchange
        self.oracle = oracle
        self.issuance = issuance
        self.config = config or MMConfig()
        self.baseline = to_micro(baseline_oz)
        self.inventory = 0  # micro-OZ relative to the neutral baseline
        self.current_half_spread = self.config.base_half_spread
        self._mid_history: deque[float] = deque(maxlen=self.config.vol_window_s + 1)
        self._live_orders: list[int] = []
        self._rebalance_pending = False
        self.rebalance_events: list[tuple[int, int]] = []  # (t, inventory before)
        exchange.on_trade(self._on_trade)

    # -- inventory tracking -------------------------------------------------------

    def _on_trade(self, trade: Trade) -> None:
        cfg = self.config
        if trade.maker_owner == cfg.address:
            self.inventory += trade.qty if trade.taker_side == ASK else -trade.qty
        elif trade.taker_owner == cfg.address:
            self.inventory += trade.qty if trade.taker_side == BID else -trade.qty

    @property
    def holdings(self) -> int:
        return self.baseline + self.inventory

    # -- volatility estimate ------------------------------------------------------

    def realized_sigma(self) -> float:
        """Sample standard deviation of the one-second log returns of the
        reference mid over the volatility window, computed exactly."""
        prices = self._mid_history
        if len(prices) < 3:
            return 0.0
        returns = [math.log(b / a) for a, b in pairwise(prices) if a > 0 and b > 0]
        if len(returns) < 2:
            return 0.0
        return _exact_stdev(returns)

    def half_spread(self, sigma: float) -> float:
        cfg = self.config
        return min(max(cfg.base_half_spread + cfg.vol_coeff * sigma, cfg.base_half_spread),
                   cfg.half_spread_cap)

    # -- quoting ------------------------------------------------------------------

    def start(self, interval_ms: int = 1000) -> None:
        self.sched.every(
            interval_ms, interval_ms, 3, "mm_quote", lambda: self.quote_cycle(self.sched.now())
        )

    def quote_cycle(self, now: int) -> None:
        ref = self.oracle.reference_price()
        self._mid_history.append(ref / MICRO)
        if self.ledger.trading_paused:
            return  # book is frozen with the halt; skip the cycle
        self.maybe_rebalance(now)
        sigma = self.realized_sigma()
        h = self.half_spread(sigma)
        self.current_half_spread = h
        cfg = self.config
        anchor = ref * (1.0 - cfg.skew_coeff * self.inventory / to_micro(cfg.inv_limit_oz))

        for order_id in self._live_orders:
            self.exchange.cancel(order_id)
        self._live_orders.clear()

        level_qty = to_micro(cfg.level_qty_oz)
        inv_limit = to_micro(cfg.inv_limit_oz)
        quote_bids = self.inventory < inv_limit
        quote_asks = self.inventory > -inv_limit
        # Levels sit at their configured offsets but never inside the current
        # half-spread; colliding levels merge at the same price.
        ask_budget = self.holdings  # never quote more than the agent holds
        for offset in cfg.ladder_offsets:
            distance = max(h, offset)
            if quote_bids:
                price = round(anchor * (1.0 - distance))
                _, order_id = self.exchange.place(cfg.address, BID, level_qty, price)
                if order_id is not None:
                    self._live_orders.append(order_id)
            if quote_asks and ask_budget >= level_qty:
                price = round(anchor * (1.0 + distance))
                _, order_id = self.exchange.place(cfg.address, ASK, level_qty, price)
                if order_id is not None:
                    self._live_orders.append(order_id)
                ask_budget -= level_qty

    # -- rebalancing -------------------------------------------------------------

    def maybe_rebalance(self, now: int) -> None:
        cfg = self.config
        threshold = to_micro(cfg.rebalance_threshold_oz)
        if self._rebalance_pending or abs(self.inventory) < threshold:
            return
        self.rebalance_events.append((now, self.inventory))
        if self.inventory > 0:
            self._push_to_cold(self.inventory, now)
        else:
            self._restock(-self.inventory, now)

    def _push_to_cold(self, amount: int, now: int) -> None:
        cfg = self.config
        self._rebalance_pending = True
        self.inventory -= amount

        def on_receipt(receipt: Receipt) -> None:
            self._rebalance_pending = False
            if not receipt.accepted:
                self.inventory += amount  # transfer bounced; restore the book-keeping
            else:
                self.log.append(
                    self.sched.now(), "mm", "rebalance",
                    {"direction": "to_cold", "amount": amount},
                )

        self.ledger.submit_tx(
            "transfer", cfg.address,
            {"from": cfg.address, "to": cfg.cold_address, "amount": amount},
            on_receipt=on_receipt,
        )

    def _restock(self, amount: int, now: int) -> None:
        cfg = self.config
        from_cold = min(amount, self.ledger.balance(cfg.cold_address))
        minted = amount - from_cold
        self._rebalance_pending = True
        self.inventory += amount

        outstanding = {"n": (1 if from_cold else 0) + (1 if minted else 0)}

        def finish(ok: bool, qty: int) -> None:
            if not ok:
                self.inventory -= qty
            outstanding["n"] -= 1
            if outstanding["n"] == 0:
                self._rebalance_pending = False
                self.log.append(
                    self.sched.now(), "mm", "rebalance",
                    {"direction": "restock", "amount": amount},
                )

        if from_cold:
            self.ledger.submit_tx(
                "transfer", cfg.cold_address,
                {"from": cfg.cold_address, "to": cfg.address, "amount": from_cold},
                on_receipt=lambda r: finish(r.accepted, from_cold),
            )
        if minted:
            if self.issuance is not None:
                self.issuance.process_issue(
                    cfg.address, minted, lambda res: finish(res.ok, minted)
                )
            else:
                self.ledger.submit_tx(
                    "mint", "issuance", {"to": cfg.address, "amount": minted},
                    on_receipt=lambda r: finish(r.accepted, minted),
                )
        if outstanding["n"] == 0:
            self._rebalance_pending = False
