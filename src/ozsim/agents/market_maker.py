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

from ..config import MMSpec
from ..exchange import ASK, BID, Exchange, Trade
from ..ledger import Ledger, Receipt
from ..sim import EventLog, Scheduler
from ..units import MICRO, to_micro
from .issuance import COMPLETED, ISSUE, IssuanceAgent, Workflow

MM_ADDRESS = "mm"
COLD_ADDRESS = "mm-cold"
QUOTE_MS = 1000  # one quote cycle a second: vol_window_s counts cycles


def _stdev_from_sums(n: int, sx: int, sxx: int, shift: int) -> float:
    """Sample standard deviation of n >= 2 values v / 2**shift, given the
    integers sx = sum(v) and sxx = sum(v*v).

    The variance is exactly (n*sxx - sx**2) / (n*(n-1) * 4**shift), the
    rational that `statistics.stdev` builds from Fractions.  Its square root is
    rounded once, correctly: an integer square root of at least 55 significant
    bits, made odd when inexact (round-to-odd, as in CPython's statistics
    module), loses nothing to the final rounding to a float.  A correctly
    rounded result is unique, so the two agree.
    """
    num = n * sxx - sx * sx
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


class MarketMakerAgent:
    def __init__(
        self,
        sched: Scheduler,
        log: EventLog,
        ledger: Ledger,
        exchange: Exchange,
        oracle,
        issuance: IssuanceAgent,  # mints restock when cold storage runs dry
        config: MMSpec,
    ):
        self.sched = sched
        self.log = log
        self.ledger = ledger
        self.exchange = exchange
        self.oracle = oracle
        self.issuance = issuance
        self.config = config
        self.baseline = to_micro(config.baseline_oz)
        self.level_qty = to_micro(config.level_qty_oz)
        self.inv_limit = to_micro(config.inv_limit_oz)
        self.rebalance_threshold = to_micro(config.rebalance_threshold_oz)
        self.inventory = 0  # micro-OZ relative to the neutral baseline
        self.current_half_spread = self.config.base_half_spread
        # Volatility window: the last vol_window_s one-second log returns, each
        # exactly as (m, k) for m / 2**k, None for a pair holding a nonpositive
        # mid.  The exact sums sit at the smallest scale 2**_shift that holds
        # every return the window has held.  A log return of positive floats is
        # 0 or at least 2**-53 in magnitude, so the scale stays at 105 bits or
        # less, where 1074 would hold any float.
        self._last_mid: float | None = None
        self._returns: deque[tuple[int, int] | None] = deque(maxlen=self.config.vol_window_s)
        self._shift = 0
        self._n = 0  # returns in the window that are not None
        self._sv = 0  # the sum of their m << (_shift - k)
        self._svv = 0  # the sum of the squares of those
        self._live_orders: list[int] = []
        self._rebalance_pending = False
        self.rebalance_events: list[tuple[int, int]] = []  # (t, inventory before)
        exchange.on_trade(self._on_trade)

    # -- inventory tracking -------------------------------------------------------

    def _on_trade(self, trade: Trade) -> None:
        if trade.maker_owner == MM_ADDRESS:
            self.inventory += trade.qty if trade.taker_side == ASK else -trade.qty
        elif trade.taker_owner == MM_ADDRESS:
            self.inventory += trade.qty if trade.taker_side == BID else -trade.qty

    @property
    def holdings(self) -> int:
        return self.baseline + self.inventory

    # -- volatility estimate ------------------------------------------------------

    def observe_mid(self, mid: float) -> None:
        """Add one reference mid to the volatility window, evicting the oldest
        return once the window holds vol_window_s of them."""
        prev, self._last_mid = self._last_mid, mid
        if prev is None:
            return
        returns = self._returns
        if len(returns) == returns.maxlen:
            old = returns.popleft()
            if old is not None:
                m, k = old
                v = m << (self._shift - k)
                self._n -= 1
                self._sv -= v
                self._svv -= v * v
        if prev > 0 and mid > 0:
            m, d = math.log(mid / prev).as_integer_ratio()  # d is a power of two
            k = d.bit_length() - 1
            shift = self._shift
            if k > shift:  # rescale the sums to hold the new return exactly
                self._sv <<= k - shift
                self._svv <<= 2 * (k - shift)
                self._shift = shift = k
            v = m << (shift - k)
            returns.append((m, k))
            self._n += 1
            self._sv += v
            self._svv += v * v
        else:
            returns.append(None)

    def realized_sigma(self) -> float:
        """Sample standard deviation of the one-second log returns of the
        reference mid over the volatility window, computed exactly."""
        if self._n < 2:
            return 0.0
        return _stdev_from_sums(self._n, self._sv, self._svv, self._shift)

    def half_spread(self, sigma: float) -> float:
        cfg = self.config
        return min(max(cfg.base_half_spread + cfg.vol_coeff * sigma, cfg.base_half_spread),
                   cfg.half_spread_cap)

    # -- quoting ------------------------------------------------------------------

    def start(self) -> None:
        self.sched.every(QUOTE_MS, QUOTE_MS, 3, "mm_quote",
                         lambda: self.quote_cycle(self.sched.now()))

    def quote_cycle(self, now: int) -> None:
        ref = self.oracle.reference_price()
        self.observe_mid(ref / MICRO)
        if self.ledger.trading_paused:
            return  # book is frozen with the halt; skip the cycle
        self.maybe_rebalance(now)
        sigma = self.realized_sigma()
        h = self.half_spread(sigma)
        self.current_half_spread = h
        cfg = self.config
        level_qty, inv_limit = self.level_qty, self.inv_limit
        anchor = ref * (1.0 - cfg.skew_coeff * self.inventory / inv_limit)
        quote_bids = self.inventory < inv_limit
        quote_asks = self.inventory > -inv_limit
        # Levels sit at their configured offsets but never inside the current
        # half-spread; colliding levels merge at the same price.
        ask_budget = self.holdings  # never quote more than the agent holds
        quotes: list[tuple[str, int, int]] = []
        for offset in cfg.ladder_offsets:
            distance = offset if offset > h else h  # max(h, offset), without a call
            if quote_bids:
                quotes.append((BID, level_qty, round(anchor * (1.0 - distance))))
            if quote_asks and ask_budget >= level_qty:
                quotes.append((ASK, level_qty, round(anchor * (1.0 + distance))))
                ask_budget -= level_qty
        self._live_orders = self.exchange.requote(MM_ADDRESS, self._live_orders, quotes)

    # -- rebalancing -------------------------------------------------------------

    def maybe_rebalance(self, now: int) -> None:
        if self._rebalance_pending or abs(self.inventory) < self.rebalance_threshold:
            return
        self.rebalance_events.append((now, self.inventory))
        if self.inventory > 0:
            self._push_to_cold(self.inventory, now)
        else:
            self._restock(-self.inventory, now)

    def _push_to_cold(self, amount: int, now: int) -> None:
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
            "transfer", MM_ADDRESS, (MM_ADDRESS, COLD_ADDRESS, amount), on_receipt=on_receipt
        )

    def _restock(self, amount: int, now: int) -> None:
        restock = _Restock(self, amount, min(amount, self.ledger.balance(COLD_ADDRESS)))
        self._rebalance_pending = restock.outstanding > 0
        self.inventory += amount
        if restock.recalled:
            self.ledger.submit_tx(
                "transfer", COLD_ADDRESS, (COLD_ADDRESS, MM_ADDRESS, restock.recalled),
                on_receipt=restock,
            )
        if restock.amount:
            self.issuance.process_issue(restock)


class _Restock(Workflow):
    """One restock, recalled from cold storage, minted, or both: the recall's
    receipt callback and the mint's issuance workflow.  A part that fails
    takes its quantity back off the inventory; the last to land ends it."""

    __slots__ = ("mm", "recalled", "outstanding")

    def __init__(self, mm: MarketMakerAgent, amount: int, recalled: int):
        super().__init__(ISSUE, MM_ADDRESS, amount - recalled)  # the minted part
        self.mm = mm
        self.recalled = recalled
        self.outstanding = (recalled > 0) + (amount > recalled)

    def __call__(self, receipt: Receipt) -> None:
        self._landed(receipt.accepted, self.recalled)

    def complete(self, status: str) -> None:
        self._landed(status == COMPLETED, self.amount)

    def _landed(self, ok: bool, qty: int) -> None:
        mm = self.mm
        if not ok:
            mm.inventory -= qty
        self.outstanding -= 1
        if self.outstanding == 0:
            mm._rebalance_pending = False
            mm.log.append(
                mm.sched.now(), "mm", "rebalance",
                {"direction": "restock", "amount": self.recalled + self.amount},
            )
