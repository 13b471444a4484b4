"""Two price feeds over a synthetic gold-price process, plus fault injectors.

The true price follows a geometric random walk with a piecewise-constant
volatility schedule.  The primary feed publishes the true price; the secondary
adds small independent observation noise.  Faults make a feed stop updating
(stuck) or report with a multiplicative offset (spoofed).
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass
from typing import Optional

from .sim import EventLog, RngStream, Scheduler
from .units import to_micro

PRIMARY = "primary"
SECONDARY = "secondary"


class UnknownFeed(Exception):
    pass


@dataclass(frozen=True)
class PriceSample:
    feed: str
    price: int  # micro-USD per OZ
    t: int


@dataclass
class Fault:
    kind: str  # "stuck" | "spoofed"
    since: int
    offset_fraction: float = 0.0


@dataclass
class FeedState:
    feed: str
    last: PriceSample
    fault: Optional[Fault] = None


@dataclass(frozen=True)
class Regime:
    start_ms: int
    sigma_per_s: float


class PriceProcess:
    """Geometric random walk stepped once per simulated second."""

    def __init__(
        self,
        initial_price_usd: float,
        rng: RngStream,
        drift_per_s: float = 0.0,
        regimes: Optional[list[Regime]] = None,
    ):
        self.rng = rng
        self.drift = drift_per_s
        self.regimes = sorted(regimes or [Regime(0, 0.0)], key=lambda r: r.start_ms)
        self._starts = [r.start_ms for r in self.regimes]
        self._log_price = math.log(initial_price_usd)
        self.price = to_micro(initial_price_usd)

    def sigma_at(self, now: int) -> float:
        idx = bisect_right(self._starts, now) - 1
        return self.regimes[max(idx, 0)].sigma_per_s

    def step(self, now: int) -> int:
        sigma = self.sigma_at(now)
        self._log_price += self.drift + sigma * self.rng.gauss(0.0, 1.0)
        self.price = to_micro(math.exp(self._log_price))
        return self.price


def detect_divergence(
    primary: FeedState,
    secondary: FeedState,
    now: int,
    staleness_threshold_ms: int = 10_000,
    divergence_threshold: float = 0.005,
) -> Optional[str]:
    """Returns "stale", "diverged", or None.  Staleness wins when both hold."""
    if now - primary.last.t >= staleness_threshold_ms:
        return "stale"
    if abs(primary.last.price / secondary.last.price - 1.0) > divergence_threshold:
        return "diverged"
    return None


class OracleHub:
    """Owns both feeds, publishes once per second, and posts prices on-chain."""

    def __init__(
        self,
        sched: Scheduler,
        log: EventLog,
        process: PriceProcess,
        noise_rng: RngStream,
        secondary_noise_frac: float = 0.0002,
        post_price=None,  # callable(feed, price) submitting the on-chain tx
    ):
        self.sched = sched
        self.log = log
        self.process = process
        self.noise_rng = noise_rng
        self.secondary_noise_frac = secondary_noise_frac
        self.post_price = post_price
        now = sched.now()
        p = process.price
        self.feeds: dict[str, FeedState] = {
            PRIMARY: FeedState(PRIMARY, PriceSample(PRIMARY, p, now)),
            SECONDARY: FeedState(SECONDARY, PriceSample(SECONDARY, p, now)),
        }
        self.active_feed = PRIMARY
        self.true_price = p

    def start(self, interval_ms: int = 1000) -> None:
        self.sched.every(
            self.sched.now() + interval_ms, interval_ms, 2, "oracle_step",
            lambda: self.step(self.sched.now()),
        )

    def step(self, now: int) -> None:
        self.true_price = self.process.step(now)
        for feed in (PRIMARY, SECONDARY):
            self._publish(feed, now)

    def _publish(self, feed: str, now: int) -> None:
        state = self.feeds[feed]
        fault = state.fault
        if fault is not None and fault.kind == "stuck":
            return  # last sample frozen, nothing posted
        price = self.true_price
        if feed == SECONDARY and self.secondary_noise_frac > 0:
            price = round(price * (1.0 + self.noise_rng.gauss(0.0, self.secondary_noise_frac)))
        if fault is not None and fault.kind == "spoofed":
            price = round(price * (1.0 + fault.offset_fraction))
        state.last = PriceSample(feed, price, now)
        if self.post_price is not None:
            self.post_price(feed, price)

    # -- observation ----------------------------------------------------------

    def reference_price(self) -> int:
        """Latest price reported by the active feed."""
        return self.feeds[self.active_feed].last.price

    def detect(self, now: int, staleness_threshold_ms: int, divergence_threshold: float) -> Optional[str]:
        return detect_divergence(
            self.feeds[PRIMARY],
            self.feeds[SECONDARY],
            now,
            staleness_threshold_ms,
            divergence_threshold,
        )

    def switch_active(self, feed: str, now: int) -> None:
        if feed not in self.feeds:
            raise UnknownFeed(feed)
        if feed == self.active_feed:
            return
        self.active_feed = feed
        self.log.append(now, "oracle", "feed_switch", {"active": feed})

    # -- fault injection ---------------------------------------------------

    def inject_fault(self, feed: str, kind: str, now: int, offset_fraction: float = 0.0) -> None:
        if feed not in self.feeds:
            raise UnknownFeed(feed)
        self.feeds[feed].fault = Fault(kind, now, offset_fraction)
        self.log.append(
            now, "oracle", "fault_injected",
            {"feed": feed, "kind": kind, "offset": offset_fraction},
        )

    def restore(self, feed: str, now: int) -> None:
        if feed not in self.feeds:
            raise UnknownFeed(feed)
        self.feeds[feed].fault = None
        self.log.append(now, "oracle", "fault_restored", {"feed": feed})
