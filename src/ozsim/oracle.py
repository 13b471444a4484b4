"""Two price feeds over a synthetic gold-price process, plus fault injectors.

The true price follows a geometric random walk with a piecewise-constant
volatility schedule.  The primary feed publishes the true price; the secondary
adds small independent observation noise.  Faults make a feed stop updating
(stuck) or report with a multiplicative offset (spoofed); while faults on one
feed overlap, the one injected last acts.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, NamedTuple, Optional

from .sim import EventLog, RngStream, Scheduler
from .units import to_micro

if TYPE_CHECKING:  # config imports this module
    from .config import Fault, PriceSpec, ScenarioConfig
    from .ledger import Ledger

PRIMARY = "primary"
SECONDARY = "secondary"
STEP_MS = 1000  # one price step a second: drift_per_s and sigma_per_s are per step


class UnknownFeed(Exception):
    pass


class PriceSample(NamedTuple):
    price: int  # micro-USD per OZ
    t: int


@dataclass
class FeedState:
    last: PriceSample
    faults: list[Fault] = field(default_factory=list)  # the active ones; the last acts
    last_fault: Optional[Fault] = None  # the one acting at the latest publish attempt


@dataclass(frozen=True)
class Regime:
    start_ms: int = 0
    sigma_per_s: float = 0.0


class PriceProcess:
    """Geometric random walk stepped once per simulated second."""

    def __init__(self, spec: PriceSpec, rng: RngStream):
        self.rng = rng
        self.drift = spec.drift_per_s
        # an empty schedule is one zero-volatility regime
        self.regimes = sorted(spec.regimes or [Regime()], key=lambda r: r.start_ms)
        self._starts = [r.start_ms for r in self.regimes]
        self._log_price = math.log(spec.initial_usd_per_oz)
        self.price = to_micro(spec.initial_usd_per_oz)

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
        config: ScenarioConfig,
        ledger: Ledger,  # where prices are posted and the reference is kept
    ):
        self.sched = sched
        self.log = log
        self.process = process = PriceProcess(config.price, sched.fork_rng("price"))
        self.noise_rng = sched.fork_rng("secondary-noise")
        self.secondary_noise_frac = config.secondary_noise_frac
        self.ledger = ledger
        now = sched.now()
        p = process.price
        self.feeds: dict[str, FeedState] = {
            PRIMARY: FeedState(PriceSample(p, now)),
            SECONDARY: FeedState(PriceSample(p, now)),
        }
        self.true_price = p

    def start(self) -> None:
        self.sched.every(
            self.sched.now() + STEP_MS, STEP_MS, 2, "oracle_step",
            lambda: self.step(self.sched.now()),
        )

    def step(self, now: int) -> None:
        self.true_price = self.process.step(now)
        for feed in (PRIMARY, SECONDARY):
            self._publish(feed, now)

    def _publish(self, feed: str, now: int) -> None:
        state = self.feeds[feed]
        fault = state.last_fault = state.faults[-1] if state.faults else None
        if fault is not None and fault.spec.kind == "stuck":
            return  # last sample frozen, nothing posted
        price = self.true_price
        if feed == SECONDARY and self.secondary_noise_frac > 0:
            price = round(price * (1.0 + self.noise_rng.gauss(0.0, self.secondary_noise_frac)))
        if fault is not None and fault.spec.kind == "spoofed":
            price = round(price * (1.0 + fault.spec.magnitude))
        state.last = PriceSample(price, now)
        self.ledger.submit_tx("post_price", feed, (feed, price))

    # -- observation ----------------------------------------------------------

    def reference_price(self) -> int:
        """Latest price reported by the ledger's reference feed."""
        return self.feeds[self.ledger.reference_feed].last.price

    def detect(self, now: int, staleness_threshold_ms: int, divergence_threshold: float) -> Optional[str]:
        return detect_divergence(
            self.feeds[PRIMARY],
            self.feeds[SECONDARY],
            now,
            staleness_threshold_ms,
            divergence_threshold,
        )

    def switch_reference(self, feed: str, now: int, source: str) -> None:
        if feed == self.ledger.reference_feed:
            return
        self.log.append(now, "oracle", "feed_switch", {"active": feed})
        self.ledger.set_reference_feed(feed, now, source)

    # -- fault injection ---------------------------------------------------

    def inject_fault(self, fault: Fault, now: int) -> None:
        spec = fault.spec
        if spec.feed not in self.feeds:
            raise UnknownFeed(spec.feed)
        self.feeds[spec.feed].faults.append(fault)
        self.log.append(
            now, "oracle", "fault_injected",
            {"feed": spec.feed, "kind": spec.kind, "offset": spec.magnitude},
        )

    def restore(self, fault: Fault, now: int) -> None:
        self.feeds[fault.spec.feed].faults.remove(fault)
        self.log.append(now, "oracle", "fault_restored", {"feed": fault.spec.feed})
