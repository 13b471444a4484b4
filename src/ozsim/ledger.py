"""Simulated chain: 1 s blocks, reserve-ceiling mint guard, circuit breaker, parameter store.

Transactions queue at submission and execute in submission order at the next
block boundary.  Validity is judged at execution time; a failed transaction is
included with a Reverted receipt and leaves state untouched.  Confirmation
becomes observable to agents a fixed commit latency after the block executes.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Callable, Iterable, Optional

from .sim import EventLog, Scheduler

REVERT_RESERVE_CEILING = "Reserve ceiling exceeded"
REVERT_ISSUANCE_PAUSED = "issuance paused"
REVERT_TRADING_HALTED = "trading halted"
REVERT_INSUFFICIENT_BALANCE = "insufficient balance"
REVERT_UNAUTHORIZED = "unauthorized"

BLOCK_PRIORITY = 1


class OutOfBounds(Exception):
    """Parameter write outside its registered bounds."""


@dataclass(frozen=True)
class Receipt:
    accepted: bool
    reason: Optional[str] = None


ACCEPTED = Receipt(True)


@dataclass
class Tx:
    tx_id: int
    kind: str  # mint | burn | transfer | post_price | set_reserve | governance
    sender: str
    payload: dict
    submitted_at: int
    on_receipt: Optional[Callable[[Receipt], None]] = None


# Static bounds for governed parameters.  epsilon_micro_oz is special-cased:
# its upper bound is 0.1% of the attested reserve at write time, which keeps
# governance from voting the reserve check out of existence.
PARAM_BOUNDS: dict[str, tuple[float, float]] = {
    "breaker_swing_threshold": (0.005, 0.10),
    "breaker_window_ms": (60_000, 3_600_000),
    "breaker_cooldown_ms": (60_000, 3_600_000),
    "fee_rate": (0.0, 0.01),
}

PARAM_DEFAULTS: dict[str, float | int] = {
    "breaker_swing_threshold": 0.02,
    "breaker_window_ms": 300_000,
    "breaker_cooldown_ms": 300_000,
    "epsilon_micro_oz": 0,
    "fee_rate": 0.0,
}


class ParamStore:
    """On-chain parameter storage with bounds enforced on every write."""

    def __init__(self, overrides: Optional[dict] = None):
        self.values: dict[str, float | int] = dict(PARAM_DEFAULTS)
        if overrides:
            for key, value in overrides.items():
                if key not in self.values:
                    raise KeyError(f"unknown ledger parameter {key!r}")
                self.values[key] = value

    def get(self, key: str) -> float | int:
        return self.values[key]

    def bounds(self, key: str, attested_reserve: int) -> tuple[float, float]:
        if key == "epsilon_micro_oz":
            return (0, 0.001 * attested_reserve)
        if key in PARAM_BOUNDS:
            return PARAM_BOUNDS[key]
        raise KeyError(f"unknown ledger parameter {key!r}")

    def set(self, key: str, value: float | int, attested_reserve: int) -> None:
        lo, hi = self.bounds(key, attested_reserve)
        if not (lo <= value <= hi):
            raise OutOfBounds(f"{key}={value} outside [{lo}, {hi}]")
        self.values[key] = value


class PriceWindow:
    """Posted (t_ms, price) samples of a rolling window, with their running
    minimum and maximum price.

    Two monotone deques hold the samples: the minimum deque those that no
    later sample undercuts (prices strictly increasing), the maximum deque
    those that no later sample reaches (prices strictly decreasing).
    Their fronts are the window's extremes and the latest sample is the back
    of both.  Samples must arrive in non-decreasing time order, as block times
    do, so evicting every deque by time drops exactly the samples older than
    the horizon.
    """

    def __init__(self, samples: Iterable[tuple[int, int]] = ()):
        self._lo: deque[tuple[int, int]] = deque()
        self._hi: deque[tuple[int, int]] = deque()
        for t, p in samples:
            self.append(t, p)

    def append(self, t: int, p: int) -> None:
        lo, hi = self._lo, self._hi
        while lo and lo[-1][1] >= p:
            lo.pop()
        lo.append((t, p))
        while hi and hi[-1][1] <= p:
            hi.pop()
        hi.append((t, p))

    def evict_before(self, horizon: int) -> None:
        for q in (self._lo, self._hi):
            while q and q[0][0] < horizon:
                q.popleft()

    def clear(self) -> None:
        self._lo.clear()
        self._hi.clear()

    def __bool__(self) -> bool:
        return bool(self._lo)

    @property
    def latest(self) -> int:
        return self._lo[-1][1]

    @property
    def min(self) -> int:
        return self._lo[0][1]

    @property
    def max(self) -> int:
        return self._hi[0][1]


class Ledger:
    """Token ledger plus the two on-chain safeguards.

    The reserve ceiling check rejects any mint that would push total supply
    above the attested reserve plus the epsilon tolerance.  The circuit
    breaker pauses trading (transfers, mints, burns, and exchange matching)
    when the latest posted reference price differs from any price posted
    inside the rolling window by more than the configured threshold; the
    window keeps its running minimum and maximum, which decide the trip.  The
    halt lifts automatically after the cooldown or earlier via governance.
    """

    def __init__(
        self,
        sched: Scheduler,
        log: EventLog,
        params: Optional[ParamStore] = None,
        block_interval_ms: int = 1000,
        commit_latency_ms: int = 300,
        commit_jitter_ms: int = 0,
        authorized_auditors: Optional[set[str]] = None,
        max_txs_per_block: int = 100_000,
    ):
        self.sched = sched
        self.log = log
        self.params = params or ParamStore()
        self.block_interval_ms = block_interval_ms
        self.commit_latency_ms = commit_latency_ms
        # per-tx confirmation propagation spread, symmetric around the commit
        # latency in 25 ms steps; zero means one delivery per block
        self.commit_jitter_ms = commit_jitter_ms
        self._jitter_rng = sched.fork_rng("commit-jitter") if commit_jitter_ms else None
        self.authorized_auditors = authorized_auditors or set()
        self.max_txs_per_block = max_txs_per_block

        self.balances: dict[str, int] = {}
        self.total_supply = 0
        self.attested_reserve = 0
        self.issuance_paused = False
        self.trading_paused = False
        self.breaker_tripped_at: Optional[int] = None
        self.reference_feed = "primary"
        # one {tripped_at, reason[, lifted_at, lift_reason]} row per halt
        self.halts: list[dict] = []
        # (t, amount) of every applied reserve attestation
        self.reserve_attestations: list[tuple[int, int]] = []

        self.height = 0
        self.accepted_tx_count = 0
        self._queue: list[Tx] = []
        self._next_tx_id = 1
        self._price_window = PriceWindow()  # (t_ms, micro-USD) reference posts
        self._lift_listeners: list[Callable[[int], None]] = []
        self._touched: set[str] = set()
        self._supply_changed = False
        self._started = False

    # -- lifecycle -------------------------------------------------------

    def start(self) -> None:
        """Schedule block production; call once after genesis state is set."""
        if self._started:
            return
        self._started = True
        self.sched.every(
            self.sched.now() + self.block_interval_ms, self.block_interval_ms,
            BLOCK_PRIORITY, "block", self._produce_block,
        )

    def genesis_mint(self, recipient: str, amount: int) -> None:
        """Pre-start allocation, recorded as a height-0 event."""
        if self._started:
            raise RuntimeError("genesis_mint after start")
        self.balances[recipient] = self.balances.get(recipient, 0) + amount
        self.total_supply += amount
        self._touched.add(recipient)
        self._supply_changed = True
        self.log.append(
            self.sched.now(),
            "ledger",
            "genesis_mint",
            {"to": recipient, "amount": amount, "supply": self.total_supply},
        )

    def set_genesis_reserve(self, amount: int) -> None:
        self.attested_reserve = amount
        self.log.append(
            self.sched.now(), "ledger", "genesis_reserve", {"amount": amount}
        )

    # -- submission ------------------------------------------------------

    def submit_tx(
        self,
        kind: str,
        sender: str,
        payload: dict,
        on_receipt: Optional[Callable[[Receipt], None]] = None,
    ) -> int:
        tx = Tx(self._next_tx_id, kind, sender, payload, self.sched.now(), on_receipt)
        self._next_tx_id += 1
        self._queue.append(tx)
        return tx.tx_id

    # -- block production --------------------------------------------------

    def _produce_block(self) -> None:
        now = self.sched.now()
        self.height += 1
        batch = self._queue[: self.max_txs_per_block]
        self._queue = self._queue[self.max_txs_per_block :]
        receipts: list[tuple[Tx, Receipt]] = []
        tx_rows: list[list] = []
        for tx in batch:
            receipt = self._execute(tx)
            receipts.append((tx, receipt))
            tx_rows.append(
                [tx.kind, tx.sender, "ok" if receipt.accepted else receipt.reason]
            )
            if receipt.accepted:
                self.accepted_tx_count += 1
        self.log.append(
            now,
            "ledger",
            "block",
            {
                "height": self.height,
                "txs": tx_rows,
                "supply": self.total_supply,
                "reserve": self.attested_reserve,
            },
        )
        if receipts:
            if self._jitter_rng is None:
                self.sched.schedule(
                    now + self.commit_latency_ms, 2, "confirmations",
                    lambda r=receipts: self._confirm(r),
                )
            else:
                j = self.commit_jitter_ms
                buckets: dict[int, list[tuple[Tx, Receipt]]] = {}
                for item in receipts:
                    offset = self._jitter_rng.randrange(-j, j + 1, 25)
                    buckets.setdefault(offset, []).append(item)
                for offset, group in sorted(buckets.items()):
                    self.sched.schedule(
                        now + self.commit_latency_ms + offset, 2, "confirmations",
                        lambda r=group: self._confirm(r),
                    )

    @staticmethod
    def _confirm(receipts: list[tuple[Tx, Receipt]]) -> None:
        for tx, receipt in receipts:
            if tx.on_receipt is not None:
                tx.on_receipt(receipt)

    def _execute(self, tx: Tx) -> Receipt:
        if tx.kind == "mint":
            return self.execute_mint(tx.payload["to"], tx.payload["amount"])
        if tx.kind == "burn":
            return self.execute_burn(tx.payload["owner"], tx.payload["amount"])
        if tx.kind == "transfer":
            return self.execute_transfer(
                tx.payload["from"], tx.payload["to"], tx.payload["amount"]
            )
        if tx.kind == "post_price":
            return self.execute_post_price(tx.payload["feed"], tx.payload["price"])
        if tx.kind == "set_reserve":
            return self.set_attested_reserve(tx.payload["amount"], tx.sender)
        if tx.kind == "governance":
            return tx.payload["apply"]()
        return Receipt(False, f"unknown tx kind {tx.kind!r}")

    # -- token operations ----------------------------------------------------

    @property
    def epsilon(self) -> int:
        return int(self.params.get("epsilon_micro_oz"))

    def execute_mint(self, recipient: str, amount: int) -> Receipt:
        if self.total_supply + amount > self.attested_reserve + self.epsilon:
            return Receipt(False, REVERT_RESERVE_CEILING)
        if self.issuance_paused:
            return Receipt(False, REVERT_ISSUANCE_PAUSED)
        if self.trading_paused:
            return Receipt(False, REVERT_TRADING_HALTED)
        self.balances[recipient] = self.balances.get(recipient, 0) + amount
        self.total_supply += amount
        self._touched.add(recipient)
        self._supply_changed = True
        return ACCEPTED

    def execute_burn(self, owner: str, amount: int) -> Receipt:
        # Burns stay allowed under an issuance freeze (they reduce exposure)
        # but are blocked with everything else while the breaker is tripped.
        if self.trading_paused:
            return Receipt(False, REVERT_TRADING_HALTED)
        if self.balances.get(owner, 0) < amount:
            return Receipt(False, REVERT_INSUFFICIENT_BALANCE)
        self.balances[owner] -= amount
        self.total_supply -= amount
        self._touched.add(owner)
        self._supply_changed = True
        return ACCEPTED

    def execute_transfer(self, src: str, dst: str, amount: int) -> Receipt:
        if self.trading_paused:
            return Receipt(False, REVERT_TRADING_HALTED)
        if self.balances.get(src, 0) < amount:
            return Receipt(False, REVERT_INSUFFICIENT_BALANCE)
        self.balances[src] -= amount
        self.balances[dst] = self.balances.get(dst, 0) + amount
        self._touched.add(src)
        self._touched.add(dst)
        return ACCEPTED

    def set_attested_reserve(self, amount: int, auditor: str) -> Receipt:
        if auditor not in self.authorized_auditors:
            return Receipt(False, REVERT_UNAUTHORIZED)
        now = self.sched.now()
        self.attested_reserve = amount
        self.reserve_attestations.append((now, amount))
        self.log.append(
            now,
            "ledger",
            "reserve_attested",
            {"amount": amount, "auditor": auditor},
        )
        return ACCEPTED

    def balance(self, addr: str) -> int:
        return self.balances.get(addr, 0)

    def drain_touched(self) -> tuple[set[str], bool]:
        """Addresses whose balances changed since the last drain, plus a flag
        for supply changes (used by the risk agent's concentration sweep)."""
        touched, self._touched = self._touched, set()
        changed, self._supply_changed = self._supply_changed, False
        return touched, changed

    # -- circuit breaker -----------------------------------------------------

    def execute_post_price(self, feed: str, price: int) -> Receipt:
        if feed == self.reference_feed:
            now = self.sched.now()
            self._price_window.append(now, price)
            self.evaluate_breaker(self._price_window, now)
        return ACCEPTED

    def evaluate_breaker(self, window: PriceWindow, now: int) -> bool:
        """Trip decision over posted samples in [now - window_ms, now].

        Returns True (and engages the halt) when any sample p differs from the
        latest price p_now by more than the swing threshold, i.e.
        abs(p_now / p - 1.0) > threshold.  Evaluation is skipped while already
        tripped; the window restarts after a lift so a resolved swing does not
        immediately re-trip.

        Only the window's minimum and maximum are compared, with the same
        decision as a scan of every sample: for positive prices the correctly
        rounded quotient p_now / p is monotone non-increasing in p, and
        subtracting 1.0 is monotone, so p_now / p - 1.0 is largest at the
        minimum price and smallest at the maximum.  If any sample exceeds the
        threshold above (below) zero, the minimum (maximum) does too.
        """
        window.evict_before(now - int(self.params.get("breaker_window_ms")))
        if self.trading_paused or not window:
            return False
        p_now = window.latest
        threshold = self.params.get("breaker_swing_threshold")
        if (abs(p_now / window.min - 1.0) > threshold
                or abs(p_now / window.max - 1.0) > threshold):
            self.trip_breaker(now, "price swing", source="contract")
            return True
        return False

    def trip_breaker(self, now: int, reason: str, source: str = "risk") -> None:
        if self.trading_paused:
            return
        self.trading_paused = True
        self.breaker_tripped_at = now
        self.halts.append({"tripped_at": now, "reason": reason})
        cooldown = int(self.params.get("breaker_cooldown_ms"))
        self.log.append(
            now,
            "ledger",
            "breaker_tripped",
            {"reason": reason, "source": source, "cooldown_ms": cooldown},
        )
        self.sched.schedule(
            now + cooldown, 0, "breaker_lift", lambda: self.breaker_auto_lift(self.sched.now())
        )

    def breaker_auto_lift(self, now: int) -> bool:
        if not self.trading_paused or self.breaker_tripped_at is None:
            return False
        if now - self.breaker_tripped_at < int(self.params.get("breaker_cooldown_ms")):
            return False
        self._lift(now, "cooldown expired")
        return True

    def governance_unpause(self, now: int) -> None:
        if self.trading_paused:
            self._lift(now, "governance unpause")

    def _lift(self, now: int, reason: str) -> None:
        self.trading_paused = False
        self.breaker_tripped_at = None
        self._price_window.clear()
        if self.halts and "lifted_at" not in self.halts[-1]:
            self.halts[-1].update(lifted_at=now, lift_reason=reason)
        self.log.append(now, "ledger", "breaker_lifted", {"reason": reason})
        for listener in list(self._lift_listeners):
            listener(now)

    def on_breaker_lift(self, listener: Callable[[int], None]) -> None:
        self._lift_listeners.append(listener)

    def once_breaker_lift(self, listener: Callable[[int], None]) -> None:
        """Invoke listener at the next lift only (used for tx retries)."""

        def wrapper(now: int) -> None:
            self._lift_listeners.remove(wrapper)
            listener(now)

        self._lift_listeners.append(wrapper)

    # -- risk controls ---------------------------------------------------------

    def set_issuance_paused(self, paused: bool, now: int, source: str) -> None:
        if self.issuance_paused == paused:
            return
        self.issuance_paused = paused
        kind = "issuance_frozen" if paused else "issuance_unfrozen"
        self.log.append(now, "ledger", kind, {"source": source})

    def set_reference_feed(self, feed: str, now: int, source: str) -> None:
        if feed == self.reference_feed:
            return
        self.reference_feed = feed
        self._price_window.clear()
        self.log.append(now, "ledger", "reference_feed", {"feed": feed, "source": source})

    def set_param(self, key: str, value: float | int, now: int, source: str) -> None:
        self.params.set(key, value, self.attested_reserve)
        self.log.append(
            now, "ledger", "param_set", {"key": key, "value": value, "source": source}
        )

    def snapshot(self) -> dict:
        return {
            "supply": self.total_supply,
            "reserve": self.attested_reserve,
            "epsilon": self.epsilon,
            "issuance_paused": self.issuance_paused,
            "trading_paused": self.trading_paused,
            "height": self.height,
            "params": dict(self.params.values),
        }
