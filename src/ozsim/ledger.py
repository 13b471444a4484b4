"""Simulated chain: 1 s blocks, reserve-ceiling mint guard, circuit breaker, parameter store.

Transactions queue at submission and execute in submission order at the next
block boundary.  Validity is judged at execution time; a failed transaction is
included with a Reverted receipt and leaves state untouched.  Confirmation
becomes observable to agents a fixed commit latency after the block executes.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Iterable, Optional

from .sim import Canonical, EventLog, Scheduler, field_text, quote

if TYPE_CHECKING:  # config imports this module
    from .config import Fault, ScenarioConfig

REVERT_RESERVE_CEILING = "Reserve ceiling exceeded"
REVERT_ISSUANCE_PAUSED = "issuance paused"
REVERT_TRADING_HALTED = "trading halted"
REVERT_INSUFFICIENT_BALANCE = "insufficient balance"
REVERT_UNAUTHORIZED = "unauthorized"

BLOCK_PRIORITY = 1

AUDITOR = "auditor-1"  # the one key whose reserve attestations the ledger accepts


class OutOfBounds(Exception):
    """Parameter write outside its registered bounds."""


@dataclass(frozen=True)
class Receipt:
    accepted: bool
    reason: Optional[str] = None


ACCEPTED = Receipt(True)


@dataclass(slots=True)
class Tx:
    tx_id: int
    kind: str  # a key of Ledger.OPERATIONS
    sender: str
    args: tuple  # the operation's positional arguments
    on_receipt: Optional[Callable[[Receipt], None]] = None


# Static bounds for governed parameters.  epsilon_micro_oz is special-cased:
# its upper bound is 0.1% of the attested reserve at write time, which keeps
# governance from voting the reserve check out of existence.
PARAM_BOUNDS: dict[str, tuple[float, float]] = {
    "breaker_swing_threshold": (0.005, 0.10),
    "breaker_window_ms": (60_000, 3_600_000),
    "breaker_cooldown_ms": (60_000, 3_600_000),
}

PARAM_DEFAULTS: dict[str, float | int] = {
    "breaker_swing_threshold": 0.02,
    "breaker_window_ms": 300_000,
    "breaker_cooldown_ms": 300_000,
    "epsilon_micro_oz": 0,
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
    window keeps its running minimum and maximum, which decide the trip.  A
    halt lifts after the cooldown in force when it tripped, or earlier via
    governance.  An issuance freeze is `issuance_paused`, which the risk agent
    sets and clears.
    """

    def __init__(self, sched: Scheduler, log: EventLog, config: ScenarioConfig):
        self.sched = sched
        self.log = log
        self.config = config
        self.params = ParamStore(config.params)
        self._jitter_rng = sched.fork_rng("commit-jitter") if config.commit_jitter_ms else None

        self.balances: dict[str, int] = {}
        self.total_supply = 0
        self.attested_reserve = 0
        self.issuance_paused = False
        self.trading_paused = False
        self.reference_feed = "primary"
        # one {tripped_at, reason[, lifted_at, lift_reason]} row per halt
        self.halts: list[dict] = []
        self.reserve_attested_at = 0  # when the latest attestation was applied
        self.reserve_fault: Optional[Fault] = None  # the misreport that shaped it

        self.height = 0
        self.accepted_tx_count = 0
        self._queue: list[Tx] = []
        self._next_tx_id = 1
        self._price_window = PriceWindow()  # (t_ms, micro-USD) reference posts
        # one-shot listeners for the next lift, in registration order
        self._lift_listeners: list[Callable[[int], None]] = []
        # insertion-ordered, so the concentration sweep does not depend on string hashing
        self._touched: dict[str, None] = {}
        self._supply_changed = False
        self._started = False

    # -- lifecycle -------------------------------------------------------

    def start(self) -> None:
        """Schedule block production; call once after genesis state is set."""
        if self._started:
            return
        self._started = True
        self.sched.every(
            self.sched.now() + self.config.block_interval_ms, self.config.block_interval_ms,
            BLOCK_PRIORITY, "block", self._produce_block,
        )

    def genesis_mint(self, recipient: str, amount: int) -> None:
        """Pre-start allocation, recorded as a height-0 event."""
        self.genesis_allocate([recipient], amount)

    def genesis_allocate(self, recipients: list[str], amount: int) -> None:
        """Pre-start allocation of amount to each recipient in turn: one
        genesis_mint record each, {to, amount, supply after it}, logged as one
        batch."""
        if self._started:
            raise RuntimeError("genesis_mint after start")
        balances, touched = self.balances, self._touched
        supply = self.total_supply
        head = f'{{"amount":{field_text(amount)},"supply":'
        exact = supply.__class__ is int and amount.__class__ is int  # so is every later supply
        texts = []
        for recipient in recipients:
            balances[recipient] = balances.get(recipient, 0) + amount
            touched[recipient] = None
            supply += amount
            # field_text(supply) and field_text(recipient), without the calls
            to = quote(recipient) if recipient.__class__ is str else field_text(recipient)
            texts.append(f'{head}{supply if exact else field_text(supply)},"to":{to}}}')
        if texts:
            self.total_supply = supply
            self._supply_changed = True
            self.log.append_batch(self.sched.now(), "ledger", "genesis_mint", texts)

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
        args: tuple,
        on_receipt: Optional[Callable[[Receipt], None]] = None,
    ) -> int:
        """Queue a tx that applies OPERATIONS[kind] to args at the next block."""
        tx = Tx(self._next_tx_id, kind, sender, args, on_receipt)
        self._next_tx_id += 1
        self._queue.append(tx)
        return tx.tx_id

    # -- block production --------------------------------------------------

    def _produce_block(self) -> None:
        now = self.sched.now()
        self.height += 1
        cap = self.config.max_txs_per_block
        batch = self._queue
        if len(batch) <= cap:
            self._queue = []
        else:
            batch, self._queue = batch[:cap], batch[cap:]
        # Only receipts with a callback get a confirmation event; the rest
        # would fire one that calls nothing.  The commit jitter spreads
        # confirmations symmetrically around the commit latency in 25 ms
        # steps; zero means one delivery per block.  An offset is drawn for
        # every receipt, so the stream does not depend on which txs carry a
        # callback.
        j = self.config.commit_jitter_ms
        jitter = self._jitter_rng
        buckets: dict[int, list] = {}
        rows = []  # the canonical text of each [kind, sender, "ok" or revert reason]
        for tx in batch:
            receipt = self._execute(tx)
            if receipt.accepted:
                self.accepted_tx_count += 1
                status = '"ok"'
            else:
                status = field_text(receipt.reason)
            rows.append(f"[{field_text(tx.kind)},{field_text(tx.sender)},{status}]")
            offset = jitter.randrange(-j, j + 1, 25) if j else 0
            if tx.on_receipt is not None:
                buckets.setdefault(offset, []).append((tx.on_receipt, receipt))
        # canonical_line of {"height", "txs": [row, ...], "supply", "reserve"};
        # the rows, then the joined rows, are freed before the next copy
        txs = ",".join(rows)
        del rows
        detail = Canonical(
            f'{{"height":{field_text(self.height)},"reserve":{field_text(self.attested_reserve)},'
            f'"supply":{field_text(self.total_supply)},"txs":[{txs}]}}'
        )
        del txs
        self.log.append(now, "ledger", "block", detail)
        for offset, group in sorted(buckets.items()):
            self.sched.schedule(
                now + self.config.commit_latency_ms + offset, 2, "confirmations",
                lambda r=group: self._confirm(r),
            )

    @staticmethod
    def _confirm(receipts: list[tuple[Callable[[Receipt], None], Receipt]]) -> None:
        for on_receipt, receipt in receipts:
            on_receipt(receipt)

    # tx kind -> the method its args are applied to, looked up on the
    # instance at execution so that a wrapped method is the one called
    OPERATIONS = {
        "mint": "execute_mint",  # (recipient, amount)
        "burn": "execute_burn",  # (owner, amount)
        "transfer": "execute_transfer",  # (src, dst, amount)
        "post_price": "execute_post_price",  # (feed, price)
        "set_reserve": "set_attested_reserve",  # (amount, auditor, fault)
        "governance": "execute_governance",  # (apply,)
    }

    def _execute(self, tx: Tx) -> Receipt:
        operation = self.OPERATIONS.get(tx.kind)
        if operation is None:
            return Receipt(False, f"unknown tx kind {tx.kind!r}")
        return getattr(self, operation)(*tx.args)

    @staticmethod
    def execute_governance(apply: Callable[[], Receipt]) -> Receipt:
        return apply()

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
        self._touched[recipient] = None
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
        self._touched[owner] = None
        self._supply_changed = True
        return ACCEPTED

    def execute_transfer(self, src: str, dst: str, amount: int) -> Receipt:
        if self.trading_paused:
            return Receipt(False, REVERT_TRADING_HALTED)
        if self.balances.get(src, 0) < amount:
            return Receipt(False, REVERT_INSUFFICIENT_BALANCE)
        self.balances[src] -= amount
        self.balances[dst] = self.balances.get(dst, 0) + amount
        self._touched[src] = None
        self._touched[dst] = None
        return ACCEPTED

    def set_attested_reserve(
        self, amount: int, auditor: str, fault: Optional[Fault] = None
    ) -> Receipt:
        if auditor != AUDITOR:
            return Receipt(False, REVERT_UNAUTHORIZED)
        now = self.sched.now()
        self.attested_reserve = amount
        self.reserve_attested_at = now
        self.reserve_fault = fault
        self.log.append(
            now,
            "ledger",
            "reserve_attested",
            {"amount": amount, "auditor": auditor},
        )
        return ACCEPTED

    def balance(self, addr: str) -> int:
        return self.balances.get(addr, 0)

    def drain_touched(self) -> tuple[dict[str, None], bool]:
        """Addresses whose balances changed since the last drain, in the order
        they first changed, plus a flag for supply changes (used by the risk
        agent's concentration sweep)."""
        touched, self._touched = self._touched, {}
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
        halt = {"tripped_at": now, "reason": reason}
        self.halts.append(halt)
        cooldown = int(self.params.get("breaker_cooldown_ms"))
        self.log.append(
            now,
            "ledger",
            "breaker_tripped",
            {"reason": reason, "source": source, "cooldown_ms": cooldown},
        )

        def lift() -> None:  # this halt's own lift, after the cooldown in force at its trip
            if "lifted_at" not in halt:  # else governance lifted it first
                self._lift(self.sched.now(), "cooldown expired")

        self.sched.schedule(now + cooldown, 0, "breaker_lift", lift)

    def governance_unpause(self, now: int) -> None:
        if self.trading_paused:
            self._lift(now, "governance unpause")

    def _lift(self, now: int, reason: str) -> None:
        self.trading_paused = False
        self._price_window.clear()
        self.halts[-1].update(lifted_at=now, lift_reason=reason)
        self.log.append(now, "ledger", "breaker_lifted", {"reason": reason})
        # A listener registered while these run lands in the new list and so
        # waits for the next lift.
        listeners, self._lift_listeners = self._lift_listeners, []
        for listener in listeners:
            listener(now)

    def once_breaker_lift(self, listener: Callable[[int], None]) -> None:
        """Invoke listener at the next lift only (used for tx retries)."""
        self._lift_listeners.append(listener)

    # -- risk controls ---------------------------------------------------------

    def set_issuance_paused(self, paused: bool, now: int, source: str) -> None:
        if self.issuance_paused == paused:
            return
        self.issuance_paused = paused
        kind = "issuance_frozen" if paused else "issuance_unfrozen"
        self.log.append(now, "ledger", kind, {"source": source})

    def set_reference_feed(self, feed: str, now: int, source: str) -> None:
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
