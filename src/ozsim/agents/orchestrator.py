"""Workflow orchestration: routes user actions through the agent pipeline.

Every user action passes the compliance gate (onboarding), then the risk
monitor's admission gate, then the type-specific pipeline: orders get a
pre-trade screening delay before hitting the book, issuance and redemption go
to the issuance agent.  Completion, status, and end-to-end latency of every
workflow are reported to a single callback for metrics and closed-loop load.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, NamedTuple, Optional

from ..exchange import ASK, BID, Exchange, NotOnboarded, TradingHalted
from ..ledger import Ledger
from ..sim import EventLog, RngStream, Scheduler
from .compliance import APPROVED, ComplianceAgent, ComplianceDecision, MANUAL_REVIEW, UserProfile
from .issuance import IssuanceAgent, WorkflowResult
from .risk import RiskAgent

ONBOARD = "onboard"
BUY = "buy"
SELL = "sell"
ISSUE = "issue"
REDEEM = "redeem"

COMPLETED = "completed"
UNFILLED = "unfilled"
NOT_ONBOARDED = "not_onboarded"
TRADING_HALTED = "trading_halted"
INSUFFICIENT_HOLDINGS = "insufficient_holdings"


@dataclass
class UserState:
    profile: UserProfile
    approved: bool = False
    decision: Optional[ComplianceDecision] = None
    holdings: int = 0  # micro-OZ economic position, fills included


class WorkflowReport(NamedTuple):
    kind: str
    user: str
    status: str
    requested_at: int
    finished_at: int
    agent_ms: int = 0
    chain_ms: int = 0

    @property
    def latency_ms(self) -> int:
        return self.finished_at - self.requested_at

    @property
    def ok(self) -> bool:
        return self.status == COMPLETED


class Orchestrator:
    def __init__(
        self,
        sched: Scheduler,
        log: EventLog,
        ledger: Ledger,
        exchange: Exchange,
        compliance: ComplianceAgent,
        issuance: IssuanceAgent,
        risk: RiskAgent,
        rng: RngStream,
        oracle=None,
        pre_trade_mean_ms: float = 275.0,
        pre_trade_sigma_ms: float = 50.0,
        pre_trade_min_ms: int = 50,
        order_style: str = "market",  # market | mixed (limit flow around mid)
        order_expiry_ms: int = 5000,
        limit_offset_bps: tuple[float, float] = (-10.0, 20.0),
        on_report: Optional[Callable[[WorkflowReport], None]] = None,
        log_workflows: bool = False,
    ):
        self.sched = sched
        self.log = log
        self.ledger = ledger
        self.exchange = exchange
        self.compliance = compliance
        self.issuance = issuance
        self.risk = risk
        self.rng = rng
        self.oracle = oracle
        self.pre_trade_mean_ms = pre_trade_mean_ms
        self.pre_trade_sigma_ms = pre_trade_sigma_ms
        self.pre_trade_min_ms = pre_trade_min_ms
        self.order_style = order_style
        self.order_expiry_ms = order_expiry_ms
        self.limit_offset_bps = limit_offset_bps
        self.on_report = on_report
        self.log_workflows = log_workflows
        self.users: dict[str, UserState] = {}
        self.platform_addresses: set[str] = set()
        self._maker_contexts: dict[int, _OrderFlow] = {}
        exchange.on_trade(self._watch_maker_fills)

    # -- registry -----------------------------------------------------------

    def register_platform(self, address: str) -> None:
        """Platform actors (market maker, cold storage) bypass onboarding."""
        self.platform_addresses.add(address)

    def is_approved(self, address: str) -> bool:
        if address in self.platform_addresses:
            return True
        state = self.users.get(address)
        return state is not None and state.approved

    def holdings(self, address: str) -> int:
        state = self.users.get(address)
        return state.holdings if state else 0

    def _report(self, report: WorkflowReport) -> None:
        if self.log_workflows or not report.ok:
            self.log.append(
                report.finished_at, "orchestrator", "workflow",
                {"kind": report.kind, "user": report.user, "status": report.status,
                 "latency_ms": report.latency_ms},
            )
        if self.on_report is not None:
            self.on_report(report)

    # -- onboarding ------------------------------------------------------------

    def onboard(self, profile: UserProfile) -> None:
        state = UserState(profile)
        self.users[profile.user_id] = state
        now = self.sched.now()
        decision = self.compliance.screen(profile, now, self.rng)
        state.decision = decision

        def finish() -> None:
            status = decision.outcome
            if decision.outcome == APPROVED:
                state.approved = True
            self._report(
                WorkflowReport(
                    ONBOARD, profile.user_id, COMPLETED if state.approved else status,
                    now, self.sched.now(), agent_ms=decision.processing_time_ms,
                )
            )

        if decision.outcome == MANUAL_REVIEW:
            def resolve() -> None:
                if decision.resolution == APPROVED:
                    state.approved = True
                finish()

            self.sched.schedule(decision.resolved_at, 2, "manual_review", resolve)
        else:
            self.sched.schedule(decision.decided_at, 2, "compliance_decision", finish)

    # -- user actions ------------------------------------------------------------

    def handle(self, kind: str, user: str, amount: int) -> None:
        """Entry point for load-generated actions; completion is async."""
        if kind not in (BUY, SELL, ISSUE, REDEEM):
            raise ValueError(f"unknown action {kind!r}")
        requested_at = self.sched.now()
        if not self.is_approved(user):
            self._report(WorkflowReport(kind, user, NOT_ONBOARDED, requested_at, requested_at))
            return
        wait = self.risk.gate.admit(requested_at)

        def admitted() -> None:
            if kind in (BUY, SELL):
                self._run_order(kind, user, amount, requested_at)
            elif kind == ISSUE:
                self._run_issue(user, amount, requested_at)
            else:
                self._run_redeem(user, amount, requested_at)

        if wait <= 0:
            admitted()
        else:
            self.sched.schedule_in(wait, 2, "admission", admitted)

    def _pre_trade_delay(self) -> int:
        if self.pre_trade_sigma_ms <= 0:
            return max(self.pre_trade_min_ms, round(self.pre_trade_mean_ms))
        draw = self.rng.gauss(self.pre_trade_mean_ms, self.pre_trade_sigma_ms)
        return max(self.pre_trade_min_ms, round(draw))

    def _watch_maker_fills(self, trade) -> None:
        ctx = self._maker_contexts.get(trade.maker_id)
        if ctx is None:
            return
        if ctx.kind == BUY:
            ctx.state.holdings += trade.qty
        self.exchange.wait_settlement(ctx.user, trade.taker_owner, ctx.settled)
        ctx.fills += trade.qty

    def _limit_price(self, side: str) -> int:
        """Marketable-or-passive limit around the reference price.

        Negative offsets rest behind the touch, positive ones cross it; the
        configured range sets the marketable share of the flow.
        """
        ref = self.oracle.reference_price()
        lo, hi = self.limit_offset_bps
        offset = self.rng.uniform(lo / 10_000, hi / 10_000)
        if side == BID:
            return round(ref * (1 + offset))
        return round(ref * (1 - offset))

    def _run_order(self, kind: str, user: str, amount: int, requested_at: int) -> None:
        state = self.users[user]
        if kind == SELL:
            if state.holdings < amount:
                self._report(
                    WorkflowReport(kind, user, INSUFFICIENT_HOLDINGS, requested_at, self.sched.now())
                )
                return
            state.holdings -= amount  # committed to the sale from here on
        flow = _OrderFlow(self, kind, user, amount, requested_at, state, self._pre_trade_delay())
        self.sched.schedule_in(flow.delay, 2, "pre_trade_check", flow.place)

    def _run_issue(self, user: str, amount: int, requested_at: int) -> None:
        def done(result: WorkflowResult) -> None:
            state = self.users.get(user)
            if result.ok and state is not None:
                state.holdings += amount
            self._report(
                WorkflowReport(
                    ISSUE, user, COMPLETED if result.ok else result.status,
                    requested_at, result.finished_at,
                    agent_ms=result.agent_ms, chain_ms=result.chain_ms,
                )
            )

        self.issuance.process_issue(user, amount, done)

    def _run_redeem(self, user: str, amount: int, requested_at: int) -> None:
        state = self.users[user]
        if state.holdings < amount:
            self._report(
                WorkflowReport(REDEEM, user, INSUFFICIENT_HOLDINGS, requested_at, self.sched.now())
            )
            return
        state.holdings -= amount

        def done(result: WorkflowResult) -> None:
            if not result.ok:
                state.holdings += amount
            self._report(
                WorkflowReport(
                    REDEEM, user, COMPLETED if result.ok else result.status,
                    requested_at, result.finished_at,
                    agent_ms=result.agent_ms, chain_ms=result.chain_ms,
                )
            )

        self.issuance.process_redeem(user, amount, done)


class _OrderFlow:
    """One buy or sell workflow, from the pre-trade check to its one report.

    A resting limit order keeps its workflow alive until expiry, thousands at
    a time under saturated load. Each workflow is therefore a single slotted
    object whose bound methods are its scheduled actions and settlement
    callback, which keeps the collector's live set small.
    """

    __slots__ = (
        "orch", "kind", "user", "amount", "requested_at", "state", "delay",
        "now", "filled", "fills", "reported", "resting",
    )

    def __init__(
        self, orch: Orchestrator, kind: str, user: str, amount: int,
        requested_at: int, state: UserState, delay: int,
    ):
        self.orch = orch
        self.kind = kind
        self.user = user
        self.amount = amount
        self.requested_at = requested_at
        self.state = state
        self.delay = delay
        self.fills = 0  # quantity filled while resting, by later takers
        self.reported = False

    def place(self) -> None:
        orch = self.orch
        kind, user, amount = self.kind, self.user, self.amount
        self.now = orch.sched.now()
        side = BID if kind == BUY else ASK
        try:
            if orch.order_style == "mixed" and orch.oracle is not None:
                trades, resting = orch.exchange.place(
                    user, side, amount, price=orch._limit_price(side), kind="limit"
                )
            else:
                trades, resting = orch.exchange.place(user, side, amount, kind="market")
        except (TradingHalted, NotOnboarded) as rejected:
            if kind == SELL:
                self.state.holdings += amount  # the commitment returns
            self.complete(TRADING_HALTED if isinstance(rejected, TradingHalted) else NOT_ONBOARDED)
            return
        self.filled = filled = sum(t.qty for t in trades)
        self.resting = resting
        if kind == BUY:
            self.state.holdings += filled
        elif resting is None:
            self.state.holdings += amount - filled  # uncommitted remainder returns
        if filled == 0 and resting is None:
            self.complete(UNFILLED)
            return
        for other in {t.maker_owner if t.taker_owner == user else t.taker_owner for t in trades}:
            orch.exchange.wait_settlement(user, other, self.settled)
        if resting is not None:
            orch._maker_contexts[resting] = self
            orch.sched.schedule_in(orch.order_expiry_ms, 2, "order_expiry", self.expire)

    def settled(self, _t: int) -> None:
        self.complete(COMPLETED)

    def expire(self) -> None:
        orch = self.orch
        orch._maker_contexts.pop(self.resting, None)
        if orch.exchange.cancel(self.resting) and self.kind == SELL:
            # return the unsold remainder of the commitment
            remainder = self.amount - self.filled - self.fills
            if remainder > 0:
                self.state.holdings += remainder
        if self.filled == 0 and self.fills == 0:
            self.complete(UNFILLED)

    def complete(self, status: str) -> None:
        if self.reported:
            return
        self.reported = True
        finished = self.orch.sched.now()
        self.orch._report(
            WorkflowReport(
                self.kind, self.user, status, self.requested_at, finished,
                agent_ms=self.delay, chain_ms=max(finished - self.now, 0),
            )
        )
