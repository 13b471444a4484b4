"""Workflow orchestration: routes user actions through the agent pipeline.

Every user action passes the compliance gate (onboarding), then the risk
monitor's admission gate, then the type-specific pipeline: orders get a
pre-trade screening delay before hitting the book, issuance and redemption go
to the issuance agent.  Completion, status, and end-to-end latency of every
workflow are reported to a single callback for metrics and closed-loop load.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Callable, Optional

from ..config import ScenarioConfig
from ..exchange import ASK, BID, Exchange, NotOnboarded, TradingHalted
from ..ledger import Ledger
from ..oracle import OracleHub
from ..sim import EventLog, RngStream, Scheduler
from ..units import to_micro
from .compliance import APPROVED, ComplianceAgent, MANUAL_REVIEW, UserProfile
from .issuance import COMPLETED, ISSUE, REDEEM, IssuanceAgent, WorkflowReport
from .risk import RiskAgent

ONBOARD = "onboard"
BUY = "buy"
SELL = "sell"

UNFILLED = "unfilled"
NOT_ONBOARDED = "not_onboarded"
TRADING_HALTED = "trading_halted"
INSUFFICIENT_HOLDINGS = "insufficient_holdings"

PRE_TRADE_MIN_MS = 50  # floor of the pre-trade screening delay


@dataclass(slots=True)
class UserState:
    approved: bool = False
    holdings: int = 0  # micro-OZ economic position, fills included


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
        oracle: OracleHub,
        config: ScenarioConfig,
        on_report: Optional[Callable[[WorkflowReport], None]] = None,
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
        self.config = config
        self.on_report = on_report
        self.users: dict[str, UserState] = {}
        self.platform_addresses: set[str] = set()
        self._maker_contexts: dict[int, _OrderFlow] = {}  # resting order id -> its flow
        # Resting order ids in the order their expiries were scheduled.  Every
        # expiry has the same delay and priority, so they fire in that order
        # too, and one bound method, made here once, serves them all without
        # holding a flow.
        self._expiries: deque[int] = deque()
        self._expire_next_action = self._expire_next
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
        if self.config.log_workflows or not report.ok:
            self.log.append(
                report.finished_at, "orchestrator", "workflow",
                {"kind": report.kind, "user": report.user, "status": report.status,
                 "latency_ms": report.latency_ms},
            )
        if self.on_report is not None:
            self.on_report(report)

    # -- onboarding ------------------------------------------------------------

    def onboard(self, profile: UserProfile) -> None:
        user = profile.user_id
        state = UserState(holdings=to_micro(self.config.prefund_oz))
        self.users[user] = state
        now = self.sched.now()
        decision = self.compliance.screen(profile, now, self.rng)

        def finish() -> None:
            status = decision.outcome
            if decision.outcome == APPROVED:
                state.approved = True
            self._report(
                WorkflowReport(
                    ONBOARD, user, COMPLETED if state.approved else status,
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
        if self.config.pre_trade_sigma_ms <= 0:
            return max(PRE_TRADE_MIN_MS, round(self.config.pre_trade_mean_ms))
        draw = self.rng.gauss(self.config.pre_trade_mean_ms, self.config.pre_trade_sigma_ms)
        return max(PRE_TRADE_MIN_MS, round(draw))

    def _watch_maker_fills(self, trade) -> None:
        ctx = self._maker_contexts.get(trade.maker_id)
        if ctx is None:
            return
        if ctx.kind == BUY:
            ctx.state.holdings += trade.qty
        if not ctx.reported:
            self.exchange.wait_settlement(ctx.user, trade.taker_owner, ctx)
        ctx.fills += trade.qty
        if ctx.filled + ctx.fills == ctx.amount:  # the order has left the book
            del self._maker_contexts[trade.maker_id]

    def _expire_next(self) -> None:
        """The oldest pending expiry: cancel its order if it still rests."""
        flow = self._maker_contexts.pop(self._expiries.popleft(), None)
        if flow is not None:
            flow.expire()

    def _limit_price(self, side: str) -> int:
        """Marketable-or-passive limit around the reference price.

        Negative offsets rest behind the touch, positive ones cross it; the
        configured range sets the marketable share of the flow.
        """
        ref = self.oracle.reference_price()
        lo, hi = self.config.limit_offset_bps
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
        def done(report: WorkflowReport) -> None:
            state = self.users.get(user)
            if report.ok and state is not None:
                state.holdings += amount
            self._report(report._replace(requested_at=requested_at))

        self.issuance.process_issue(user, amount, done)

    def _run_redeem(self, user: str, amount: int, requested_at: int) -> None:
        state = self.users[user]
        if state.holdings < amount:
            self._report(
                WorkflowReport(REDEEM, user, INSUFFICIENT_HOLDINGS, requested_at, self.sched.now())
            )
            return
        state.holdings -= amount

        def done(report: WorkflowReport) -> None:
            if not report.ok:
                state.holdings += amount
            self._report(report._replace(requested_at=requested_at))

        self.issuance.process_redeem(user, amount, done)


class _OrderFlow:
    """One buy or sell workflow, from the pre-trade check to its one report.

    A flow lives while its order rests in the book or its settlement is
    awaited, whichever ends later; the pending expiry holds only the order
    id.  Under saturated load thousands rest at a time, so each workflow is a
    single slotted object that is itself its settlement callback: a waiter
    holds the flow, not a bound method made for it.  Only the scheduled
    pre-trade action is a bound method, alive until it fires.
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
            if orch.config.order_style == "mixed":
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
            orch.exchange.wait_settlement(user, other, self)
        if resting is not None:
            orch._maker_contexts[resting] = self
            orch._expiries.append(resting)
            orch.sched.schedule_in(
                orch.config.order_expiry_ms, 2, "order_expiry", orch._expire_next_action
            )

    def __call__(self, _t: int) -> None:
        """The settlement callback: the flow's trades have settled at _t."""
        self.complete(COMPLETED)

    def expire(self) -> None:
        """Cancel the unfilled rest of the order; its context is already gone."""
        if self.orch.exchange.cancel(self.resting) and self.kind == SELL:
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
