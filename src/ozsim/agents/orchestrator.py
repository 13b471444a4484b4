"""Workflow orchestration: routes user actions through the agent pipeline.

Every user action passes the compliance gate (onboarding), then the risk
monitor's admission gate, then the type-specific pipeline: orders get a
pre-trade screening delay before hitting the book, issuance and redemption go
to the issuance agent.  Each onboarding and each action is one `_UserFlow`,
from its request to its one report: the flow schedules its own stages, the
issuance agent takes it whole, and its status and latency go once to a single
callback for metrics and closed-loop load.
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
from .issuance import COMPLETED, ISSUE, REDEEM, IssuanceAgent, Workflow, WorkflowReport
from .risk import PLATFORM_ADDRESSES, RiskAgent

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
        self._maker_contexts: dict[int, _UserFlow] = {}  # resting order id -> its flow
        # Resting order ids in the order their expiries were scheduled.  Every
        # expiry has the same delay and priority, so they fire in that order
        # too, and one bound method, made here once, serves them all without
        # holding a flow.
        self._expiries: deque[int] = deque()
        self._expire_next_action = self._expire_next
        exchange.on_trade(self._watch_maker_fills)

    # -- registry -----------------------------------------------------------

    def is_approved(self, address: str) -> bool:
        if address in PLATFORM_ADDRESSES:  # they bypass onboarding
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
        self.users[profile.user_id] = UserState(holdings=to_micro(self.config.prefund_oz))
        flow = _UserFlow(self, ONBOARD, profile.user_id, 0)
        decision = self.compliance.screen(profile, flow.requested_at, self.rng)
        flow.agent_ms = decision.processing_time_ms
        if decision.outcome == MANUAL_REVIEW:
            self.sched.schedule(decision.resolved_at, 2, "manual_review", flow.screened)
        else:
            self.sched.schedule(decision.decided_at, 2, "compliance_decision", flow.screened)

    # -- user actions ------------------------------------------------------------

    def handle(self, kind: str, user: str, amount: int) -> None:
        """Entry point for load-generated actions; completion is async."""
        if kind not in (BUY, SELL, ISSUE, REDEEM):
            raise ValueError(f"unknown action {kind!r}")
        flow = _UserFlow(self, kind, user, amount)
        if not self.is_approved(user):
            flow.complete(NOT_ONBOARDED)
            return
        wait = self.risk.gate.admit(flow.requested_at)
        if wait <= 0:
            flow.admit()
        else:
            self.sched.schedule_in(wait, 2, "admission", flow.admit)

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


class _UserFlow(Workflow):
    """One onboarding, buy, sell, issue or redeem, from its request to its
    one report.

    The flow is itself the callback of each stage: its own methods are
    scheduled, a settlement waiter calls it, the issuance agent takes it
    whole.  Under saturated load thousands rest in the book at a time, so a
    flow holds no bound method but that of its one pending stage, and the
    pending expiry holds only the order id.  complete(status) reports once
    and applies the kind's holdings rule: an accepted issue adds its amount,
    a failed sell or redeem returns the commitment it still holds.
    """

    __slots__ = (
        "orch", "requested_at", "state", "held", "filled", "fills", "reported", "resting",
    )

    def __init__(self, orch: Orchestrator, kind: str, user: str, amount: int):
        super().__init__(kind, user, amount)
        self.orch = orch
        self.requested_at = orch.sched.now()
        self.state = orch.users.get(user)
        self.held = 0  # taken from the user's holdings by a sell or redeem, returned on failure
        self.fills = 0  # quantity filled while resting, by later takers
        self.reported = False

    def screened(self) -> None:
        """Onboarding: the compliance decision, or its manual review, is in."""
        decision = self.orch.compliance.decisions[self.user]
        review = decision.outcome == MANUAL_REVIEW
        self.state.approved = (decision.resolution if review else decision.outcome) == APPROVED
        self.complete(COMPLETED if self.state.approved else decision.outcome)

    def admit(self) -> None:
        """Past the admission gate: commit a sale or redemption, then start the pipeline."""
        orch, kind, amount = self.orch, self.kind, self.amount
        if kind in (SELL, REDEEM):
            if self.state.holdings < amount:
                self.complete(INSUFFICIENT_HOLDINGS)
                return
            self.state.holdings -= amount
            self.held = amount
        if kind == ISSUE:
            orch.issuance.process_issue(self)
        elif kind == REDEEM:
            orch.issuance.process_redeem(self)
        else:
            self.agent_ms = orch._pre_trade_delay()
            orch.sched.schedule_in(self.agent_ms, 2, "pre_trade_check", self.place)

    def place(self) -> None:
        orch = self.orch
        kind, user, amount = self.kind, self.user, self.amount
        self.submitted_at = orch.sched.now()
        side = BID if kind == BUY else ASK
        try:
            if orch.config.order_style == "mixed":
                trades, resting = orch.exchange.place(
                    user, side, amount, price=orch._limit_price(side), kind="limit"
                )
            else:
                trades, resting = orch.exchange.place(user, side, amount, kind="market")
        except (TradingHalted, NotOnboarded) as rejected:
            self.complete(TRADING_HALTED if isinstance(rejected, TradingHalted) else NOT_ONBOARDED)
            return
        self.held = 0  # from here the fills and the expiry settle a sale's commitment
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
        orch, kind = self.orch, self.kind
        finished = orch.sched.now()
        ok = status == COMPLETED
        if not ok:
            if self.held:
                self.state.holdings += self.held
        elif kind == ISSUE and self.state is not None:
            self.state.holdings += self.amount
        # An order's chain runs from its placement, whatever its status; an
        # issue's or redemption's from its latest submission, if it completes.
        submitted = self.submitted_at
        chain_ms = 0
        if submitted is not None and (ok or kind in (BUY, SELL)):
            chain_ms = finished - submitted
        orch._report(WorkflowReport(
            kind, self.user, status, self.requested_at, finished, self.agent_ms, chain_ms
        ))
