"""Issuance agent: fiat-in minting and burn-for-gold redemption workflows.

An issue request runs through the agent's own processing delay, a headroom
pre-check mirroring the on-chain reserve guard, a vault lock, and the mint
transaction.  Redemptions burn first and release physical metal once the burn
confirms.  Transactions reverted by a breaker halt are resubmitted when the
halt lifts, so workflows finish late rather than never.

Each request is one `Workflow` object, which the agent ends with the
`complete(status)` of whoever built it: the orchestrator or the market maker.
"""

from __future__ import annotations

from typing import Callable, NamedTuple, Optional

from ..config import IssuanceSpec
from ..ledger import REVERT_TRADING_HALTED, Ledger, Receipt
from ..sim import EventLog, RngStream, Scheduler
from ..vault import InsufficientUnlocked, Vault

ISSUE = "issue"
REDEEM = "redeem"

COMPLETED = "completed"
ISSUANCE_FROZEN = "issuance_frozen"
INSUFFICIENT_HEADROOM = "insufficient_reserve_headroom"
INSUFFICIENT_VAULT = "insufficient_vault_inventory"
INSUFFICIENT_BALANCE = "insufficient_balance"
COMPLIANCE_BLOCKED = "compliance_blocked"
REVERTED = "reverted"

ISSUER_ADDRESS = "issuance"  # signs every mint


class WorkflowReport(NamedTuple):
    """One finished workflow; every pipeline reports in this one type."""

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


class Workflow:
    """One issue or redemption as the issuance agent sees it.

    Its builder defines complete(status), which the agent calls once, at the
    end of every path.  The agent sets agent_ms (its processing delay),
    submitted_at (the latest submission of the mint or burn) and a mint's
    vault ticket.  The flow is itself the callback of its one pending stage:
    the processing delay, the tx receipt, or the lift that resubmits the tx.
    """

    __slots__ = ("kind", "user", "amount", "agent", "agent_ms", "submitted_at", "ticket")

    def __init__(self, kind: str, user: str, amount: int):
        self.kind = kind
        self.user = user
        self.amount = amount
        self.agent_ms = 0
        self.submitted_at: Optional[int] = None

    def processed(self) -> None:
        self.agent._processed(self)

    def confirmed(self, receipt: Receipt) -> None:
        self.agent._confirmed(self, receipt)

    def resubmit(self, _t: int) -> None:
        self.agent._submit(self)


class IssuanceAgent:
    def __init__(
        self,
        sched: Scheduler,
        log: EventLog,
        ledger: Ledger,
        vault: Vault,
        rng: RngStream,
        is_approved: Callable[[str], bool],
        config: IssuanceSpec,
    ):
        self.sched = sched
        self.log = log
        self.ledger = ledger
        self.vault = vault
        self.rng = rng
        self.is_approved = is_approved
        self.config = config

    def _processing_delay(self) -> int:
        cfg = self.config
        if cfg.processing_sigma_ms <= 0:
            return max(cfg.processing_min_ms, round(cfg.processing_mean_ms))
        draw = self.rng.gauss(cfg.processing_mean_ms, cfg.processing_sigma_ms)
        return max(cfg.processing_min_ms, round(draw))

    # -- issuance and redemption ---------------------------------------------

    def process_issue(self, flow: Workflow) -> None:
        """Payment is confirmed instantly upstream; start the mint pipeline."""
        if not self.is_approved(flow.user):
            flow.complete(COMPLIANCE_BLOCKED)
        elif self.ledger.issuance_paused:
            flow.complete(ISSUANCE_FROZEN)
        else:
            self._process(flow, "issuance_processing")

    def process_redeem(self, flow: Workflow) -> None:
        if not self.is_approved(flow.user):
            flow.complete(COMPLIANCE_BLOCKED)
        elif self.ledger.balance(flow.user) < flow.amount:
            flow.complete(INSUFFICIENT_BALANCE)
        else:
            self._process(flow, "redemption_processing")

    def _process(self, flow: Workflow, event_kind: str) -> None:
        flow.agent = self
        flow.agent_ms = self._processing_delay()
        self.sched.schedule_in(flow.agent_ms, 2, event_kind, flow.processed)

    def _processed(self, flow: Workflow) -> None:
        """Processing is done: an issue re-checks the freeze and the reserve
        headroom and locks its metal; then the mint or burn is submitted."""
        if flow.kind == ISSUE:
            ledger = self.ledger
            if ledger.issuance_paused:
                flow.complete(ISSUANCE_FROZEN)
                return
            if flow.amount > ledger.attested_reserve + ledger.epsilon - ledger.total_supply:
                flow.complete(INSUFFICIENT_HEADROOM)
                return
            try:
                flow.ticket = self.vault.lock_for_issuance(flow.amount)
            except InsufficientUnlocked:
                flow.complete(INSUFFICIENT_VAULT)
                return
        self._submit(flow)

    def _submit(self, flow: Workflow) -> None:
        flow.submitted_at = self.sched.now()
        args = (flow.user, flow.amount)
        if flow.kind == ISSUE:
            self.ledger.submit_tx("mint", ISSUER_ADDRESS, args, on_receipt=flow.confirmed)
        else:
            self.ledger.submit_tx("burn", flow.user, args, on_receipt=flow.confirmed)

    def _confirmed(self, flow: Workflow, receipt: Receipt) -> None:
        if receipt.accepted:
            if flow.kind == REDEEM:  # release the metal once the burn confirms
                self.vault.withdraw_physical(self.vault.authorize_withdrawal(flow.amount))
            flow.complete(COMPLETED)
        elif receipt.reason == REVERT_TRADING_HALTED:
            # Resubmit once trading resumes; a mint's lock stays in place.
            self.ledger.once_breaker_lift(flow.resubmit)
        else:
            if flow.kind == ISSUE:
                self.vault.release(flow.ticket)
            flow.complete(REVERTED)
