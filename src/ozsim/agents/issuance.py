"""Issuance agent: fiat-in minting and burn-for-gold redemption workflows.

An issue request runs through the agent's own processing delay, a headroom
pre-check mirroring the on-chain reserve guard, a vault lock, and the mint
transaction.  Redemptions burn first and release physical metal once the burn
confirms.  Transactions reverted by a breaker halt are resubmitted when the
halt lifts, so workflows finish late rather than never.
"""

from __future__ import annotations

from typing import Callable, NamedTuple

from ..config import IssuanceSpec
from ..ledger import (
    Ledger,
    Receipt,
    REVERT_TRADING_HALTED,
)
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

    # -- issuance ---------------------------------------------------------

    def process_issue(
        self, user: str, amount: int, done: Callable[[WorkflowReport], None]
    ) -> None:
        """Payment is confirmed instantly upstream; start the mint pipeline."""
        requested_at = self.sched.now()
        if not self.is_approved(user):
            done(WorkflowReport(ISSUE, user, COMPLIANCE_BLOCKED, requested_at, requested_at))
            return
        if self.ledger.issuance_paused:
            done(WorkflowReport(ISSUE, user, ISSUANCE_FROZEN, requested_at, requested_at))
            return
        delay = self._processing_delay()

        def after_processing() -> None:
            now = self.sched.now()
            if self.ledger.issuance_paused:
                done(WorkflowReport(ISSUE, user, ISSUANCE_FROZEN, requested_at, now, delay))
                return
            headroom = self.ledger.attested_reserve + self.ledger.epsilon - self.ledger.total_supply
            if amount > headroom:
                done(WorkflowReport(ISSUE, user, INSUFFICIENT_HEADROOM, requested_at, now, delay))
                return
            try:
                ticket = self.vault.lock_for_issuance(amount)
            except InsufficientUnlocked:
                done(WorkflowReport(ISSUE, user, INSUFFICIENT_VAULT, requested_at, now, delay))
                return
            self._submit_mint(user, amount, ticket, requested_at, delay, done)

        self.sched.schedule_in(delay, 2, "issuance_processing", after_processing)

    def _submit_mint(self, user, amount, ticket, requested_at, agent_ms, done) -> None:
        submitted_at = self.sched.now()

        def on_receipt(receipt: Receipt) -> None:
            now = self.sched.now()
            if receipt.accepted:
                done(WorkflowReport(
                    ISSUE, user, COMPLETED, requested_at, now, agent_ms, now - submitted_at
                ))
                return
            if receipt.reason == REVERT_TRADING_HALTED:
                # Resubmit once trading resumes; the lock stays in place.
                self.ledger.once_breaker_lift(
                    lambda _t: self._submit_mint(
                        user, amount, ticket, requested_at, agent_ms, done
                    )
                )
                return
            self.vault.release(ticket)
            done(WorkflowReport(ISSUE, user, REVERTED, requested_at, now, agent_ms))

        self.ledger.submit_tx("mint", ISSUER_ADDRESS, (user, amount), on_receipt=on_receipt)

    # -- redemption ----------------------------------------------------------

    def process_redeem(
        self, user: str, amount: int, done: Callable[[WorkflowReport], None]
    ) -> None:
        requested_at = self.sched.now()
        if not self.is_approved(user):
            done(WorkflowReport(REDEEM, user, COMPLIANCE_BLOCKED, requested_at, requested_at))
            return
        if self.ledger.balance(user) < amount:
            done(WorkflowReport(REDEEM, user, INSUFFICIENT_BALANCE, requested_at, requested_at))
            return
        delay = self._processing_delay()
        self.sched.schedule_in(
            delay, 2, "redemption_processing",
            lambda: self._submit_burn(user, amount, requested_at, delay, done),
        )

    def _submit_burn(self, user, amount, requested_at, agent_ms, done) -> None:
        submitted_at = self.sched.now()

        def on_receipt(receipt: Receipt) -> None:
            now = self.sched.now()
            if receipt.accepted:
                ticket = self.vault.authorize_withdrawal(amount)
                self.vault.withdraw_physical(ticket)
                done(WorkflowReport(
                    REDEEM, user, COMPLETED, requested_at, now, agent_ms, now - submitted_at
                ))
                return
            if receipt.reason == REVERT_TRADING_HALTED:
                self.ledger.once_breaker_lift(
                    lambda _t: self._submit_burn(user, amount, requested_at, agent_ms, done)
                )
                return
            done(WorkflowReport(REDEEM, user, REVERTED, requested_at, now, agent_ms))

        self.ledger.submit_tx("burn", user, (user, amount), on_receipt=on_receipt)
