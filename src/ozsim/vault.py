"""Physical-gold custody model: holdings, locks, attestations, misreport fault.

The vault reports total ounces held via periodic attestations that land
on-chain as the attested reserve.  Issuance locks ounces before the mint is
submitted; redemptions release the lock and withdraw the metal.  The misreport
fault shaves a fraction off the reported (not actual) holdings.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

from .sim import EventLog, Scheduler


class InsufficientUnlocked(Exception):
    pass


class UncoveredWithdrawal(Exception):
    pass


@dataclass(frozen=True)
class Attestation:
    reported_micro_oz: int
    t: int
    auditor: str


@dataclass
class Ticket:
    amount: int
    purpose: str  # "issuance" | "withdrawal"
    open: bool = True


class Vault:
    def __init__(
        self,
        sched: Scheduler,
        log: EventLog,
        total_micro_oz: int,
        auditor: str = "auditor-1",
        attestation_interval_ms: int = 60_000,
        submit_attestation: Optional[Callable[[int, str], None]] = None,
    ):
        self.sched = sched
        self.log = log
        self.total_micro_oz = total_micro_oz
        self.locked_micro_oz = 0
        self.auditor = auditor
        self.attestation_interval_ms = attestation_interval_ms
        self.submit_attestation = submit_attestation
        self.misreport_fraction: Optional[float] = None
        # (t, reported) of every attestation reporting less than is held
        self.short_attestations: list[tuple[int, int]] = []

    @property
    def unlocked_micro_oz(self) -> int:
        return self.total_micro_oz - self.locked_micro_oz

    # -- locks ----------------------------------------------------------------

    def lock_for_issuance(self, amount: int) -> Ticket:
        if self.unlocked_micro_oz < amount:
            raise InsufficientUnlocked(
                f"need {amount}, unlocked {self.unlocked_micro_oz}"
            )
        self.locked_micro_oz += amount
        return Ticket(amount, "issuance")

    def release(self, ticket: Ticket) -> None:
        """Undo an issuance lock after a failed mint."""
        if not ticket.open:
            return
        ticket.open = False
        self.locked_micro_oz -= ticket.amount

    # -- redemption -------------------------------------------------------------

    def authorize_withdrawal(self, amount: int) -> Ticket:
        """Cover a confirmed burn; moves locked metal toward the door."""
        if self.locked_micro_oz < amount:
            raise UncoveredWithdrawal(f"locked {self.locked_micro_oz} < {amount}")
        return Ticket(amount, "withdrawal")

    def withdraw_physical(self, ticket: Ticket) -> None:
        if ticket.purpose != "withdrawal" or not ticket.open:
            raise UncoveredWithdrawal("withdrawal requires an open redemption ticket")
        ticket.open = False
        self.locked_micro_oz -= ticket.amount
        self.total_micro_oz -= ticket.amount
        self.log.append(
            self.sched.now(),
            "vault",
            "withdrawal",
            {"amount": ticket.amount, "total": self.total_micro_oz},
        )

    def deposit_physical(self, amount: int) -> None:
        self.total_micro_oz += amount
        self.log.append(
            self.sched.now(), "vault", "deposit", {"amount": amount, "total": self.total_micro_oz}
        )

    # -- attestations -----------------------------------------------------------

    def issue_attestation(self, now: int) -> Attestation:
        reported = self.total_micro_oz
        if self.misreport_fraction is not None:
            reported = round(self.total_micro_oz * (1.0 - self.misreport_fraction))
        if reported != self.total_micro_oz:
            self.short_attestations.append((now, reported))
        attestation = Attestation(reported, now, self.auditor)
        self.log.append(
            now, "vault", "attestation", {"reported": reported, "actual": self.total_micro_oz}
        )
        if self.submit_attestation is not None:
            self.submit_attestation(reported, self.auditor)
        return attestation

    def start(self) -> None:
        interval = self.attestation_interval_ms
        self.sched.every(
            self.sched.now() + interval, interval, 2, "attestation",
            lambda: self.issue_attestation(self.sched.now()),
        )

    # -- fault injection -----------------------------------------------------

    def inject_misreport(self, shortfall_fraction: float, now: int) -> None:
        self.misreport_fraction = shortfall_fraction
        self.log.append(now, "vault", "fault_injected", {"shortfall": shortfall_fraction})

    def restore(self, now: int) -> None:
        self.misreport_fraction = None
        self.log.append(now, "vault", "fault_restored", {})
