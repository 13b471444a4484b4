"""Physical-gold custody model: holdings, locks, attestations, misreport fault.

The vault reports total ounces held via periodic attestations that land
on-chain as the attested reserve.  Issuance locks ounces before the mint is
submitted; redemptions release the lock and withdraw the metal.  The misreport
fault shaves a fraction off the reported (not actual) holdings; while
misreports overlap, the one injected last acts.
"""

from __future__ import annotations

from dataclasses import dataclass

from .config import Fault, ScenarioConfig
from .ledger import AUDITOR, Ledger
from .sim import EventLog, Scheduler
from .units import to_micro


class InsufficientUnlocked(Exception):
    pass


class UncoveredWithdrawal(Exception):
    pass


@dataclass
class Ticket:
    amount: int
    purpose: str  # "issuance" | "withdrawal"
    open: bool = True


class Vault:
    def __init__(self, sched: Scheduler, log: EventLog, config: ScenarioConfig, ledger: Ledger):
        self.sched = sched
        self.log = log
        self.config = config
        self.ledger = ledger  # where attestations are submitted
        self.total_micro_oz = to_micro(config.vault_initial_oz)
        self.locked_micro_oz = 0
        self.faults: list[Fault] = []  # the active misreports; the last acts

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

    def issue_attestation(self, now: int) -> None:
        fault = self.faults[-1] if self.faults else None
        reported = self.total_micro_oz
        if fault is not None:
            reported = round(self.total_micro_oz * (1.0 - fault.spec.magnitude))
        self.log.append(
            now, "vault", "attestation", {"reported": reported, "actual": self.total_micro_oz}
        )
        # the fault travels with the tx, to be credited once the ledger applies it
        self.ledger.submit_tx("set_reserve", AUDITOR, (reported, AUDITOR, fault))

    def start(self) -> None:
        interval = self.config.attestation_interval_ms
        self.sched.every(
            self.sched.now() + interval, interval, 2, "attestation",
            lambda: self.issue_attestation(self.sched.now()),
        )

    # -- fault injection -----------------------------------------------------

    def inject_misreport(self, fault: Fault, now: int) -> None:
        self.faults.append(fault)
        self.log.append(now, "vault", "fault_injected", {"shortfall": fault.spec.magnitude})

    def restore(self, fault: Fault, now: int) -> None:
        self.faults.remove(fault)
        self.log.append(now, "vault", "fault_restored", {})
