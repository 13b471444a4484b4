"""Multi-sig agent updates and time-locked, quorum-gated parameter votes.

Parameter proposals carry a timelock and execute only after it expires, with
the new value checked against the bounds registry at execution time.  An
out-of-bounds execution attempt is rejected and surfaced to the risk agent.
Voting power is the proposer-time snapshot of staked OZ balances.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional

from .ledger import Ledger, OutOfBounds, Receipt, ACCEPTED

SIGNERS = frozenset({"signer-1", "signer-2", "signer-3"})  # agent-update multi-sig
SIGNERS_REQUIRED = 2
QUORUM_FRACTION = 0.4  # of the snapshot's total power, for a parameter vote
TIMELOCK_MS = 86_400_000  # for a parameter proposal that sets none


class NotASigner(Exception):
    pass


class AlreadyExecuted(Exception):
    pass


@dataclass
class MultisigProposal:
    proposal_id: int
    agent: str
    version: str
    signatures: set[str] = field(default_factory=set)
    executed: bool = False

    @property
    def status(self) -> str:
        if self.executed:
            return "executed"
        if len(self.signatures) >= SIGNERS_REQUIRED:
            return "executable"
        return "pending"


@dataclass
class ParamProposal:
    proposal_id: int
    param_key: str
    new_value: float | int
    proposed_at: int
    timelock_ms: int
    total_power: int
    power_snapshot: dict[str, int]
    votes_for: int = 0
    votes_against: int = 0
    voters: set[str] = field(default_factory=set)
    state: str = "open"  # open | passed | rejected | executed


def tally(proposal: ParamProposal) -> str:
    """Close the vote: passed iff quorum met and strict majority in favour."""
    turnout = proposal.votes_for + proposal.votes_against
    if turnout < QUORUM_FRACTION * proposal.total_power:
        return "rejected"
    if proposal.votes_for > proposal.votes_against:
        return "passed"
    return "rejected"


class Governance:
    """Governance actions routed through the ledger as ordinary transactions."""

    def __init__(self, ledger: Ledger, alert_sink: Optional[Callable[[str, dict], None]] = None):
        self.ledger = ledger
        self.alert_sink = alert_sink
        self._next_id = 1
        self.pending_agent_updates: list[tuple[str, str]] = []

    def _log(self, kind: str, detail: dict, t: Optional[int] = None) -> None:
        now = self.ledger.sched.now() if t is None else t
        self.ledger.log.append(now, "governance", kind, detail)

    # -- multi-sig agent updates -------------------------------------------

    def propose_update(self, agent: str, version: str) -> MultisigProposal:
        proposal = MultisigProposal(self._next_id, agent, version)
        self._next_id += 1
        self._log("update_proposed", {"id": proposal.proposal_id, "agent": agent, "version": version})
        return proposal

    def sign_update(self, proposal: MultisigProposal, signer: str) -> str:
        if signer not in SIGNERS:
            raise NotASigner(signer)
        if proposal.executed:
            raise AlreadyExecuted(proposal.proposal_id)
        proposal.signatures.add(signer)
        self._log(
            "update_signed",
            {"id": proposal.proposal_id, "signer": signer, "count": len(proposal.signatures)},
        )
        if proposal.status == "executable":
            proposal.executed = True
            self.pending_agent_updates.append((proposal.agent, proposal.version))
            self._log(
                "update_executable",
                {"id": proposal.proposal_id, "agent": proposal.agent, "version": proposal.version},
            )
        return proposal.status

    def drain_agent_updates(self) -> list[tuple[str, str]]:
        """Executed updates take effect at the next risk cycle."""
        updates, self.pending_agent_updates = self.pending_agent_updates, []
        return updates

    # -- parameter votes ------------------------------------------------------

    def propose_param(
        self,
        param_key: str,
        new_value: float | int,
        now: int,
        timelock_ms: Optional[int] = None,
    ) -> ParamProposal:
        snapshot = dict(self.ledger.balances)
        proposal = ParamProposal(
            self._next_id,
            param_key,
            new_value,
            proposed_at=now,
            timelock_ms=TIMELOCK_MS if timelock_ms is None else timelock_ms,
            total_power=self.ledger.total_supply,
            power_snapshot=snapshot,
        )
        self._next_id += 1
        self._log(
            "param_proposed",
            {"id": proposal.proposal_id, "key": param_key, "value": new_value},
        )
        return proposal

    def vote(self, proposal: ParamProposal, voter: str, support: bool) -> None:
        if proposal.state != "open":
            raise ValueError(f"proposal {proposal.proposal_id} is {proposal.state}")
        if voter in proposal.voters:
            return
        proposal.voters.add(voter)
        power = proposal.power_snapshot.get(voter, 0)
        if support:
            proposal.votes_for += power
        else:
            proposal.votes_against += power
        self._log(
            "param_vote",
            {"id": proposal.proposal_id, "voter": voter, "support": support, "power": power},
        )

    def execute_param(self, proposal: ParamProposal, now: int) -> str:
        """Attempt execution; returns executed | too_early | rejected_*."""
        if proposal.state == "open":
            proposal.state = tally(proposal)
            self._log("param_tally", {"id": proposal.proposal_id, "state": proposal.state}, t=now)
        if proposal.state == "rejected":
            return "rejected"
        if proposal.state != "passed":
            return proposal.state
        if now < proposal.proposed_at + proposal.timelock_ms:
            self._log("param_too_early", {"id": proposal.proposal_id}, t=now)
            return "too_early"
        try:
            self.ledger.set_param(proposal.param_key, proposal.new_value, now, "governance")
        except OutOfBounds as exc:
            proposal.state = "rejected"
            self._log(
                "param_rejected_out_of_bounds",
                {"id": proposal.proposal_id, "key": proposal.param_key, "value": proposal.new_value},
                t=now,
            )
            if self.alert_sink is not None:
                self.alert_sink(
                    "GovernanceOutOfBounds",
                    {"param": proposal.param_key, "value": proposal.new_value, "error": str(exc)},
                )
            return "rejected_out_of_bounds"
        proposal.state = "executed"
        self._log(
            "param_executed",
            {"id": proposal.proposal_id, "key": proposal.param_key, "value": proposal.new_value},
            t=now,
        )
        return "executed"

    # -- on-chain routing ------------------------------------------------------

    def submit_execute_tx(self, proposal: ParamProposal, sender: str = "governance") -> int:
        """Route an execution attempt through a ledger transaction."""

        def apply() -> Receipt:
            result = self.execute_param(proposal, self.ledger.sched.now())
            if result == "executed":
                return ACCEPTED
            return Receipt(False, result)

        return self.ledger.submit_tx("governance", sender, (apply,))

    def governance_unpause(self, now: int) -> None:
        self.ledger.governance_unpause(now)
        self._log("unpause", {})
