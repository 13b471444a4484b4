"""Risk-control agent: the monitoring loop that enforces halts and freezes.

Runs once per second (offset half a second from block boundaries so that a
state change landed in a block is observed in well under a second).  Checks:
oracle staleness/divergence, reserve coverage, single-holder concentration,
and out-of-bounds governance attempts.  A finite service capacity models the
monitoring pipeline: user actions pass through an admission gate before the
rest of the workflow runs, and the gate's measured utilization is what the
scaling experiments report.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Optional

from ..config import RiskSpec
from ..ledger import Ledger
from ..oracle import OracleHub, PRIMARY, SECONDARY
from ..sim import EventLog, Scheduler
from .issuance import ISSUER_ADDRESS
from .market_maker import COLD_ADDRESS, MM_ADDRESS

ORACLE_STALE = "OracleStale"
ORACLE_DIVERGED = "OracleDiverged"
RESERVE_SHORTFALL = "ReserveShortfall"
CONCENTRATION = "Concentration"
GOVERNANCE_OOB = "GovernanceOutOfBounds"

# Platform accounts: they need no onboarding, and their holdings are
# operational, not a holder's stake.
PLATFORM_ADDRESSES = frozenset({MM_ADDRESS, COLD_ADDRESS, ISSUER_ADDRESS})


@dataclass
class RiskAlert:
    kind: str
    raised_at: int
    action_taken: str
    detail: dict = field(default_factory=dict)
    cleared_at: Optional[int] = None


class AdmissionGate:
    """Deterministic FIFO server in front of the monitored workflows.

    Each admitted event occupies 1/(headroom * service_rate) seconds of the
    pipeline; the remaining capacity share is reserved for the agent's own
    safety checks.  At low load the wait is microseconds, at saturation the
    queue grows and measured utilization pins at the headroom share.
    """

    def __init__(self, service_rate: float, headroom: float):
        self._spacing_ms = 1000.0 / (service_rate * headroom)
        self._work_ms_per_event = 1000.0 / service_rate
        self._next_free_ms = 0.0
        # (service_start_ms, work_ms): work counts toward utilization in the
        # sampling window during which the event actually occupies the pipeline.
        self._work: deque[tuple[float, float]] = deque()

    def admit(self, now: int) -> int:
        """Returns the delay in ms before the event may proceed."""
        start = max(float(now), self._next_free_ms)
        self._next_free_ms = start + self._spacing_ms
        self._work.append((start, self._work_ms_per_event))
        return round(start - now)

    def account_base(self, now: int, events: float) -> None:
        self._work.append((float(now), events * self._work_ms_per_event))

    def utilization_since_last_sample(self, now: int, elapsed_ms: int) -> float:
        if elapsed_ms <= 0:
            return 0.0
        done = 0.0
        while self._work and self._work[0][0] < now:
            done += self._work.popleft()[1]
        return done / elapsed_ms


class RiskAgent:
    def __init__(
        self,
        sched: Scheduler,
        log: EventLog,
        ledger: Ledger,
        config: RiskSpec,
        oracle: Optional[OracleHub] = None,
        governance=None,
    ):
        self.sched = sched
        self.log = log
        self.ledger = ledger
        self.oracle = oracle
        self.config = config
        self.governance = governance
        self.agent_versions: dict[str, str] = {}
        self.gate = AdmissionGate(self.config.service_rate, self.config.admission_headroom)
        self.alerts: list[RiskAlert] = []
        self.oracle_alert: Optional[RiskAlert] = None
        self.shortfall_alert: Optional[RiskAlert] = None  # the latest; the freeze is the ledger's
        self.clear_requested = False
        self.flagged_holders: dict[str, RiskAlert] = {}

    def start(self) -> None:
        self.sched.every(
            self.config.phase_ms, self.config.cycle_ms, 0, "risk_cycle",
            lambda: self.cycle(self.sched.now()),
        )

    def _raise(self, kind: str, now: int, action: str, detail: dict) -> RiskAlert:
        alert = RiskAlert(kind, now, action, detail)
        self.alerts.append(alert)
        self.log.append(now, "risk", "alert", {"kind": kind, "action": action, **detail})
        return alert

    # -- the monitoring loop ------------------------------------------------

    def cycle(self, now: int) -> list[RiskAlert]:
        raised: list[RiskAlert] = []
        self.gate.account_base(now, self.config.base_monitor_events)
        if self.governance is not None:
            for agent, version in self.governance.drain_agent_updates():
                self.agent_versions[agent] = version
                self.log.append(now, "risk", "agent_updated", {"agent": agent, "version": version})
        if self.oracle is not None:
            alert = self._check_oracle(now)
            if alert:
                raised.append(alert)
        alert = self._check_reserve(now)
        if alert:
            raised.append(alert)
        raised.extend(self._check_concentration(now))
        return raised

    def _check_oracle(self, now: int) -> Optional[RiskAlert]:
        finding = self.oracle.detect(
            now, self.config.staleness_threshold_ms, self.config.divergence_threshold
        )
        alert = self.oracle_alert
        episode_open = alert is not None and alert.cleared_at is None
        if finding is None:
            if episode_open:
                alert.cleared_at = now
                self.log.append(now, "risk", "alert_cleared", {"kind": alert.kind})
                self.oracle.switch_reference(PRIMARY, now, "risk")
            return None
        raised = None
        if not episode_open:  # one alert per episode
            kind = ORACLE_STALE if finding == "stale" else ORACLE_DIVERGED
            self.oracle.switch_reference(SECONDARY, now, "risk")
            self.ledger.trip_breaker(now, f"oracle {finding}", source="risk")
            alert = raised = self.oracle_alert = self._raise(
                kind, now, "switched to secondary feed; circuit breaker engaged",
                {"finding": finding},
            )
        # credit the faults behind the samples judged: stale is the primary's alone
        for feed in (PRIMARY,) if finding == "stale" else (PRIMARY, SECONDARY):
            fault = self.oracle.feeds[feed].last_fault
            if fault is not None and fault.alert is None:
                fault.alert, fault.detected_ms = alert, now
        return raised

    def _check_reserve(self, now: int) -> Optional[RiskAlert]:
        supply = self.ledger.total_supply
        covered = supply <= self.ledger.attested_reserve + self.ledger.epsilon
        if not covered:
            raised = None
            if not self.ledger.issuance_paused:  # one alert per freeze
                self.ledger.set_issuance_paused(True, now, "risk")
                raised = self.shortfall_alert = self._raise(
                    RESERVE_SHORTFALL,
                    now,
                    "issuance frozen; operators alerted",
                    {"supply": supply, "reserve": self.ledger.attested_reserve},
                )
                self.clear_requested = False
            # credit the misreport behind the applied attestation to the open freeze
            fault = self.ledger.reserve_fault
            if fault is not None and fault.alert is None:
                fault.alert, fault.detected_ms = self.shortfall_alert, now
                fault.onset_ms = self.ledger.reserve_attested_at
            return raised
        # Unfreezing needs both a covering attestation and an explicit clear.
        if self.ledger.issuance_paused and self.clear_requested:
            self.shortfall_alert.cleared_at = now
            self.clear_requested = False
            self.ledger.set_issuance_paused(False, now, "risk")
            self.log.append(now, "risk", "alert_cleared", {"kind": RESERVE_SHORTFALL})
        return None

    def request_clear(self, now: int) -> None:
        """Manual/governance acknowledgement of a reserve shortfall alert."""
        self.clear_requested = True
        self.log.append(now, "risk", "clear_requested", {})

    def _check_concentration(self, now: int) -> list[RiskAlert]:
        touched, supply_changed = self.ledger.drain_touched()
        supply = self.ledger.total_supply
        if supply <= 0:
            return []
        candidates = self.ledger.balances.keys() if supply_changed else touched
        raised = []
        limit = self.config.concentration_limit
        for addr in candidates:
            if addr in PLATFORM_ADDRESSES:
                continue
            share = self.ledger.balance(addr) / supply
            flagged = self.flagged_holders.get(addr)
            if share > limit and flagged is None:
                alert = self._raise(
                    CONCENTRATION,
                    now,
                    "flagged for governance review",
                    {"address": addr, "share": round(share, 6)},
                )
                self.flagged_holders[addr] = alert
                raised.append(alert)
            elif share <= limit and flagged is not None:
                flagged.cleared_at = now
                del self.flagged_holders[addr]
        return raised

    # -- external alert intake ---------------------------------------------

    def governance_alert(self, kind: str, detail: dict) -> None:
        self._raise(kind, self.sched.now(), "governance change blocked", detail)
