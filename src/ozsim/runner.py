"""Scenario runner: wires every module, generates load, and produces outputs.

run_scenario() is a pure function of (config, seed): identical inputs give a
byte-identical event log and the same metrics digest.  Outputs, when an output
directory is given: events.jsonl, metrics.csv, alerts.csv, summary.json.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

from .agents.compliance import ComplianceAgent
from .agents.issuance import IssuanceAgent
from .agents.market_maker import MM_ADDRESS, MarketMakerAgent
from .agents.orchestrator import BUY, ISSUE, Orchestrator, REDEEM, SELL, UserState
from .agents.risk import RiskAgent
from .config import AgentUpdate, ClearRiskAlert, Fault, ParamProposal, ScenarioConfig, Unpause
from .exchange import Exchange
from .governance import Governance
from .ledger import Ledger
from .metrics import MetricsCollector, write_alerts_csv, write_summary
from .oracle import OracleHub
from .profiles import CorpusSpec, generate_profiles
from .sim import EventLog, Scheduler
from .units import from_micro, to_micro
from .vault import Vault


@dataclass
class RunResult:
    config: ScenarioConfig
    summary: dict
    digest: str
    out_dir: Optional[Path]
    sim: "Simulation"


class LoadGenerator:
    """Synthetic users: open-loop Poisson arrivals or closed-loop think time."""

    def __init__(self, sim: "Simulation"):
        self.sim = sim
        self.config = sim.config
        self.rng = sim.sched.fork_rng("load")
        self.size_rng = sim.sched.fork_rng("sizes")
        self._mix = sorted(self.config.action_mix.items())
        # One list, so the ledger, the orchestrator and the load share its strings.
        self._user_ids = [f"user-{i:04d}" for i in range(1, self.config.user_count + 1)]

    def user_ids(self) -> list[str]:
        return self._user_ids

    def start_user(self, user_id: str) -> None:
        """Start the user's load; called exactly once per user, when its
        onboarding approves it (by the onboard report or as preapproved).

        Nothing guards a second call, which would start a second stream of
        actions for the user.
        """
        if self.config.load_model == "closed":
            self._schedule_next_closed(user_id)
        elif self.config.user_arrival_hz > 0:
            self._schedule_next_open(user_id)

    def _draw_kind(self, user_id: str) -> str:
        r = self.rng.random()
        acc = 0.0
        kind = self._mix[-1][0]
        for name, weight in self._mix:
            acc += weight
            if r < acc:
                kind = name
                break
        if kind in (SELL, REDEEM) and self.sim.orchestrator.holdings(user_id) <= 0:
            kind = BUY if "buy" in self.config.action_mix else ISSUE
        return kind

    def _draw_size(self) -> int:
        spec = self.config.order_size
        draw = self.size_rng.lognormvariate(math.log(spec.median_oz), spec.sigma)
        return to_micro(min(max(draw, spec.min_oz), spec.max_oz))

    def _fire(self, user_id: str) -> None:
        kind = self._draw_kind(user_id)
        amount = self._draw_size()
        if kind in (SELL, REDEEM):
            amount = min(amount, self.sim.orchestrator.holdings(user_id))
        self.sim.orchestrator.handle(kind, user_id, amount)

    # open loop: next arrival is independent of workflow completion
    def _schedule_next_open(self, user_id: str) -> None:
        gap_ms = round(self.rng.expovariate(self.config.user_arrival_hz) * 1000)

        def fire() -> None:
            self._schedule_next_open(user_id)
            self._fire(user_id)

        self.sim.sched.schedule_in(max(gap_ms, 1), 2, "user_action", fire)

    # closed loop: think after completion, then act again
    def _schedule_next_closed(self, user_id: str) -> None:
        think_ms = round(self.rng.expovariate(1.0 / self.config.think_time_ms))
        self.sim.sched.schedule_in(max(think_ms, 1), 2, "user_action", lambda: self._fire(user_id))

    def on_report(self, report) -> None:
        if self.config.load_model != "closed":
            return
        if report.kind == "onboard":
            return
        # Users are started exactly when approved, so this continues the
        # started ones; a burst issue from a user not yet approved is not.
        if self.sim.orchestrator.is_approved(report.user):
            self._schedule_next_closed(report.user)


class Simulation:
    def __init__(self, config: ScenarioConfig, events_stream=None):
        self.config = config
        self.sched = Scheduler(seed=config.seed)
        self.log = EventLog(stream=events_stream)
        self.log.append(0, "harness", "scenario_start", {"config": config.to_dict(), "version": 1})

        self.ledger = Ledger(self.sched, self.log, config)
        self.vault = Vault(self.sched, self.log, config, self.ledger)
        self.oracle = OracleHub(self.sched, self.log, config, self.ledger)
        self.exchange = Exchange(
            self.sched, self.log, self.ledger, config,
            onboarded=lambda addr: self.orchestrator.is_approved(addr),
        )
        self.compliance = ComplianceAgent(config.compliance)
        self.governance = Governance(self.ledger)
        self.risk = RiskAgent(
            self.sched, self.log, self.ledger, config.risk,
            oracle=self.oracle, governance=self.governance,
        )
        self.governance.alert_sink = self.risk.governance_alert
        self.issuance = IssuanceAgent(
            self.sched, self.log, self.ledger, self.vault,
            self.sched.fork_rng("agent-delays"),
            is_approved=lambda addr: self.orchestrator.is_approved(addr),
            config=config.issuance,
        )
        self.mm = MarketMakerAgent(
            self.sched, self.log, self.ledger, self.exchange, self.oracle,
            self.issuance, config.mm,
        )
        self.metrics = MetricsCollector(
            self.sched, self.exchange, self.mm, self.ledger, self.risk, self.oracle,
            config.sample_interval_ms,
        )
        self.loadgen = LoadGenerator(self)
        self.orchestrator = Orchestrator(
            self.sched, self.log, self.ledger, self.exchange,
            self.compliance, self.issuance, self.risk,
            self.sched.fork_rng("orchestration"), self.oracle, config,
            on_report=self._on_report,
        )
        self.faults = [Fault(spec, spec.start_ms) for spec in config.fault_schedule]
        self._genesis()

    def _on_report(self, report) -> None:
        self.metrics.on_report(report)
        if report.kind == "onboard" and report.ok:
            self.loadgen.start_user(report.user)
        else:
            self.loadgen.on_report(report)

    def _genesis(self) -> None:
        config = self.config
        self.ledger.set_genesis_reserve(self.vault.total_micro_oz)
        if config.mm.enabled and config.mm.baseline_oz > 0:
            endowment = to_micro(config.mm.baseline_oz)
            self.vault.lock_for_issuance(endowment)
            self.ledger.genesis_mint(MM_ADDRESS, endowment)
        if config.prefund_oz > 0 and config.user_count > 0:
            amount = to_micro(config.prefund_oz)
            users = self.loadgen.user_ids()
            self.vault.lock_for_issuance(amount * len(users))  # one lock covers every allocation
            self.ledger.genesis_allocate(users, amount)

    # -- schedule construction ---------------------------------------------------

    def _schedule_onboarding(self) -> None:
        if self.config.preapproved_users:
            for user_id in self.loadgen.user_ids():
                self.orchestrator.users[user_id] = UserState(
                    approved=True, holdings=to_micro(self.config.prefund_oz)
                )
                self.loadgen.start_user(user_id)
            return
        for profile in generate_profiles(
            CorpusSpec(clean=self.config.user_count), self.sched.fork_rng("profiles")
        ):
            self.orchestrator.onboard(profile)

    def _schedule_burst(self) -> None:
        burst = self.config.issue_burst
        if burst is None:
            return
        users = self.loadgen.user_ids()
        rng = self.sched.fork_rng("burst")
        times = sorted(
            round(rng.uniform(burst.window_start_ms, burst.window_end_ms))
            for _ in range(burst.count)
        )
        amount = to_micro(burst.size_oz)
        for i, t in enumerate(times):
            user = users[i % len(users)]
            self.sched.schedule(
                t, 2, "burst_issue",
                lambda u=user: self.orchestrator.handle(ISSUE, u, amount),
            )

    def _schedule_faults(self) -> None:
        now = self.sched.now
        for fault in self.faults:
            spec = fault.spec
            if spec.target == "oracle":
                on, off = (lambda f=fault: self.oracle.inject_fault(f, now()),
                           lambda f=fault: self.oracle.restore(f, now()))
            else:
                on, off = (lambda f=fault: self.vault.inject_misreport(f, now()),
                           lambda f=fault: self.vault.restore(f, now()))
            self.sched.schedule(spec.start_ms, 4, "fault_on", on)
            self.sched.schedule(spec.start_ms + spec.duration_ms, 4, "fault_off", off)

    def _schedule_actions(self) -> None:
        """The governance schedule, then the ops schedule, each in file order."""
        now = self.sched.now
        for entry in self.config.governance_schedule + self.config.ops_schedule:
            if isinstance(entry, ParamProposal):
                self._schedule_param_proposal(entry)
            elif isinstance(entry, AgentUpdate):
                self._schedule_agent_update(entry)
            elif isinstance(entry, Unpause):
                self.sched.schedule(entry.at_ms, 2, "gov_unpause",
                                    lambda: self.governance.governance_unpause(now()))
            elif isinstance(entry, ClearRiskAlert):
                self.sched.schedule(entry.at_ms, 2, "ops_clear",
                                    lambda: self.risk.request_clear(now()))
            else:
                self.sched.schedule(entry.at_ms, 2, "ops_deposit", lambda e=entry:
                                    self.vault.deposit_physical(to_micro(e.amount_oz)))

    def _schedule_param_proposal(self, entry: ParamProposal) -> None:
        holder: dict = {}

        def propose() -> None:
            holder["proposal"] = self.governance.propose_param(
                entry.param, entry.value, self.sched.now(), timelock_ms=entry.timelock_ms,
            )

        def vote() -> None:
            for voter, support in entry.votes:
                self.governance.vote(holder["proposal"], voter, support)

        def execute() -> None:
            self.governance.submit_execute_tx(holder["proposal"])

        self.sched.schedule(entry.propose_at_ms, 2, "gov_propose", propose)
        self.sched.schedule(entry.vote_at_ms, 2, "gov_vote", vote)
        if entry.execute_at_ms is not None:
            self.sched.schedule(entry.execute_at_ms, 2, "gov_execute", execute)

    def _schedule_agent_update(self, entry: AgentUpdate) -> None:
        holder: dict = {}

        def propose_and_sign(signer: str) -> None:
            if "proposal" not in holder:
                holder["proposal"] = self.governance.propose_update(entry.agent, entry.version)
            self.governance.sign_update(holder["proposal"], signer)

        for signer, at_ms in zip(entry.signers, entry.sign_at_ms):
            self.sched.schedule(
                at_ms, 2, "gov_sign", lambda s=signer: propose_and_sign(s)
            )

    def _schedule_snapshots(self) -> None:
        interval = self.config.snapshot_interval_ms
        if interval > 0:
            self.sched.every(
                interval, interval, 5, "state_snapshot",
                lambda: self.log.append(
                    self.sched.now(), "ledger", "state_snapshot", self.ledger.snapshot()
                ),
            )

    # -- execution ------------------------------------------------------------

    def execute(self) -> str:
        """Run to the configured duration; returns the event-log digest."""
        config = self.config
        self.ledger.start()
        self.oracle.start()
        self.vault.start()
        self.exchange.start_settlement()
        self.risk.start()
        if config.mm.enabled:
            self.mm.start()
        self.metrics.start()
        self._schedule_onboarding()
        self._schedule_burst()
        self._schedule_faults()
        self._schedule_actions()
        self._schedule_snapshots()
        self.sched.run_until(config.duration_ms)
        return self.log.digest()

    # -- post-run extraction -------------------------------------------------

    def alerts(self) -> list[dict]:
        return [
            {
                "kind": a.kind,
                "raised_at": a.raised_at,
                "action": a.action_taken,
                "cleared_at": a.cleared_at,
                "detail": a.detail,
            }
            for a in self.risk.alerts
        ]

    def fault_findings(self) -> list[dict]:
        """One row per scheduled fault: the first alert credited to it, if any."""
        return [
            {
                "target": f.spec.target,
                "fault": f.spec.kind,
                "onset_ms": f.onset_ms,
                "kind": f.alert.kind if f.alert else "",
                "detected_ms": f.detected_ms if f.alert else "",
                "latency_ms": f.detected_ms - f.onset_ms if f.alert else "",
                "action": f.alert.action_taken if f.alert else "undetected",
            }
            for f in self.faults
        ]


def run_scenario(
    config: ScenarioConfig,
    out_dir: Optional[str | Path] = None,
) -> RunResult:
    out_path: Optional[Path] = None
    events_fh = None
    if out_dir is not None:
        out_path = Path(out_dir)
        out_path.mkdir(parents=True, exist_ok=True)
        events_fh = open(out_path / "events.jsonl", "w", encoding="utf-8")
    try:
        sim = Simulation(config, events_stream=events_fh)
        digest = sim.execute()
        outcomes: dict[str, int] = {}
        for decision in sim.compliance.decisions.values():
            outcomes[decision.outcome] = outcomes.get(decision.outcome, 0) + 1
        summary = sim.metrics.summary(
            config=config,
            digest=digest,
            alerts=sim.alerts(),
            halts=sim.ledger.halts,
            fault_findings=sim.fault_findings(),
            extra={"supply_oz": from_micro(sim.ledger.total_supply),
                   "reserve_oz": from_micro(sim.ledger.attested_reserve),
                   "compliance_outcomes": outcomes},
        )
        sim.log.append(
            config.duration_ms, "harness", "scenario_end",
            {"digest": digest, "records": sim.log.count},
        )
    finally:
        if events_fh is not None:
            events_fh.close()
    if out_path is not None:
        sim.metrics.write_csv(out_path / "metrics.csv")
        write_summary(summary, out_path / "summary.json")
        write_alerts_csv(summary["fault_findings"], out_path / "alerts.csv")
    return RunResult(config, summary, digest, out_path, sim)
