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
from .agents.market_maker import MMConfig, MarketMakerAgent
from .agents.orchestrator import BUY, ISSUE, Orchestrator, REDEEM, SELL, UserState
from .agents.risk import RiskAgent, RiskConfig
from .config import ScenarioConfig
from .exchange import Exchange
from .governance import Governance
from .ledger import Ledger, ParamStore
from .metrics import MetricsCollector, write_alerts_csv, write_summary
from .oracle import OracleHub, PriceProcess, Regime
from .profiles import CorpusSpec, generate_profiles
from .sim import EventLog, Scheduler
from .units import from_micro, to_micro
from .vault import Vault

AUDITOR = "auditor-1"
MM_ADDRESS = "mm"
COLD_ADDRESS = "mm-cold"
ISSUER_ADDRESS = "issuance"


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
        self._active: set[str] = set()

    def user_ids(self) -> list[str]:
        return [f"user-{i:04d}" for i in range(1, self.config.user_count + 1)]

    def start_user(self, user_id: str) -> None:
        """Called once the user's onboarding finishes."""
        if user_id in self._active:
            return
        self._active.add(user_id)
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
        if report.user in self._active:
            self._schedule_next_closed(report.user)


class Simulation:
    def __init__(self, config: ScenarioConfig, events_stream=None):
        self.config = config
        self.sched = Scheduler(seed=config.seed)
        self.log = EventLog(stream=events_stream, keep=False)
        self.log.append(0, "harness", "scenario_start", {"config": config.to_dict(), "version": 1})

        self.ledger = Ledger(
            self.sched,
            self.log,
            params=ParamStore(dict(config.params)),
            block_interval_ms=config.block_interval_ms,
            commit_latency_ms=config.commit_latency_ms,
            commit_jitter_ms=config.commit_jitter_ms,
            authorized_auditors={AUDITOR},
            max_txs_per_block=config.max_txs_per_block,
        )
        self.vault = Vault(
            self.sched,
            self.log,
            to_micro(config.vault_initial_oz),
            auditor=AUDITOR,
            attestation_interval_ms=config.attestation_interval_ms,
            submit_attestation=lambda amount, auditor: self.ledger.submit_tx(
                "set_reserve", auditor, {"amount": amount}
            ),
        )
        regimes = [Regime(r.start_ms, r.sigma_per_s) for r in config.price.regimes]
        self.oracle = OracleHub(
            self.sched,
            self.log,
            PriceProcess(
                config.price.initial_usd_per_oz,
                self.sched.fork_rng("price"),
                drift_per_s=config.price.drift_per_s,
                regimes=regimes,
            ),
            self.sched.fork_rng("secondary-noise"),
            secondary_noise_frac=config.secondary_noise_frac,
            post_price=lambda feed, price: self.ledger.submit_tx(
                "post_price", feed, {"feed": feed, "price": price}
            ),
        )
        self.exchange = Exchange(
            self.sched,
            self.log,
            self.ledger,
            onboarded=lambda addr: self.orchestrator.is_approved(addr),
            settle_interval_ms=config.block_interval_ms,
            log_trades=config.log_trades,
        )
        self.compliance = ComplianceAgent(
            disallowed_regions=set(config.compliance.disallowed_regions),
            confidence_threshold=config.compliance.confidence_threshold,
        )
        risk_cfg = RiskConfig(
            cycle_ms=config.risk.cycle_ms,
            phase_ms=config.risk.phase_ms,
            staleness_threshold_ms=config.risk.staleness_threshold_ms,
            divergence_threshold=config.risk.divergence_threshold,
            concentration_limit=config.risk.concentration_limit,
            service_rate=config.risk.service_rate,
            admission_headroom=config.risk.admission_headroom,
            base_monitor_events=config.risk.base_monitor_events,
            exempt_addresses=frozenset({MM_ADDRESS, COLD_ADDRESS, ISSUER_ADDRESS}),
        )
        self.governance = Governance(self.ledger, alert_sink=None)
        self.risk = RiskAgent(
            self.sched, self.log, self.ledger,
            oracle=self.oracle, config=risk_cfg, governance=self.governance,
        )
        self.governance.alert_sink = self.risk.governance_alert
        self.issuance = IssuanceAgent(
            self.sched, self.log, self.ledger, self.vault,
            self.sched.fork_rng("agent-delays"),
            is_approved=lambda addr: self.orchestrator.is_approved(addr),
            is_frozen=lambda: self.risk.issuance_frozen,
            processing_mean_ms=config.issuance.processing_mean_ms,
            processing_sigma_ms=config.issuance.processing_sigma_ms,
            processing_min_ms=config.issuance.processing_min_ms,
        )
        mm_cfg = MMConfig(
            base_half_spread=config.mm.base_half_spread,
            vol_coeff=config.mm.vol_coeff,
            half_spread_cap=config.mm.half_spread_cap,
            ladder_offsets=tuple(config.mm.ladder_offsets),
            level_qty_oz=config.mm.level_qty_oz,
            inv_limit_oz=config.mm.inv_limit_oz,
            rebalance_threshold_oz=config.mm.rebalance_threshold_oz,
            skew_coeff=config.mm.skew_coeff,
            vol_window_s=config.mm.vol_window_s,
            address=MM_ADDRESS,
            cold_address=COLD_ADDRESS,
        )
        self.mm = MarketMakerAgent(
            self.sched, self.log, self.ledger, self.exchange, self.oracle,
            issuance=self.issuance, config=mm_cfg, baseline_oz=config.mm.baseline_oz,
        )
        self.metrics = MetricsCollector(
            self.sched, exchange=self.exchange, mm=self.mm, ledger=self.ledger,
            risk=self.risk, oracle=self.oracle,
            sample_interval_ms=config.sample_interval_ms,
        )
        self.loadgen = LoadGenerator(self)
        self.orchestrator = Orchestrator(
            self.sched, self.log, self.ledger, self.exchange,
            self.compliance, self.issuance, self.risk,
            self.sched.fork_rng("orchestration"),
            oracle=self.oracle,
            pre_trade_mean_ms=config.pre_trade_mean_ms,
            pre_trade_sigma_ms=config.pre_trade_sigma_ms,
            order_style=config.order_style,
            order_expiry_ms=config.order_expiry_ms,
            limit_offset_bps=tuple(config.limit_offset_bps),
            on_report=self._on_report,
            log_workflows=config.log_workflows,
        )
        for addr in (MM_ADDRESS, COLD_ADDRESS, ISSUER_ADDRESS):
            self.orchestrator.register_platform(addr)
        self._genesis()

    def _on_report(self, report) -> None:
        self.metrics.on_report(report)
        if report.kind == "onboard" and report.ok:
            state = self.orchestrator.users.get(report.user)
            if state is not None and self.config.prefund_oz > 0:
                state.holdings = to_micro(self.config.prefund_oz)
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
            for user_id in self.loadgen.user_ids():
                self.vault.lock_for_issuance(amount)
                self.ledger.genesis_mint(user_id, amount)

    # -- schedule construction ---------------------------------------------------

    def _schedule_onboarding(self) -> None:
        profiles = generate_profiles(
            CorpusSpec(clean=self.config.user_count), self.sched.fork_rng("profiles")
        )
        if self.config.preapproved_users:
            for profile in profiles:
                state = UserState(profile, approved=True)
                state.holdings = to_micro(self.config.prefund_oz)
                self.orchestrator.users[profile.user_id] = state
                self.loadgen.start_user(profile.user_id)
            return
        for profile in profiles:
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
        for fault in self.config.fault_schedule:
            if fault.target == "oracle":
                self.sched.schedule(
                    fault.start_ms, 4, "fault_on",
                    lambda f=fault: self.oracle.inject_fault(
                        f.feed, f.kind, self.sched.now(), offset_fraction=f.magnitude
                    ),
                )
                self.sched.schedule(
                    fault.start_ms + fault.duration_ms, 4, "fault_off",
                    lambda f=fault: self.oracle.restore(f.feed, self.sched.now()),
                )
            else:
                self.sched.schedule(
                    fault.start_ms, 4, "fault_on",
                    lambda f=fault: self.vault.inject_misreport(f.magnitude, self.sched.now()),
                )
                self.sched.schedule(
                    fault.start_ms + fault.duration_ms, 4, "fault_off",
                    lambda f=fault: self.vault.restore(self.sched.now()),
                )

    def _schedule_governance(self) -> None:
        for entry in self.config.governance_schedule:
            action = entry["action"]
            if action == "param_proposal":
                self._schedule_param_proposal(entry)
            elif action == "agent_update":
                self._schedule_agent_update(entry)
            elif action == "unpause":
                self.sched.schedule(
                    entry["at_ms"], 2, "gov_unpause",
                    lambda: self.governance.governance_unpause(self.sched.now()),
                )

    def _schedule_param_proposal(self, entry: dict) -> None:
        holder: dict = {}

        def propose() -> None:
            holder["proposal"] = self.governance.propose_param(
                entry["param"], entry["value"], self.sched.now(),
                timelock_ms=entry.get("timelock_ms"),
            )

        def vote() -> None:
            for voter, support in entry.get("votes", []):
                self.governance.vote(holder["proposal"], voter, support)

        def execute() -> None:
            self.governance.submit_execute_tx(holder["proposal"])

        propose_at = entry["propose_at_ms"]
        self.sched.schedule(propose_at, 2, "gov_propose", propose)
        self.sched.schedule(entry.get("vote_at_ms", propose_at + 1000), 2, "gov_vote", vote)
        if "execute_at_ms" in entry:
            self.sched.schedule(entry["execute_at_ms"], 2, "gov_execute", execute)

    def _schedule_agent_update(self, entry: dict) -> None:
        holder: dict = {}

        def propose_and_sign(signer: str) -> None:
            if "proposal" not in holder:
                holder["proposal"] = self.governance.propose_update(
                    entry["agent"], entry["version"]
                )
            self.governance.sign_update(holder["proposal"], signer)

        for signer, at_ms in zip(entry["signers"], entry["sign_at_ms"]):
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

    def _schedule_ops(self) -> None:
        for entry in self.config.ops_schedule:
            if entry["action"] == "clear_risk_alert":
                self.sched.schedule(
                    entry["at_ms"], 2, "ops_clear",
                    lambda: self.risk.request_clear(self.sched.now()),
                )
            elif entry["action"] == "deposit_physical":
                self.sched.schedule(
                    entry["at_ms"], 2, "ops_deposit",
                    lambda e=entry: self.vault.deposit_physical(to_micro(e["amount_oz"])),
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
        self._schedule_governance()
        self._schedule_ops()
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
        """Join the fault schedule with alerts: one row per injected fault."""
        kind_map = {
            "stuck": ("OracleStale", "OracleDiverged"),
            "spoofed": ("OracleDiverged", "OracleStale"),
            "misreport": ("ReserveShortfall",),
        }
        findings = []
        for fault in self.config.fault_schedule:
            onset = fault.start_ms
            if fault.kind == "misreport":
                # observable when the first short-reporting attestation lands on-chain
                short = next(
                    (a for a in self.vault.short_attestations if a[0] >= fault.start_ms), None
                )
                if short is not None:
                    onset = next(
                        (t for t, amount in self.ledger.reserve_attestations
                         if t > short[0] and amount == short[1]),
                        onset,
                    )
            accepted = kind_map.get(fault.kind, ())
            matches = [
                a for a in self.risk.alerts
                if a.kind in accepted and a.raised_at >= fault.start_ms
            ]
            row = {
                "target": fault.target,
                "fault": fault.kind,
                "onset_ms": onset,
                "kind": matches[0].kind if matches else "",
                "detected_ms": matches[0].raised_at if matches else "",
                "latency_ms": matches[0].raised_at - onset if matches else "",
                "action": matches[0].action_taken if matches else "undetected",
            }
            findings.append(row)
        return findings


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
