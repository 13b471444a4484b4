"""Shared wiring helpers for agent-level tests."""

import io

import pytest

from ozsim.agents.compliance import ComplianceAgent
from ozsim.agents.issuance import ISSUER_ADDRESS, IssuanceAgent
from ozsim.agents.market_maker import COLD_ADDRESS, MM_ADDRESS, MarketMakerAgent
from ozsim.agents.orchestrator import Orchestrator
from ozsim.agents.risk import RiskAgent
from ozsim.config import (
    ComplianceSpec, IssuanceSpec, MMSpec, PriceSpec, RiskSpec, ScenarioConfig,
)
from ozsim.exchange import Exchange
from ozsim.ledger import Ledger
from ozsim.oracle import OracleHub, Regime
from ozsim.sim import EventLog, Scheduler
from ozsim.units import to_micro
from ozsim.vault import Vault


class World:
    """Minimal full wiring: ledger, vault, oracle, exchange, and agents."""

    def __init__(
        self,
        seed=7,
        vault_oz=1000.0,
        mm_baseline_oz=300.0,
        genesis_balances=None,
        regimes=None,
        issuance_sigma=50.0,
        pre_trade_sigma=50.0,
        start_mm=False,
        order_style="market",
    ):
        self.sched = Scheduler(seed=seed)
        self.log_stream = io.StringIO()
        self.log = EventLog(self.log_stream)
        # zero volatility unless a test sets the regimes
        config = ScenarioConfig(
            "world", seed, 0, pre_trade_sigma_ms=pre_trade_sigma, order_style=order_style,
            vault_initial_oz=vault_oz, price=PriceSpec(regimes=regimes or [Regime(0, 0.0)]),
        )
        self.ledger = Ledger(self.sched, self.log, config)
        self.vault = Vault(
            self.sched, self.log, config,
            submit_attestation=lambda amount, auditor: self.ledger.submit_tx(
                "set_reserve", auditor, (amount, auditor)
            ),
        )
        self.oracle = OracleHub(
            self.sched, self.log, config,
            post_price=lambda feed, price: self.ledger.submit_tx(
                "post_price", feed, (feed, price)
            ),
        )
        self.exchange = Exchange(
            self.sched, self.log, self.ledger, config, onboarded=self._onboarded
        )
        self.compliance = ComplianceAgent(ComplianceSpec())
        self.risk = RiskAgent(
            self.sched, self.log, self.ledger, RiskSpec(), oracle=self.oracle
        )
        self.issuance = IssuanceAgent(
            self.sched, self.log, self.ledger, self.vault,
            self.sched.fork_rng("agent-delays"),
            is_approved=self._approved,
            is_frozen=lambda: self.risk.issuance_frozen,
            config=IssuanceSpec(processing_sigma_ms=issuance_sigma),
        )
        self.mm = MarketMakerAgent(
            self.sched, self.log, self.ledger, self.exchange, self.oracle,
            self.issuance, MMSpec(baseline_oz=mm_baseline_oz),
        )
        self.orchestrator = Orchestrator(
            self.sched, self.log, self.ledger, self.exchange,
            self.compliance, self.issuance, self.risk,
            self.sched.fork_rng("orchestration"), self.oracle, config,
            on_report=self._collect_report,
        )
        for addr in (MM_ADDRESS, COLD_ADDRESS, ISSUER_ADDRESS):
            self.orchestrator.register_platform(addr)
        self.reports = []

        # genesis: attested reserve equals vault holdings; MM endowment minted
        self.ledger.set_genesis_reserve(self.vault.total_micro_oz)
        if mm_baseline_oz:
            endowment = to_micro(mm_baseline_oz)
            self.vault.lock_for_issuance(endowment)
            self.ledger.genesis_mint(MM_ADDRESS, endowment)
        for addr, oz in (genesis_balances or {}).items():
            amount = to_micro(oz)
            self.vault.lock_for_issuance(amount)
            self.ledger.genesis_mint(addr, amount)

        self.ledger.start()
        self.oracle.start()
        self.vault.start()
        self.exchange.start_settlement()
        self.risk.start()
        if start_mm:
            self.mm.start()

    def _collect_report(self, report):
        self.reports.append(report)

    def _approved(self, address):
        return self.orchestrator.is_approved(address)

    def _onboarded(self, address):
        return self.orchestrator.is_approved(address)

    def run_to(self, t_ms):
        self.sched.run_until(t_ms)


@pytest.fixture
def world_factory():
    return World
