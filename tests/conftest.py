"""Shared wiring helpers for agent-level tests."""

import pytest

from ozsim.agents.compliance import ComplianceAgent
from ozsim.agents.issuance import IssuanceAgent
from ozsim.agents.market_maker import MarketMakerAgent, MMConfig
from ozsim.agents.orchestrator import Orchestrator
from ozsim.agents.risk import RiskAgent, RiskConfig
from ozsim.exchange import Exchange
from ozsim.ledger import Ledger, ParamStore
from ozsim.oracle import OracleHub, PriceProcess, Regime
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
        risk_config=None,
        start_mm=False,
        order_style="market",
    ):
        self.sched = Scheduler(seed=seed)
        self.log = EventLog()
        self.ledger = Ledger(
            self.sched, self.log, authorized_auditors={"auditor-1"}
        )
        self.vault = Vault(
            self.sched, self.log, to_micro(vault_oz),
            submit_attestation=lambda amount, auditor: self.ledger.submit_tx(
                "set_reserve", auditor, {"amount": amount}
            ),
        )
        self.oracle = OracleHub(
            self.sched, self.log,
            PriceProcess(2400.0, self.sched.fork_rng("price"), regimes=regimes),
            self.sched.fork_rng("secondary-noise"),
            post_price=lambda feed, price: self.ledger.submit_tx(
                "post_price", feed, {"feed": feed, "price": price}
            ),
        )
        self.exchange = Exchange(
            self.sched, self.log, self.ledger, onboarded=self._onboarded
        )
        self.compliance = ComplianceAgent()
        risk_config = risk_config or RiskConfig(
            exempt_addresses=frozenset({"mm", "mm-cold", "issuance"})
        )
        self.risk = RiskAgent(
            self.sched, self.log, self.ledger, oracle=self.oracle, config=risk_config
        )
        self.issuance = IssuanceAgent(
            self.sched, self.log, self.ledger, self.vault,
            self.sched.fork_rng("agent-delays"),
            is_approved=self._approved,
            is_frozen=lambda: self.risk.issuance_frozen,
            processing_sigma_ms=issuance_sigma,
        )
        self.mm = MarketMakerAgent(
            self.sched, self.log, self.ledger, self.exchange, self.oracle,
            issuance=self.issuance, baseline_oz=mm_baseline_oz,
        )
        self.orchestrator = Orchestrator(
            self.sched, self.log, self.ledger, self.exchange,
            self.compliance, self.issuance, self.risk,
            self.sched.fork_rng("orchestration"),
            oracle=self.oracle,
            pre_trade_sigma_ms=pre_trade_sigma,
            order_style=order_style,
            on_report=self._collect_report,
        )
        self.orchestrator.register_platform("mm")
        self.orchestrator.register_platform("mm-cold")
        self.orchestrator.register_platform("issuance")
        self.reports = []

        # genesis: attested reserve equals vault holdings; MM endowment minted
        self.ledger.set_genesis_reserve(self.vault.total_micro_oz)
        if mm_baseline_oz:
            endowment = to_micro(mm_baseline_oz)
            self.vault.lock_for_issuance(endowment)
            self.ledger.genesis_mint("mm", endowment)
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
