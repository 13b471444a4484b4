from .compliance import ComplianceAgent, ComplianceDecision, UserProfile
from .issuance import IssuanceAgent
from .market_maker import MarketMakerAgent
from .risk import AdmissionGate, RiskAgent, RiskAlert
from .orchestrator import Orchestrator

__all__ = [
    "AdmissionGate",
    "ComplianceAgent",
    "ComplianceDecision",
    "IssuanceAgent",
    "MarketMakerAgent",
    "Orchestrator",
    "RiskAgent",
    "RiskAlert",
    "UserProfile",
]
