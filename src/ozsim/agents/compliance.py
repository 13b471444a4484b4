"""Compliance screening: KYC outcomes over synthetic user profiles.

External identity services are replaced by per-profile attributes (sanctions
hit, document validity, face-match confidence).  A profile is denied outright
on hard failures, routed to manual review on a low-confidence face match, and
auto-approved otherwise with a processing delay drawn from the calibrated
distribution.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from ..config import ComplianceSpec
from ..sim import RngStream

APPROVED = "approved"
MANUAL_REVIEW = "manual_review"
DENIED = "denied"

# Calibrated processing delays: automatic screening, then staff review.
AUTO_MEAN_MS = 168_000
AUTO_SIGMA_MS = 30_000
AUTO_MIN_MS = 60_000
REVIEW_MIN_MS = 600_000
REVIEW_MAX_MS = 7_200_000


@dataclass(frozen=True)
class UserProfile:
    user_id: str
    region: str = "SG"
    sanctions_match: bool = False
    face_match_confidence: float = 0.97
    docs_valid: bool = True
    tier: int = 1

    def __post_init__(self) -> None:
        if not 0.0 <= self.face_match_confidence <= 1.0:
            raise ValueError("face match confidence must be in [0, 1]")


@dataclass(frozen=True)
class ComplianceDecision:
    outcome: str
    decided_at: int
    processing_time_ms: int
    reason: Optional[str] = None
    # set only for manual reviews: when staff resolve the case
    resolved_at: Optional[int] = None
    resolution: Optional[str] = None


class ComplianceAgent:
    """Rule-based screening tuned to err toward manual review."""

    def __init__(self, config: ComplianceSpec):
        self.config = config
        self.decisions: dict[str, ComplianceDecision] = {}

    def screen(self, profile: UserProfile, now: int, rng: RngStream) -> ComplianceDecision:
        if profile.user_id in self.decisions:
            raise ValueError(f"{profile.user_id} already screened")
        delay = max(AUTO_MIN_MS, round(rng.gauss(AUTO_MEAN_MS, AUTO_SIGMA_MS)))
        decided_at = now + delay
        if profile.sanctions_match:
            decision = ComplianceDecision(DENIED, decided_at, delay, reason="sanctions list match")
        elif profile.region in self.config.disallowed_regions:
            decision = ComplianceDecision(DENIED, decided_at, delay, reason="region not permitted")
        elif not profile.docs_valid:
            decision = ComplianceDecision(DENIED, decided_at, delay, reason="document verification failed")
        elif profile.face_match_confidence < self.config.confidence_threshold:
            review_delay = round(rng.uniform(REVIEW_MIN_MS, REVIEW_MAX_MS))
            decision = ComplianceDecision(
                MANUAL_REVIEW,
                decided_at,
                delay,
                reason="low-confidence face match",
                resolved_at=decided_at + review_delay,
                resolution=APPROVED,
            )
        else:
            decision = ComplianceDecision(APPROVED, decided_at, delay)
        self.decisions[profile.user_id] = decision
        return decision
