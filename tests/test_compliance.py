import statistics

import pytest

from ozsim.agents.compliance import (
    APPROVED,
    ComplianceAgent,
    DENIED,
    MANUAL_REVIEW,
    UserProfile,
)
from ozsim.config import ComplianceSpec
from ozsim.sim import RngStream


def rng():
    return RngStream(99, "compliance")


def test_sanctions_match_denied():
    agent = ComplianceAgent(ComplianceSpec())
    profile = UserProfile("u1", sanctions_match=True)
    decision = agent.screen(profile, 0, rng())
    assert decision.outcome == DENIED
    assert decision.reason == "sanctions list match"


def test_disallowed_region_denied():
    agent = ComplianceAgent(ComplianceSpec(disallowed_regions=["XX"]))
    decision = agent.screen(UserProfile("u1", region="XX"), 0, rng())
    assert decision.outcome == DENIED


def test_invalid_docs_denied():
    agent = ComplianceAgent(ComplianceSpec())
    decision = agent.screen(UserProfile("u1", docs_valid=False), 0, rng())
    assert decision.outcome == DENIED


def test_low_confidence_goes_to_manual_review_resolved_within_two_hours():
    agent = ComplianceAgent(ComplianceSpec())
    decision = agent.screen(UserProfile("u1", face_match_confidence=0.85), 0, rng())
    assert decision.outcome == MANUAL_REVIEW
    assert decision.resolution == APPROVED
    assert decision.resolved_at - decision.decided_at <= 7_200_000


def test_confidence_at_threshold_auto_approves():
    agent = ComplianceAgent(ComplianceSpec())
    decision = agent.screen(UserProfile("u1", face_match_confidence=0.90), 0, rng())
    assert decision.outcome == APPROVED


def test_duplicate_screening_rejected():
    agent = ComplianceAgent(ComplianceSpec())
    agent.screen(UserProfile("u1"), 0, rng())
    with pytest.raises(ValueError):
        agent.screen(UserProfile("u1"), 0, rng())


def test_processing_time_is_floored():
    agent = ComplianceAgent(ComplianceSpec())
    stream = rng()
    for i in range(2000):
        decision = agent.screen(UserProfile(f"u{i}"), 0, stream)
        assert decision.processing_time_ms >= 60_000


def test_clean_corpus_mean_processing_time():
    # 10k clean tier-1 profiles: mean auto-approval time 168 s within 5 s.
    agent = ComplianceAgent(ComplianceSpec())
    stream = rng()
    times = []
    for i in range(10_000):
        decision = agent.screen(UserProfile(f"u{i}"), 0, stream)
        assert decision.outcome == APPROVED
        times.append(decision.processing_time_ms)
    mean_s = statistics.fmean(times) / 1000
    assert abs(mean_s - 168.0) <= 5.0
    assert statistics.stdev(times) / 1000 == pytest.approx(30.0, rel=0.1)
