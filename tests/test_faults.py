"""Each scheduled fault is one record: it acts for its own scheduled span, and
its finding is the first alert raised on observations it shaped."""

import dataclasses

from ozsim.config import FaultSpec, load_bundled, load_config
from ozsim.runner import Simulation

STUCK = {"target": "oracle", "kind": "stuck", "feed": "primary",
         "start_ms": 600_000, "duration_ms": 120_000}
SPOOF = {"target": "oracle", "kind": "spoofed", "feed": "primary",
         "start_ms": 650_000, "duration_ms": 300_000, "magnitude": 0.01}


def inline(*faults):
    return load_config({"name": "faults", "seed": 3, "duration_ms": 1_800_000,
                        "user_count": 20, "user_arrival_hz": 0.05,
                        "fault_schedule": list(faults)})


def run_recording(config, tx_kind):
    """Run config; returns the finished Simulation and (t, args, context) of
    every `tx_kind` tx submitted, where context is what the test compares with."""
    sim = Simulation(config)
    submit, submitted = sim.ledger.submit_tx, []

    def recording(kind, sender, args, on_receipt=None):
        if kind == tx_kind:
            context = sim.oracle.true_price if kind == "post_price" else sim.vault.total_micro_oz
            submitted.append((sim.sched.now(), args, context))
        return submit(kind, sender, args, on_receipt)

    sim.ledger.submit_tx = recording
    sim.execute()
    return sim, submitted


def test_overlapping_oracle_faults_each_last_their_span():
    sim, posts = run_recording(inline(STUCK, SPOOF), "post_price")
    primary = [(t, price, true) for t, (feed, price), true in posts if feed == "primary"]
    # stuck after the 600 s publish; from 651 s the spoof, injected last, acts
    # until its own end
    assert not [t for t, _, _ in primary if 600_000 < t <= 650_000]
    spoofed = [(t, price == round(true * 1.01)) for t, price, true in primary
               if 650_000 < t <= 950_000]
    assert len(spoofed) == 300 and all(ok for _, ok in spoofed)
    assert all(price == true for t, price, true in primary if t > 950_000)
    [alert] = sim.risk.alerts
    assert (alert.kind, alert.raised_at, alert.cleared_at) == ("OracleStale", 610_500, 951_500)
    stuck, spoof = sim.fault_findings()
    assert (stuck["kind"], stuck["detected_ms"], stuck["latency_ms"]) == ("OracleStale", 610_500, 10_500)
    # the spoof is covered by the open stale alert once the primary publishes again
    assert (spoof["kind"], spoof["onset_ms"], spoof["detected_ms"], spoof["latency_ms"]) == (
        "OracleStale", 650_000, 651_500, 1_500)


def test_fault_that_raises_nothing_is_undetected():
    # 5 s stuck is under the 10 s staleness threshold; a spoof 300 s later alerts
    short = dict(STUCK, duration_ms=5_000)
    sim = Simulation(inline(short, dict(SPOOF, start_ms=900_000)))
    sim.execute()
    stuck, spoof = sim.fault_findings()
    assert (stuck["action"], stuck["kind"], stuck["detected_ms"]) == ("undetected", "", "")
    assert (spoof["kind"], spoof["detected_ms"], spoof["latency_ms"]) == ("OracleDiverged", 901_500, 1_500)


def test_misreport_restored_before_its_attestation_lands_is_detected():
    # the short attestation at 360 s is issued just before the restore and lands at 361 s
    config = load_bundled("table1-vault")
    [spec] = config.fault_schedule
    cut = dataclasses.replace(config, fault_schedule=[dataclasses.replace(spec, duration_ms=60_000)])
    sim = Simulation(cut)
    sim.execute()
    [finding] = sim.fault_findings()
    assert (finding["kind"], finding["onset_ms"], finding["detected_ms"], finding["latency_ms"]) == (
        "ReserveShortfall", 361_000, 361_500, 500)


def test_overlapping_misreports_each_last_their_span():
    config = load_bundled("table1-vault")
    [first] = config.fault_schedule  # 0.5% from 300 s to 480 s
    second = FaultSpec("vault", "misreport", 400_000, 200_000, magnitude=0.01)
    sim, attestations = run_recording(
        dataclasses.replace(config, fault_schedule=[first, second]), "set_reserve")
    reported = {t: (amount, held, fault) for t, (amount, _, fault), held in attestations}
    first_fault, second_fault = sim.faults
    # each attestation carries the misreport that shaped it; the second acts
    # until its own end
    shaped_by = {360_000: (0.995, first_fault), 660_000: (1.0, None),
                 **{t: (0.99, second_fault) for t in (420_000, 480_000, 540_000, 600_000)}}
    for t, (share, expected) in shaped_by.items():
        amount, held, fault = reported[t]
        assert (amount, fault) == (round(held * share), expected), t
    first_row, second_row = sim.fault_findings()
    [alert] = sim.risk.alerts
    assert (alert.raised_at, alert.cleared_at) == (361_500, 700_500)
    assert (first_row["detected_ms"], first_row["latency_ms"]) == (361_500, 500)
    # the second's first short attestation lands at 421 s, under the freeze the
    # first raised: the open alert is credited to it, from that landing
    assert second_fault.alert is alert
    assert (second_row["kind"], second_row["onset_ms"], second_row["detected_ms"],
            second_row["latency_ms"]) == ("ReserveShortfall", 421_000, 421_500, 500)
