"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s`.  The heavyweight pieces are
the 24 h baseline (run twice for the determinism check) and the full scaling
bench; the whole suite targets a desk-scale budget of a few minutes.
"""

import random
import statistics

import pytest

from ozsim.agents.compliance import APPROVED, ComplianceAgent, DENIED, MANUAL_REVIEW
from ozsim.agents.risk import RiskAgent, RiskAlert, RiskConfig
from ozsim.bench import bench_config, run_bench
from ozsim.checks import run_checks
from ozsim.config import bundled_scenario_names, load_bundled
from ozsim.governance import Governance
from ozsim.ledger import Ledger, ParamStore, PriceWindow
from ozsim.profiles import CorpusSpec, generate_profiles
from ozsim.runner import Simulation, run_scenario
from ozsim.sim import EventLog, RngStream, Scheduler
from ozsim.units import to_micro


def report(criterion: int, ok: bool, message: str) -> None:
    print(f"\n[criterion {criterion:02d}] {'PASS' if ok else 'FAIL'}: {message}")
    assert ok, f"criterion {criterion}: {message}"


_cache: dict = {}


def bundled_run(name: str):
    if name not in _cache:
        _cache[name] = run_scenario(load_bundled(name))
    return _cache[name]


def checks_pass(result) -> tuple[bool, str]:
    rows = run_checks(result)
    failed = [f"{name} ({msg})" for name, ok, msg in rows if not ok]
    if failed:
        return False, "failed: " + "; ".join(failed)
    return True, "; ".join(f"{name}: {msg}" for name, _, msg in rows)


# -- 1. reserve safety under fuzzed tx/attestation sequences -------------------


def test_criterion_01_reserve_safety_fuzz():
    rng = random.Random(20260809)
    sequences = 100_000
    mints_checked = 0
    for seq in range(sequences):
        sched = Scheduler(seed=seq)
        log = EventLog(keep=False)
        epsilon = rng.choice([0, 0, 100, to_micro(0.5)])
        ledger = Ledger(
            sched, log,
            params=ParamStore({"epsilon_micro_oz": epsilon}),
            authorized_auditors={"aud"},
        )
        ledger.attested_reserve = rng.randrange(0, to_micro(2000))
        addrs = ("a", "b", "c")
        for _ in range(rng.randrange(4, 14)):
            roll = rng.random()
            amount = rng.randrange(1, to_micro(500))
            if roll < 0.40:
                supply_before = ledger.total_supply
                ceiling = ledger.attested_reserve + ledger.epsilon
                receipt = ledger.execute_mint(rng.choice(addrs), amount)
                if receipt.accepted:
                    mints_checked += 1
                    assert supply_before + amount <= ceiling, (
                        f"seq {seq}: mint committed above the reserve ceiling"
                    )
                else:
                    assert supply_before + amount > ceiling
            elif roll < 0.60:
                ledger.execute_burn(rng.choice(addrs), amount)
            elif roll < 0.80:
                ledger.execute_transfer(rng.choice(addrs), rng.choice(addrs), amount)
            else:
                ledger.set_attested_reserve(rng.randrange(0, to_micro(2000)), "aud")
            assert sum(ledger.balances.values()) == ledger.total_supply
    report(
        1, True,
        f"{sequences} fuzzed sequences, {mints_checked} accepted mints, "
        "zero reserve-ceiling violations, conservation held after every step",
    )


# -- 2/3. Table I fault injections ---------------------------------------------


def test_criterion_02_table1_oracle():
    result = bundled_run("table1-oracle")
    ok, message = checks_pass(result)
    report(2, ok, message)


def test_criterion_03_table1_vault():
    result = bundled_run("table1-vault")
    ok, message = checks_pass(result)
    report(3, ok, message)


# -- 4/5. issuance latency and burst ------------------------------------------


def test_criterion_04_issuance_latency():
    result = bundled_run("issuance-latency")
    ok, message = checks_pass(result)
    report(4, ok, message)


def test_criterion_05_issuance_burst():
    result = bundled_run("issuance-burst")
    ok, message = checks_pass(result)
    report(5, ok, message)


# -- 6/7. market quality and inventory control ---------------------------------


def test_criterion_06_market_quality():
    result = bundled_run("baseline-24h")
    rows = [r for r in run_checks(result) if r[0].startswith(("spread", "depth", "peg"))]
    failed = [f"{n} ({m})" for n, ok, m in rows if not ok]
    report(6, not failed, "; ".join(f"{n}: {m}" for n, _, m in rows) if not failed else "; ".join(failed))


def test_criterion_07_inventory_control():
    result = bundled_run("baseline-24h")
    rows = [r for r in run_checks(result) if r[0].startswith(("inventory", "rebalance"))]
    failed = [f"{n} ({m})" for n, ok, m in rows if not ok]
    report(7, not failed, "; ".join(f"{n}: {m}" for n, _, m in rows) if not failed else "; ".join(failed))


# -- 8. compliance corpus --------------------------------------------------------


def test_criterion_08_compliance_corpus():
    profiles = generate_profiles(
        CorpusSpec(clean=48, low_confidence=2, sanctioned=1), RngStream(8, "profiles")
    )
    agent = ComplianceAgent()
    rng = RngStream(8, "compliance")
    decisions = [agent.screen(p, 0, rng) for p in profiles]
    outcomes = [d.outcome for d in decisions]
    reviews = [d for d in decisions if d.outcome == MANUAL_REVIEW]
    ok = (
        outcomes.count(APPROVED) == 48
        and outcomes.count(MANUAL_REVIEW) == 2
        and outcomes.count(DENIED) == 1
        and all(d.resolved_at - d.decided_at <= 7_200_000 for d in reviews)
        and all(d.resolution == APPROVED for d in reviews)
    )
    # extended 10k corpus: mean auto-approval 2.8 min within 0.2 min
    big = generate_profiles(CorpusSpec(clean=10_000), RngStream(88, "profiles"))
    agent2 = ComplianceAgent()
    rng2 = RngStream(88, "compliance")
    times = [agent2.screen(p, 0, rng2).processing_time_ms for p in big]
    mean_min = statistics.fmean(times) / 60_000
    ok = ok and abs(mean_min - 2.8) <= 0.2
    report(
        8, ok,
        f"48 auto-approved, 2 manual (resolved <=2 h), 1 denied; "
        f"10k-corpus mean {mean_min:.3f} min",
    )


# -- 9. concentration flag -------------------------------------------------------


def test_criterion_09_concentration():
    def world(balances):
        sched = Scheduler(seed=9)
        log = EventLog()
        ledger = Ledger(sched, log, authorized_auditors={"aud"})
        ledger.set_genesis_reserve(to_micro(10_000))
        for addr, oz in balances.items():
            ledger.genesis_mint(addr, to_micro(oz))
        risk = RiskAgent(sched, log, ledger, config=RiskConfig())
        return sched, ledger, risk

    spread_out = {f"r{i}": 150 for i in range(5)}
    _, _, risk = world({"whale": 250, **spread_out})
    for t in (500, 1500, 2500, 3500):
        risk.cycle(t)
    flags = [a for a in risk.alerts if a.kind == "Concentration"]
    one_flag = len(flags) == 1 and flags[0].detail["address"] == "whale"
    flag_only = not risk.issuance_frozen

    _, _, risk2 = world({"edge": 200, **{f"r{i}": 160 for i in range(5)}})
    for t in (500, 1500):
        risk2.cycle(t)
    none_at_boundary = not [a for a in risk2.alerts if a.kind == "Concentration"]
    report(
        9, one_flag and flag_only and none_at_boundary,
        f"25% holder: {len(flags)} flag(s), no halt; exactly 20%: "
        f"{'no flag' if none_at_boundary else 'flagged'}",
    )


# -- 10. scaling shape -----------------------------------------------------------


def test_criterion_10_scaling_shape():
    base = load_bundled("bench-base")
    counts = [1000 * i for i in range(1, 11)]
    bench = run_bench(base, counts, warmup_ms=15_000)
    rows = bench["rows"]
    analysis = bench["analysis"]
    tps = [r["sustained_tps"] for r in rows]
    non_decreasing = all(b >= a * 0.98 for a, b in zip(tps, tps[1:]))
    onset_match = (
        analysis["plateau_onset_users"] is not None
        and analysis["plateau_onset_users"] == analysis["utilization_onset_users"]
    )
    final = rows[-1]
    first = rows[0]
    util_ok = abs(final["utilization"] - 0.85) <= 0.05
    lat10_ok = abs(final["median_latency_ms"] - 1500) <= 150
    lat1_ok = abs(first["median_latency_ms"] - 1000) <= 150
    peak_ok = abs(analysis["peak_tps"] - 5200) <= 0.15 * 5200
    ok = non_decreasing and onset_match and util_ok and lat10_ok and lat1_ok and peak_ok
    report(
        10, ok,
        f"TPS {['%.0f' % t for t in tps]}; plateau onset {analysis['plateau_onset_users']} "
        f"== util>0.8 onset {analysis['utilization_onset_users']}; "
        f"util@10k {final['utilization']:.3f}; median@10k {final['median_latency_ms']:.0f} ms; "
        f"median@1k {first['median_latency_ms']:.0f} ms; peak {analysis['peak_tps']:.0f} TPS",
    )


# -- 11. liveness of the pause-flag state machine ------------------------------


def _abstract(ledger, risk):
    return (
        ledger.issuance_paused,
        ledger.trading_paused,
        risk.issuance_frozen,
        risk.clear_requested,
        ledger.attested_reserve >= ledger.total_supply,
    )


def _materialize(state):
    issuance_paused, trading_paused, frozen, clear_requested, covering = state
    sched = Scheduler(seed=11)
    log = EventLog(keep=False)
    ledger = Ledger(sched, log, authorized_auditors={"aud"})
    ledger.total_supply = to_micro(1000)
    ledger.balances["holder"] = to_micro(1000)
    ledger.attested_reserve = to_micro(1000) if covering else to_micro(995)
    ledger.issuance_paused = issuance_paused
    if trading_paused:
        ledger.trading_paused = True
        ledger.breaker_tripped_at = 0
    risk = RiskAgent(sched, log, ledger, config=RiskConfig())
    if frozen:
        risk.shortfall_alert = RiskAlert("ReserveShortfall", 0, "frozen")
    risk.clear_requested = clear_requested
    return sched, ledger, risk


EVENTS = ("shortfall_attestation", "covering_attestation", "clear",
          "cooldown_expiry", "breaker_trip", "governance_unpause")


def _apply(state, event):
    sched, ledger, risk = _materialize(state)
    now = 400_000  # past any cooldown measured from trip at t=0
    if event == "shortfall_attestation":
        ledger.set_attested_reserve(to_micro(995), "aud")
    elif event == "covering_attestation":
        ledger.set_attested_reserve(to_micro(1000), "aud")
    elif event == "clear":
        risk.request_clear(now)
    elif event == "cooldown_expiry":
        ledger.breaker_auto_lift(now)
    elif event == "breaker_trip":
        ledger.trip_breaker(now, "fault")
    elif event == "governance_unpause":
        ledger.governance_unpause(now)
    risk.cycle(now + 100)  # the monitoring loop reacts to the new state
    return _abstract(ledger, risk)


def _operational(state):
    issuance_paused, trading_paused, frozen, _, covering = state
    return not issuance_paused and not trading_paused and not frozen and covering


def test_criterion_11_liveness_no_deadlock():
    initial = (False, False, False, False, True)
    reachable = {initial}
    frontier = [initial]
    transitions: dict[tuple, set[tuple]] = {}
    while frontier:
        state = frontier.pop()
        outgoing = set()
        for event in EVENTS:
            succ = _apply(state, event)
            outgoing.add(succ)
            if succ not in reachable:
                reachable.add(succ)
                frontier.append(succ)
        transitions[state] = outgoing

    # backward closure from operational states
    can_recover = {s for s in reachable if _operational(s)}
    changed = True
    while changed:
        changed = False
        for state, outgoing in transitions.items():
            if state not in can_recover and outgoing & can_recover:
                can_recover.add(state)
                changed = True

    stuck = [s for s in reachable if s not in can_recover]
    halted = [s for s in reachable if not _operational(s)]
    report(
        11, not stuck,
        f"{len(reachable)} reachable pause states ({len(halted)} halted), all "
        f"reach an operational state; no deadlocking interleaving"
        if not stuck else f"stuck states: {stuck}",
    )


# -- 12. governance end to end ----------------------------------------------------


def test_criterion_12_governance():
    result = bundled_run("governance-demo")
    ok_demo, demo_message = checks_pass(result)

    # timelock refusal and the m-of-n signer rule, directly
    sched = Scheduler(seed=12)
    ledger = Ledger(sched, EventLog(), authorized_auditors={"aud"})
    ledger.set_genesis_reserve(to_micro(1000))
    ledger.genesis_mint("whale", to_micro(500))
    gov = Governance(ledger, signer_set={"s1", "s2", "s3"}, signers_required=2)

    update = gov.propose_update("risk", "v2")
    gov.sign_update(update, "s1")
    gov.sign_update(update, "s1")  # duplicate must not count
    pending_after_dup = update.status == "pending"
    gov.sign_update(update, "s2")
    executable_at_m = update.executed

    prop = gov.propose_param("breaker_swing_threshold", 0.03, now=0, timelock_ms=60_000)
    gov.vote(prop, "whale", True)
    too_early = gov.execute_param(prop, 59_999) == "too_early"
    executed = gov.execute_param(prop, 60_000) == "executed"

    # the executed threshold change alters a later trip decision
    window = [(0, to_micro(2400.0)), (200_000, to_micro(2460.0))]  # 2.5% swing
    sched.run_until(200_000)
    no_trip_at_3pct = ledger.evaluate_breaker(PriceWindow(window), 200_000) is False
    ledger.set_param("breaker_swing_threshold", 0.02, 200_000, "test")
    trips_at_2pct = ledger.evaluate_breaker(PriceWindow(window), 200_000) is True

    ok = all([ok_demo, too_early, executed, pending_after_dup, executable_at_m,
              no_trip_at_3pct, trips_at_2pct])
    report(
        12, ok,
        f"{demo_message}; pre-timelock refused: {too_early}; duplicate signer "
        f"ignored: {pending_after_dup}; 2-of-3 executes at 2 distinct: {executable_at_m}; "
        f"threshold change flips the trip decision: {no_trip_at_3pct and trips_at_2pct}",
    )


# -- 13. determinism of every bundled scenario -----------------------------------


# Pinned at the last intended behaviour change.  On a mismatch the test prints
# the observed table as a literal: after an intended change, paste it here.
GOLDEN = {
    "digests": {
        "baseline-24h": "06440f419bee5877f802c475d73f689efe94dd92c2146a020226d91a34965418",
        "bench-base": "79d99e0ad8adf3464f404945ce3a55e1a597336d57f584037c80bcf89bd78028",
        "bench-base u1000 10s": "c60f2d63d94f3a740ef349de9cc8544a859bf696d285699f1c2e8ec42a265dff",
        "governance-demo": "a8639e1d04e276b73121c89f9546e3079c0172f7fce5dff608f84a1fb7385fe9",
        "issuance-burst": "2bb37a9be21a003b11b4e9e3689d63d4f3151f0ffc8c1c6fd192a5200cef6e51",
        "issuance-latency": "da2dc50a842c7456f39bbbabd39bcb6ffaf27b5f90b7ee689ef0bb72e92d493a",
        "table1-oracle": "9f431031dc209177f400201cb79f415a8c7f6e5bdc254498e076e511e12627b1",
        "table1-vault": "755e7e46b5b5c3f1a71991b9b726117e9203420e6720eaf5c67fd8f4055de2a7",
    },
    "table1-oracle": {
        "fault_findings": [
            {
                "action": "switched to secondary feed; circuit breaker engaged",
                "detected_ms": 1010500,
                "fault": "stuck",
                "kind": "OracleStale",
                "latency_ms": 10500,
                "onset_ms": 1000000,
                "target": "oracle",
            }
        ],
        "halts": [
            {
                "lift_reason": "cooldown expired",
                "lifted_at": 1310500,
                "reason": "oracle stale",
                "tripped_at": 1010500,
            }
        ],
    },
    "table1-vault": {
        "fault_findings": [
            {
                "action": "issuance frozen; operators alerted",
                "detected_ms": 361500,
                "fault": "misreport",
                "kind": "ReserveShortfall",
                "latency_ms": 500,
                "onset_ms": 361000,
                "target": "vault",
            }
        ],
        "halts": [],
    },
}


def test_criterion_13_determinism():
    import dataclasses
    import pprint

    mismatches = []
    observed: dict = {"digests": {}}
    for name in bundled_scenario_names():
        first = bundled_run(name)
        second = run_scenario(load_bundled(name))
        observed["digests"][name] = first.digest
        if first.digest != second.digest:
            mismatches.append(name)
        if name.startswith("table1"):
            observed[name] = {key: first.summary[key] for key in ("halts", "fault_findings")}
    # the `ozsim bench` path: Simulation.execute() without run_scenario
    point = bench_config(dataclasses.replace(load_bundled("bench-base"), duration_ms=10_000), 1000)
    observed["digests"]["bench-base u1000 10s"] = Simulation(point).execute()
    config = dataclasses.replace(load_bundled("issuance-burst"), seed=999)
    other_seed = run_scenario(config)
    seeds_differ = other_seed.digest != observed["digests"]["issuance-burst"]
    pinned = observed == GOLDEN
    if not pinned:
        print("\nobserved golden table:\nGOLDEN = " + pprint.pformat(observed, width=100))
    report(
        13, not mismatches and seeds_differ and pinned,
        f"{len(bundled_scenario_names())} bundled scenarios re-run byte-identically; "
        f"a different seed changes the digest: {seeds_differ}; "
        f"digests and table1 halts/findings match the pinned table: {pinned}"
        if not mismatches else f"nondeterministic: {mismatches}",
    )


# -- 14. no false halts over the default day --------------------------------------


def test_criterion_14_no_false_alerts():
    result = bundled_run("baseline-24h")
    rows = [r for r in run_checks(result) if r[0] == "no_false_alerts"]
    ok = bool(rows) and all(r[1] for r in rows)
    report(14, ok, rows[0][2] if rows else "check missing")
