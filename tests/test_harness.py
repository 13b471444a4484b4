import dataclasses
import gc
import importlib.util
import json
import tracemalloc
import types
from collections import Counter
from importlib import resources
from pathlib import Path

import pytest

from ozsim.agents.compliance import APPROVED, DENIED, MANUAL_REVIEW, UserProfile
from ozsim.agents.orchestrator import WorkflowReport
from ozsim.bench import bench_config
from ozsim.checks import run_checks
from ozsim.cli import main as cli_main
from ozsim.config import (
    ComplianceSpec, ConfigError, bundled_scenario_names, load_bundled, load_config,
)
from ozsim.metrics import Sample
from ozsim.profiles import CorpusSpec, generate_profiles
from ozsim.replay import diff_logs, replay
from ozsim.runner import Simulation, run_scenario
from ozsim.sim import EventLog, RngStream

MINIMAL = {"name": "t", "seed": 1, "duration_ms": 10_000}


def tiny_config(**overrides):
    data = dict(MINIMAL)
    data.update(overrides)
    return load_config(data)


class TestConfig:
    def test_minimal_config_loads_with_defaults(self):
        config = tiny_config()
        assert config.block_interval_ms == 1000
        assert config.mm.enabled is True
        assert config.risk.staleness_threshold_ms == 10_000

    def test_unknown_top_level_key_rejected(self):
        with pytest.raises(ConfigError, match="unknown key"):
            load_config({**MINIMAL, "blok_interval_ms": 5})

    def test_unknown_nested_key_rejected_with_path(self):
        with pytest.raises(ConfigError, match="scenario.mm.spread"):
            load_config({**MINIMAL, "mm": {"spread": 0.1}})

    def test_missing_required_key_reported(self):
        with pytest.raises(ConfigError, match="seed"):
            load_config({"name": "x", "duration_ms": 5})

    def test_action_mix_must_sum_to_one(self):
        with pytest.raises(ConfigError, match="action_mix"):
            load_config({**MINIMAL, "action_mix": {"buy": 0.9, "sell": 0.2}})

    def test_fault_beyond_duration_rejected(self):
        with pytest.raises(ConfigError, match="past scenario end"):
            load_config({
                **MINIMAL,
                "fault_schedule": [{
                    "target": "oracle", "kind": "stuck",
                    "start_ms": 9_000, "duration_ms": 5_000,
                }],
            })

    @pytest.mark.parametrize("key, value", [("risk", 5), ("price", "x"), ("mm", [1])])
    def test_nested_spec_must_be_an_object(self, key, value):
        with pytest.raises(ConfigError, match=f"scenario.{key}: expected an object"):
            load_config({**MINIMAL, key: value})

    @pytest.mark.parametrize("overrides, field", [
        ({"block_interval_ms": 0}, "block_interval_ms"),
        ({"sample_interval_ms": 0}, "sample_interval_ms"),
        ({"attestation_interval_ms": -1}, "attestation_interval_ms"),
        ({"risk": {"cycle_ms": 0}}, "risk.cycle_ms"),
        ({"mm": {"vol_window_s": 0}}, "mm.vol_window_s"),
        ({"duration_ms": 0}, "duration_ms"),
    ])
    def test_periods_must_be_positive(self, overrides, field):
        with pytest.raises(ConfigError, match=rf"scenario\.{field}: must be positive"):
            load_config({**MINIMAL, **overrides})

    @pytest.mark.parametrize("field", ["user_count", "snapshot_interval_ms"])
    def test_counts_must_not_be_negative(self, field):
        with pytest.raises(ConfigError, match=rf"scenario\.{field}: must not be negative"):
            load_config({**MINIMAL, field: -3})
        assert getattr(tiny_config(**{field: 0}), field) == 0

    def test_optional_spec_may_be_null(self):
        assert tiny_config(issue_burst=None).issue_burst is None

    @pytest.mark.parametrize("fault, field", [
        ({"target": "oracle", "kind": "bogus"}, "kind"),
        ({"target": "oracle", "kind": "misreport"}, "kind"),
        ({"target": "vault", "kind": "stuck"}, "kind"),
        ({"target": "oracle", "kind": "stuck", "feed": "tertiary"}, "feed"),
    ])
    def test_fault_kind_and_feed_checked(self, fault, field):
        entry = {**fault, "start_ms": 1_000, "duration_ms": 1_000}
        with pytest.raises(ConfigError, match=rf"fault_schedule\[0\]\.{field}"):
            load_config({**MINIMAL, "fault_schedule": [entry]})

    def test_valid_faults_accepted(self):
        faults = [
            {"target": "oracle", "kind": "stuck", "feed": "secondary"},
            {"target": "oracle", "kind": "spoofed", "magnitude": 0.01},
            {"target": "vault", "kind": "misreport", "magnitude": 0.005},
        ]
        config = tiny_config(fault_schedule=[
            {**f, "start_ms": 1_000, "duration_ms": 1_000} for f in faults
        ])
        assert [f.kind for f in config.fault_schedule] == ["stuck", "spoofed", "misreport"]

    def test_unknown_governance_action_rejected(self):
        with pytest.raises(ConfigError, match="unknown action"):
            load_config({**MINIMAL, "governance_schedule": [{"action": "coup"}]})

    @pytest.mark.parametrize("think", [0, -5.0])
    def test_closed_loop_needs_positive_think_time(self, think):
        with pytest.raises(ConfigError, match=r"scenario\.think_time_ms: must be positive"):
            load_config({**MINIMAL, "load_model": "closed", "think_time_ms": think})
        assert tiny_config(think_time_ms=think).think_time_ms == think  # open loop: unread

    def test_risk_phase_must_not_be_negative(self):
        with pytest.raises(ConfigError, match=r"scenario\.risk\.phase_ms: must not be negative"):
            load_config({**MINIMAL, "risk": {"phase_ms": -1}})
        assert tiny_config(risk={"phase_ms": 0}).risk.phase_ms == 0

    PROPOSAL = {"action": "param_proposal", "param": "fee_rate", "value": 0.001,
                "propose_at_ms": 1_000}
    UPDATE = {"action": "agent_update", "agent": "market-maker", "version": "v2",
              "signers": ["signer-1", "signer-2"], "sign_at_ms": [1_000, 2_000]}

    @pytest.mark.parametrize("schedule, entry, key", [
        ("ops_schedule", {"action": "clear_risk_alert", "at_ms": 1000.5}, "at_ms"),
        ("ops_schedule", {"action": "deposit_physical", "at_ms": -1, "amount_oz": 1.0}, "at_ms"),
        ("governance_schedule", {"action": "unpause", "at_ms": "5000"}, "at_ms"),
        ("governance_schedule", {**PROPOSAL, "propose_at_ms": 1000.0}, "propose_at_ms"),
        ("governance_schedule", {**PROPOSAL, "vote_at_ms": True}, "vote_at_ms"),
        ("governance_schedule", {**PROPOSAL, "execute_at_ms": -1}, "execute_at_ms"),
        ("governance_schedule", {**UPDATE, "sign_at_ms": [1_000, 2000.5]}, "sign_at_ms"),
        ("governance_schedule", {**UPDATE, "sign_at_ms": 1_000}, "sign_at_ms"),
    ])
    def test_schedule_times_must_be_non_negative_integers(self, schedule, entry, key):
        with pytest.raises(ConfigError, match=rf"scenario\.{schedule}\[0\]\.{key}: must be"):
            load_config({**MINIMAL, schedule: [entry]})

    def test_valid_schedule_times_accepted(self):
        config = tiny_config(governance_schedule=[self.PROPOSAL, self.UPDATE],
                             ops_schedule=[{"action": "clear_risk_alert", "at_ms": 0}])
        assert len(config.governance_schedule) == 2

    # Governance entries that used to load and then raise out of the scheduler mid-run.
    def test_agent_update_signed_by_a_non_signer_rejected_at_load(self):
        scenario = {**MINIMAL, "duration_ms": 20_000}
        update = {"action": "agent_update", "agent": "risk", "version": "v2",
                  "signers": ["mallory", "signer-1"], "sign_at_ms": [1_000, 2_000]}
        with pytest.raises(ConfigError, match=r"governance_schedule\[0\]\.signers: "
                                              r"unknown signers \['mallory'\]"):
            load_config({**scenario, "governance_schedule": [update]})
        signed = {**update, "signers": ["signer-2", "signer-1"]}
        run_scenario(load_config({**scenario, "governance_schedule": [signed]}))

    def test_vote_after_execution_rejected_at_load(self):
        proposal = {**self.PROPOSAL, "vote_at_ms": 5_000, "execute_at_ms": 2_000,
                    "timelock_ms": 0, "votes": [["signer-1", True]]}
        with pytest.raises(ConfigError, match=r"governance_schedule\[0\]: "
                                              r"vote_at_ms must not fall after execute_at_ms"):
            load_config({**MINIMAL, "governance_schedule": [proposal]})
        for entry in ({**proposal, "vote_at_ms": 2_000},  # the vote fires first
                      {**proposal, "votes": []}):  # no vote to cast
            run_scenario(load_config({**MINIMAL, "governance_schedule": [entry]}))

    BURST = {"count": 5, "window_start_ms": 1_000, "window_end_ms": 2_000}

    @pytest.mark.parametrize("overrides, message", [
        ({"governance_schedule": [{"action": "unpause"}]},
         r"governance_schedule\[0\]\.at_ms: missing required key"),
        ({"governance_schedule": [{**UPDATE, "sign_at_ms": [1_000]}]},
         r"governance_schedule\[0\]: signers and sign_at_ms differ in length"),
        ({"governance_schedule": [{**PROPOSAL, "votes": ["u1"]}]},
         r"governance_schedule\[0\]\.votes: must be list\[tuple\[str, bool\]\]"),
        ({"governance_schedule": [{**PROPOSAL, "value": "high"}]},
         r"governance_schedule\[0\]\.value: must be float"),
        ({"governance_schedule": [{**PROPOSAL, "vote_at_ms": 500}]},
         r"governance_schedule\[0\]: vote_at_ms and execute_at_ms must not precede"),
        ({"block_interval_ms": 1000.5}, r"scenario\.block_interval_ms: must be int"),
        ({"commit_latency_ms": -500}, r"scenario\.commit_latency_ms: must be NonNegativeInt"),
        ({"commit_jitter_ms": -100}, r"scenario\.commit_jitter_ms: must be NonNegativeInt"),
        ({"order_expiry_ms": -1}, r"scenario\.order_expiry_ms: must be NonNegativeInt"),
        ({"max_txs_per_block": 0}, r"scenario\.max_txs_per_block: must be positive"),
        ({"user_count": True}, r"scenario\.user_count: must be int"),
        ({"action_mix": {"buy": "all"}}, r"scenario\.action_mix: must be dict"),
        ({"params": {"breaker_swing_thresh": 0.1}}, r"scenario\.params: unknown ledger parameters"),
        ({"order_style": "mixed", "limit_offset_bps": [-10.0, 5.0, 20.0]},
         r"scenario\.limit_offset_bps: must be tuple\[float, float\]"),
        ({"issue_burst": BURST}, r"scenario\.issue_burst: needs user_count > 0"),
        ({"user_count": 2, "issue_burst": {**BURST, "window_end_ms": 500}},
         r"scenario\.issue_burst: window must run forward"),
        ({"user_count": 2, "issue_burst": {**BURST, "window_end_ms": 20_000}},
         r"scenario\.issue_burst: window must run forward"),
        ({"fault_schedule": [{"target": "oracle", "kind": "stuck",
                              "start_ms": -1_000, "duration_ms": 2_000}]},
         r"fault_schedule\[0\]\.start_ms: must be NonNegativeInt"),
        ({"fault_schedule": [{"target": "vault", "kind": "misreport",
                              "start_ms": 5_000, "duration_ms": -1_000}]},
         r"fault_schedule\[0\]\.duration_ms: must be NonNegativeInt"),
        ({"params": {"breaker_swing_threshold": -1.0}},
         r"scenario\.params: out-of-bounds ledger parameter breaker_swing_threshold=-1\.0 "),
        ({"params": {"fee_rate": 5.0}},
         r"scenario\.params: out-of-bounds ledger parameter fee_rate=5\.0 outside"),
        ({"params": {"epsilon_micro_oz": 1_000_001}},  # 0.1% of the 1,000 oz genesis reserve
         r"scenario\.params: out-of-bounds ledger parameter epsilon_micro_oz=1000001 "),
        ({"governance_schedule": [{**PROPOSAL, "param": "nonexistent", "votes": [["mm", True]]}]},
         r"governance_schedule\[0\]\.param: unknown ledger parameter 'nonexistent'"),
    ])
    def test_malformed_input_rejected_at_load(self, overrides, message):
        with pytest.raises(ConfigError, match=message):
            load_config({**MINIMAL, **overrides})

    def test_params_at_their_bounds_load(self):
        params = {"breaker_swing_threshold": 0.005, "fee_rate": 0.01, "epsilon_micro_oz": 1_000_000}
        assert tiny_config(params=params).params == params

    def test_schedule_defaults_live_on_the_spec(self):
        proposal = tiny_config(governance_schedule=[self.PROPOSAL]).governance_schedule[0]
        assert (proposal.votes, proposal.timelock_ms, proposal.vote_at_ms,
                proposal.execute_at_ms) == ([], None, 2_000, None)

    @pytest.mark.parametrize("name", bundled_scenario_names())
    def test_bundled_scenario_round_trips(self, name):
        """Replay rebuilds a run from the logged config, so to_dict must load back
        to the same config, and log a schedule exactly as the file wrote it."""
        config = load_bundled(name)
        data = config.to_dict()
        assert load_config(data) == config
        written = json.loads(resources.files("ozsim.scenarios").joinpath(f"{name}.json")
                             .read_text())
        for key in ("governance_schedule", "ops_schedule"):
            assert data[key] == written.get(key, [])

    def test_bundled_scenarios_all_parse(self):
        names = bundled_scenario_names()
        assert {"baseline-24h", "table1-oracle", "table1-vault",
                "issuance-burst", "issuance-latency", "bench-base"} <= set(names)
        for name in names:
            config = load_bundled(name)
            assert config.name == name


class TestProfiles:
    def test_requested_mix_generated_exactly(self):
        spec = CorpusSpec(clean=48, low_confidence=2, sanctioned=1)
        profiles = generate_profiles(spec, RngStream(1, "profiles"))
        assert len(profiles) == 51
        assert sum(p.sanctions_match for p in profiles) == 1
        assert sum(p.face_match_confidence < 0.90 for p in profiles) == 2
        assert sum(not p.docs_valid for p in profiles) == 0

    def test_empty_spec_gives_empty_list(self):
        assert generate_profiles(CorpusSpec(clean=0), RngStream(1, "p")) == []

    def test_same_seed_same_profiles(self):
        spec = CorpusSpec(clean=10, low_confidence=1, bad_docs=1)
        a = generate_profiles(spec, RngStream(5, "profiles"))
        b = generate_profiles(spec, RngStream(5, "profiles"))
        assert a == b

    def test_corpus_outcomes_match_categories(self):
        from ozsim.agents.compliance import ComplianceAgent

        spec = CorpusSpec(clean=48, low_confidence=2, sanctioned=1)
        profiles = generate_profiles(spec, RngStream(1, "profiles"))
        agent = ComplianceAgent(ComplianceSpec())
        rng = RngStream(1, "compliance")
        outcomes = [agent.screen(p, 0, rng).outcome for p in profiles]
        assert outcomes.count(APPROVED) == 48
        assert outcomes.count(MANUAL_REVIEW) == 2
        assert outcomes.count(DENIED) == 1


class TestRunner:
    def test_same_seed_identical_digest_and_summary(self):
        config = tiny_config(duration_ms=30_000, user_count=5, user_arrival_hz=0.05)
        a = run_scenario(config)
        b = run_scenario(config)
        assert a.digest == b.digest
        assert a.summary["tps"] == b.summary["tps"]

    def test_different_seed_different_digest(self):
        a = run_scenario(tiny_config(seed=1, duration_ms=20_000, user_count=5, user_arrival_hz=0.05))
        b = run_scenario(tiny_config(seed=2, duration_ms=20_000, user_count=5, user_arrival_hz=0.05))
        assert a.digest != b.digest

    def test_output_files_written(self, tmp_path):
        config = tiny_config(duration_ms=15_000)
        result = run_scenario(config, out_dir=tmp_path)
        assert (tmp_path / "events.jsonl").exists()
        assert (tmp_path / "metrics.csv").exists()
        assert (tmp_path / "summary.json").exists()
        assert (tmp_path / "alerts.csv").exists()
        header = (tmp_path / "metrics.csv").read_text().splitlines()[0]
        assert header == "t_ms,mid,spread_frac,bid_depth_oz,ask_depth_oz,mm_inventory_oz,tps,risk_util"
        summary = json.loads((tmp_path / "summary.json").read_text())
        assert summary["digest"] == result.digest

    def test_unpause_and_deposit_actions_run(self, tmp_path):
        config = tiny_config(
            duration_ms=5_000, vault_initial_oz=1_000.0,
            governance_schedule=[{"action": "unpause", "at_ms": 1_000}],
            ops_schedule=[{"action": "deposit_physical", "at_ms": 2_000, "amount_oz": 10.0}],
        )
        result = run_scenario(config, out_dir=tmp_path)
        records = map(json.loads, (tmp_path / "events.jsonl").read_text().splitlines())
        assert [(r["t"], r["source"]) for r in records if r["kind"] in ("unpause", "deposit")] == [
            (1_000, "governance"), (2_000, "vault")]
        assert result.sim.vault.total_micro_oz == 1_010 * 1_000_000

    @pytest.mark.parametrize("name", ["table1-oracle", "table1-vault"])
    def test_table1_findings_do_not_depend_on_out_dir(self, tmp_path, name):
        plain = run_scenario(load_bundled(name))
        written = run_scenario(load_bundled(name), out_dir=tmp_path)
        summary = json.loads((tmp_path / "summary.json").read_text())
        assert plain.summary["fault_findings"], "the injected fault must be reported"
        for key in ("halts", "fault_findings"):
            assert plain.summary[key] == written.summary[key] == summary[key]
        assert all(ok for _, ok, _ in run_checks(plain)), run_checks(plain)


def no_garbage_config(name):
    config = load_bundled(name)
    if name == "baseline-24h":
        return dataclasses.replace(config, duration_ms=2 * 3_600_000)
    if name == "bench-base":
        # the pinned GOLDEN point of test_criterion_13_determinism
        return bench_config(dataclasses.replace(config, duration_ms=10_000), 1000)
    return config


@pytest.mark.parametrize("name", bundled_scenario_names())
def test_run_leaves_no_cyclic_garbage(name):
    """Reference counting alone frees what a run discards.

    Scheduler.run_until raises the gen-0 threshold on that assumption, so a
    cycle made per event would pile up between collections.
    """
    sim = Simulation(no_garbage_config(name))
    gc.collect()
    gc.disable()
    try:
        sim.execute()
        unreachable = gc.collect()
    finally:
        gc.enable()
    assert unreachable == 0, f"{name} left {unreachable} objects in reference cycles"
    assert sim.log.count > 0


@pytest.mark.parametrize("name", bundled_scenario_names())
def test_run_keeps_no_workflow_report_objects(name):
    """The collector keeps workflow reports and samples as columns, not one
    tuple each, and no user keeps its onboarding profile.

    Every type is counted in the one run.  The collector stays off for
    the run: a collection untracks tuples that hold only atomic values, which
    would hide the kept rows from gc.get_objects().
    """
    sim = Simulation(no_garbage_config(name))
    gc.collect()
    gc.disable()
    try:
        sim.execute()
        kept = Counter(type(obj) for obj in gc.get_objects())
    finally:
        gc.enable()
    # nothing reads a profile once its user is screened or preapproved
    for row_type in (WorkflowReport, Sample, UserProfile):
        assert kept[row_type] == 0, f"{name} kept {kept[row_type]} {row_type.__name__} objects"
    assert len(sim.metrics.reports) > 0
    assert len(sim.metrics.samples) > 0


def test_obligations_in_flight_hold_no_bound_method_each():
    """Each order expiry, settlement waiter and netted transfer in flight is
    one object that is its own callback, not a bound method made for it.

    The probe fires at 6 s of a 2k-user, 8 s bench-base point, when
    thousands of these are pending.  The expiries share the one method the
    orchestrator binds when it is built; a flow and a batch are called
    directly.  Only a flow's pending pre-trade action is a bound method.
    """
    from ozsim.agents.orchestrator import Orchestrator, _OrderFlow
    from ozsim.exchange import _Batch

    config = bench_config(dataclasses.replace(load_bundled("bench-base"), duration_ms=8_000), 2_000)
    sim = Simulation(config)

    def methods():
        return [m for m in gc.get_objects() if isinstance(m, types.MethodType)]

    built = [m for m in methods() if isinstance(m.__self__, Orchestrator)]
    seen = {}

    def probe():
        live = methods()
        seen["orchestrator"] = sum(
            isinstance(m.__self__, Orchestrator) and not any(m is b for b in built) for m in live
        )
        seen["batch"] = sum(isinstance(m.__self__, _Batch) for m in live)
        seen["flow"] = sum(
            isinstance(m.__self__, _OrderFlow) and m.__func__ is not _OrderFlow.place
            for m in live
        )
        seen["in flight"] = sum(isinstance(o, (_OrderFlow, _Batch)) for o in gc.get_objects())

    sim.sched.schedule(6_000, 7, "probe", probe)
    sim.execute()
    assert seen.pop("in flight") > 1_000
    assert seen == {"orchestrator": 0, "batch": 0, "flow": 0}


def cut_line(log: bytes, index: int) -> bytes:
    """The log with three characters cut off the end of one line."""
    lines = log.split(b"\n")
    lines[index] = lines[index][:-3]
    return b"\n".join(lines)


class TestReplay:
    def _record(self, tmp_path, **overrides):
        config = tiny_config(duration_ms=15_000, **overrides)
        return run_scenario(config, out_dir=tmp_path)

    def test_untouched_log_matches(self, tmp_path):
        self._record(tmp_path)
        verdict = replay(tmp_path / "events.jsonl")
        assert verdict.ok
        assert verdict.rerun_digest == verdict.recorded_digest

    def test_flipped_byte_detected(self, tmp_path):
        self._record(tmp_path)
        path = tmp_path / "events.jsonl"
        lines = path.read_text().splitlines()
        lines[0] = lines[0].replace('"seed":1', '"seed":2', 1)
        path.write_text("\n".join(lines) + "\n")
        verdict = replay(path)
        assert not verdict.ok
        assert verdict.verdict == "digest_mismatch"

    @pytest.mark.parametrize("damage, named", [
        (lambda log: cut_line(log, 5), "stream hash differs"),
        (lambda log: b"", "scenario_start"),
        (lambda log: cut_line(log, 0), "scenario_start"),
        (lambda log: log[:-4], "scenario_end"),  # a run killed mid-write
        (lambda log: log.replace(b"block", b"bl\xffck", 1), "not UTF-8"),
    ], ids=["bad-middle-line", "empty", "first-line-not-json", "truncated-last-line",
            "not-utf-8"])
    def test_malformed_log_gets_a_verdict(self, tmp_path, capsys, damage, named):
        self._record(tmp_path)
        path = tmp_path / "events.jsonl"
        path.write_bytes(damage(path.read_bytes()))
        assert cli_main(["replay", "--log", str(path), "--no-rerun"]) == 3
        out = capsys.readouterr().out
        assert out.startswith("digest_mismatch: ") and named in out

    @pytest.mark.slow  # parsing 200k records under tracemalloc takes 6-9 s
    def test_memory_does_not_grow_with_log_length(self, tmp_path):
        path = tmp_path / "events.jsonl"
        with open(path, "w", encoding="utf-8") as fh:
            log = EventLog(stream=fh)
            log.append(0, "harness", "scenario_start", {"config": MINIMAL})
            for t in range(200_000):
                log.append(t, "sim", "tick", {"n": t})
            log.append(200_000, "harness", "scenario_end", {"digest": log.digest()})
        tracemalloc.start()
        try:
            verdict = replay(path, rerun=False)
            replay_peak = tracemalloc.get_traced_memory()[1]
            tracemalloc.reset_peak()
            report = diff_logs(path, path)
            diff_peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert verdict.ok
        assert report["identical"] and report["records"] == {"a": 200_002, "b": 200_002}
        assert replay_peak < 1 << 20, f"replay peaked at {replay_peak} bytes"
        assert diff_peak < 1 << 20, f"diff_logs peaked at {diff_peak} bytes"

    def test_diff_reports_divergence_of_faulted_variant(self, tmp_path):
        base = tiny_config(duration_ms=30_000)
        run_scenario(base, out_dir=tmp_path / "a")
        faulted = load_config({
            **MINIMAL, "duration_ms": 30_000,
            "fault_schedule": [{
                "target": "oracle", "kind": "stuck",
                "start_ms": 5_000, "duration_ms": 10_000,
            }],
        })
        run_scenario(faulted, out_dir=tmp_path / "b")
        report = diff_logs(tmp_path / "a" / "events.jsonl", tmp_path / "b" / "events.jsonl")
        assert not report["identical"]
        assert report["first_divergence"] is not None
        assert report["kind_deltas"]  # fault injection records differ

    def test_identical_logs_diff_clean(self, tmp_path):
        self._record(tmp_path / "a")
        self._record(tmp_path / "b")
        report = diff_logs(tmp_path / "a" / "events.jsonl", tmp_path / "b" / "events.jsonl")
        assert report["identical"]


class TestCli:
    def test_run_exit_codes(self, tmp_path):
        scenario = tmp_path / "s.json"
        scenario.write_text(json.dumps({**MINIMAL, "duration_ms": 15_000}))
        assert cli_main(["run", "--scenario", str(scenario)]) == 0

    def test_config_error_exit_code(self, tmp_path):
        scenario = tmp_path / "bad.json"
        scenario.write_text(json.dumps({**MINIMAL, "nonsense": 1}))
        assert cli_main(["run", "--scenario", str(scenario)]) == 1

    def test_failing_check_exit_code(self, tmp_path):
        # a scenario whose bundled check cannot hold: issuance burst without requests
        scenario = tmp_path / "s.json"
        scenario.write_text(json.dumps({
            **MINIMAL, "duration_ms": 15_000, "checks": ["issuance_burst"],
        }))
        assert cli_main(["run", "--scenario", str(scenario), "--check"]) == 2

    def test_replay_determinism_exit_code(self, tmp_path):
        scenario = tmp_path / "s.json"
        scenario.write_text(json.dumps({**MINIMAL, "duration_ms": 15_000}))
        assert cli_main(["run", "--scenario", str(scenario), "--out", str(tmp_path / "out")]) == 0
        assert cli_main(["replay", "--log", str(tmp_path / "out" / "events.jsonl")]) == 0
        log = tmp_path / "out" / "events.jsonl"
        text = log.read_text().replace('"seed":1', '"seed":3', 1)
        log.write_text(text)
        assert cli_main(["replay", "--log", str(log)]) == 3

    def test_replay_diff_against_a_truncated_log(self, tmp_path, capsys):
        out = tmp_path / "out"
        assert cli_main(["run", "--scenario", "table1-oracle", "--out", str(out)]) == 0
        log = (out / "events.jsonl").read_bytes()
        kept = log[:-200]  # a run killed mid-write
        cut = tmp_path / "cut.jsonl"
        cut.write_bytes(kept)
        capsys.readouterr()
        assert cli_main(["replay", "--log", str(out / "events.jsonl"),
                         "--diff-against", str(cut)]) == 0
        printed = capsys.readouterr().out.splitlines()
        index, text = kept.count(b"\n"), kept.rsplit(b"\n", 1)[1].decode()
        assert printed[0] == f"logs diverge at record {index}"
        assert f"  b: {text}" in printed  # the cut line, shown as it is

    def test_replay_diff_tells_an_int_from_a_float(self, tmp_path, capsys):
        out = tmp_path / "out"
        scenario = tmp_path / "s.json"
        scenario.write_text(json.dumps(MINIMAL))
        assert cli_main(["run", "--scenario", str(scenario), "--out", str(out)]) == 0
        lines = (out / "events.jsonl").read_text().splitlines(keepends=True)
        assert lines[1].startswith('{"detail":{"amount":1000000000}')
        lines[1] = lines[1].replace('"amount":1000000000', '"amount":1000000000.0')
        edited = tmp_path / "edited.jsonl"
        edited.write_text("".join(lines))
        capsys.readouterr()
        assert cli_main(["replay", "--log", str(out / "events.jsonl"),
                         "--diff-against", str(edited)]) == 0
        assert capsys.readouterr().out.splitlines()[0] == "logs diverge at record 1"
        assert cli_main(["replay", "--log", str(edited), "--no-rerun"]) == 3

    def test_bench_descending_counts_is_a_config_error(self, capsys):
        assert cli_main(["bench", "--users", "200,100"]) == 1
        assert "config error: user counts must be ascending" in capsys.readouterr().err

    @pytest.mark.parametrize("flags, message", [
        (["--users=-5"], "user counts must be positive, got -5"),
        (["--users", "0,100"], "user counts must be positive, got 0"),
        (["--users", "200", "--warmup-ms", "100000000"],
         "warm-up 100000000 ms is outside [0, 60000) ms"),
        (["--users", "200", "--warmup-ms=-1"], "warm-up -1 ms is outside [0, 60000) ms"),
    ])
    def test_bench_refuses_counts_and_warmups_it_cannot_measure(self, flags, message, capsys):
        assert cli_main(["bench", *flags]) == 1
        assert f"config error: {message}" in capsys.readouterr().err

    def test_bench_writes_a_report_of_strict_json(self, tmp_path):
        scenario = tmp_path / "bench.json"
        config = dataclasses.replace(load_bundled("bench-base"), duration_ms=10_000)
        scenario.write_text(json.dumps(config.to_dict()))
        out = tmp_path / "b"
        assert cli_main(["bench", "--scenario", str(scenario), "--users", "20,40",
                         "--warmup-ms", "2000", "--out", str(out)]) == 0

        def refuse(name):
            raise ValueError(f"{name} in bench_report.json")

        report = json.loads((out / "bench_report.json").read_text(), parse_constant=refuse)
        assert [row["users"] for row in report["rows"]] == [20, 40]

    def test_scenarios_list(self, capsys):
        assert cli_main(["scenarios", "list"]) == 0
        out = capsys.readouterr().out
        assert "baseline-24h" in out


def test_bench_smoke_two_counts():
    from ozsim.bench import run_bench
    from ozsim.config import load_bundled
    import dataclasses

    base = dataclasses.replace(load_bundled("bench-base"), duration_ms=20_000)
    report = run_bench(base, [50, 100], warmup_ms=5_000)
    rows = report["rows"]
    assert [r["users"] for r in rows] == [50, 100]
    assert all(r["completed"] > 0 for r in rows)
    assert rows[1]["sustained_tps"] > rows[0]["sustained_tps"]


@pytest.mark.parametrize("counts, warmup_ms", [([-5], 5_000), ([0], 5_000),
                                               ([50], -1), ([50], 20_000)])
def test_run_bench_refuses_counts_and_warmups_it_cannot_measure(counts, warmup_ms):
    from ozsim.bench import run_bench

    base = dataclasses.replace(load_bundled("bench-base"), duration_ms=20_000)
    with pytest.raises(ValueError):
        run_bench(base, counts, warmup_ms=warmup_ms)


def load_tracing():
    """The benchmark's tracer module, read from perfbench/ as it is."""
    path = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracing", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_benchmark_tracer_finds_every_instrumented_name():
    """Every method the benchmark wraps and every counter it reads still exists."""
    tracer = load_tracing().Tracer()
    sim = Simulation(load_bundled("governance-demo"))
    tracer.install(sim)
    sim.execute()
    tracer.collect(sim)
    assert tracer.absent == set()
    assert tracer.metrics()["sim.events"] > 0
