import json
from pathlib import Path

import pytest

from ozsim.agents.compliance import APPROVED, DENIED, MANUAL_REVIEW
from ozsim.checks import run_checks
from ozsim.cli import main as cli_main
from ozsim.config import ConfigError, load_bundled, load_config, bundled_scenario_names
from ozsim.profiles import CorpusSpec, generate_profiles
from ozsim.replay import diff_logs, replay
from ozsim.runner import run_scenario
from ozsim.sim import RngStream

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

    def test_unknown_governance_action_rejected(self):
        with pytest.raises(ConfigError, match="unknown action"):
            load_config({**MINIMAL, "governance_schedule": [{"action": "coup"}]})

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
        agent = ComplianceAgent()
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

    @pytest.mark.parametrize("name", ["table1-oracle", "table1-vault"])
    def test_table1_findings_do_not_depend_on_out_dir(self, tmp_path, name):
        plain = run_scenario(load_bundled(name))
        written = run_scenario(load_bundled(name), out_dir=tmp_path)
        summary = json.loads((tmp_path / "summary.json").read_text())
        assert plain.summary["fault_findings"], "the injected fault must be reported"
        for key in ("halts", "fault_findings"):
            assert plain.summary[key] == written.summary[key] == summary[key]
        assert all(ok for _, ok, _ in run_checks(plain)), run_checks(plain)


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
