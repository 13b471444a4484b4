"""Scenario configuration: a strict, JSON-compatible object model.

Unknown keys are rejected at every nesting level with field-path messages so a
typo in a scenario file fails loudly instead of silently using a default.
Bundled scenarios live under ozsim/scenarios/ and are addressable by name.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field
from importlib import resources
from pathlib import Path
from typing import Any, Optional

from .oracle import PRIMARY, SECONDARY


class ConfigError(Exception):
    def __init__(self, messages: list[str]):
        self.messages = messages
        super().__init__("; ".join(messages))


@dataclass
class RegimeSpec:
    start_ms: int = 0
    sigma_per_s: float = 0.0


@dataclass
class PriceSpec:
    initial_usd_per_oz: float = 2400.0
    drift_per_s: float = 0.0
    regimes: list[RegimeSpec] = field(default_factory=lambda: [RegimeSpec(0, 5e-5)])


@dataclass
class SizeSpec:
    median_oz: float = 2.0
    sigma: float = 0.5
    min_oz: float = 0.1
    max_oz: float = 40.0


@dataclass
class MMSpec:
    enabled: bool = True
    baseline_oz: float = 300.0
    base_half_spread: float = 0.001
    vol_coeff: float = 4.0
    half_spread_cap: float = 0.005
    ladder_offsets: list[float] = field(default_factory=lambda: [0.0010, 0.0030, 0.0060, 0.0095])
    level_qty_oz: float = 60.0
    inv_limit_oz: float = 100.0
    rebalance_threshold_oz: float = 50.0
    skew_coeff: float = 0.001
    vol_window_s: int = 60


@dataclass
class RiskSpec:
    cycle_ms: int = 1000
    phase_ms: int = 500
    staleness_threshold_ms: int = 10_000
    divergence_threshold: float = 0.005
    concentration_limit: float = 0.20
    service_rate: float = 6400.0  # monitored events per second
    admission_headroom: float = 0.85  # capacity share usable by the workload
    base_monitor_events: float = 4.0  # feeds, reserve, sweeps per cycle


@dataclass
class IssuanceSpec:
    processing_mean_ms: float = 400.0
    processing_sigma_ms: float = 50.0
    processing_min_ms: int = 100


@dataclass
class ComplianceSpec:
    confidence_threshold: float = 0.90
    disallowed_regions: list[str] = field(default_factory=list)


@dataclass
class FaultSpec:
    target: str  # oracle | vault
    kind: str  # stuck | spoofed | misreport
    start_ms: int
    duration_ms: int
    feed: str = "primary"
    magnitude: float = 0.0


@dataclass
class BurstSpec:
    count: int
    window_start_ms: int
    window_end_ms: int
    size_oz: float = 2.0


@dataclass
class ScenarioConfig:
    name: str
    seed: int
    duration_ms: int
    description: str = ""
    block_interval_ms: int = 1000
    commit_latency_ms: int = 300
    commit_jitter_ms: int = 0
    max_txs_per_block: int = 100_000
    user_count: int = 0
    user_arrival_hz: float = 0.0
    preapproved_users: bool = False  # skip onboarding (steady-state load tests)
    action_mix: dict[str, float] = field(
        default_factory=lambda: {"buy": 0.50, "sell": 0.35, "issue": 0.10, "redeem": 0.05}
    )
    order_size: SizeSpec = field(default_factory=SizeSpec)
    load_model: str = "open"  # open | closed
    think_time_ms: float = 500.0
    prefund_oz: float = 0.0
    order_style: str = "market"  # market | mixed
    order_expiry_ms: int = 5000
    limit_offset_bps: list[float] = field(default_factory=lambda: [-10.0, 20.0])
    pre_trade_mean_ms: float = 275.0
    pre_trade_sigma_ms: float = 50.0
    price: PriceSpec = field(default_factory=PriceSpec)
    secondary_noise_frac: float = 0.0002
    vault_initial_oz: float = 1000.0
    attestation_interval_ms: int = 60_000
    mm: MMSpec = field(default_factory=MMSpec)
    risk: RiskSpec = field(default_factory=RiskSpec)
    issuance: IssuanceSpec = field(default_factory=IssuanceSpec)
    compliance: ComplianceSpec = field(default_factory=ComplianceSpec)
    params: dict[str, float] = field(default_factory=dict)
    fault_schedule: list[FaultSpec] = field(default_factory=list)
    governance_schedule: list[dict] = field(default_factory=list)
    ops_schedule: list[dict] = field(default_factory=list)
    issue_burst: Optional[BurstSpec] = None
    checks: list[str] = field(default_factory=list)
    sample_interval_ms: int = 1000
    snapshot_interval_ms: int = 0  # 0 disables state snapshot records
    log_trades: bool = True
    log_workflows: bool = False

    def to_dict(self) -> dict:
        data = asdict(self)
        if self.issue_burst is None:
            data.pop("issue_burst")
        return data


_NESTED = {
    "order_size": SizeSpec,
    "price": PriceSpec,
    "mm": MMSpec,
    "risk": RiskSpec,
    "issuance": IssuanceSpec,
    "compliance": ComplianceSpec,
    "issue_burst": BurstSpec,
}

_FAULT_KINDS = {"oracle": ("stuck", "spoofed"), "vault": ("misreport",)}

_NESTED_LISTS = {
    "regimes": RegimeSpec,
    "fault_schedule": FaultSpec,
}

_GOV_ACTION_KEYS = {
    "param_proposal": {
        "action", "propose_at_ms", "param", "value", "timelock_ms",
        "votes", "vote_at_ms", "execute_at_ms",
    },
    "agent_update": {"action", "agent", "version", "signers", "sign_at_ms"},
    "unpause": {"action", "at_ms"},
}

_OPS_ACTION_KEYS = {
    "clear_risk_alert": {"action", "at_ms"},
    "deposit_physical": {"action", "at_ms", "amount_oz"},
}


def _build(cls, data: Any, path: str, errors: list[str]):
    import dataclasses

    if not isinstance(data, dict):
        errors.append(f"{path}: expected an object, got {type(data).__name__}")
        return None
    fields = {f.name: f for f in dataclasses.fields(cls)}
    kwargs = {}
    for key, value in data.items():
        if key not in fields:
            errors.append(f"{path}.{key}: unknown key")
            continue
        if key in _NESTED:
            if value is None and fields[key].default is None:
                kwargs[key] = None  # an optional spec left out
                continue
            built = _build(_NESTED[key], value, f"{path}.{key}", errors)
            if built is not None:
                kwargs[key] = built
        elif key in _NESTED_LISTS:
            if not isinstance(value, list):
                errors.append(f"{path}.{key}: expected a list")
                continue
            items = []
            for i, item in enumerate(value):
                built = _build(_NESTED_LISTS[key], item, f"{path}.{key}[{i}]", errors)
                if built is not None:
                    items.append(built)
            kwargs[key] = items
        else:
            kwargs[key] = value
    for name, f in fields.items():
        if (
            name not in kwargs
            and f.default is dataclasses.MISSING
            and f.default_factory is dataclasses.MISSING
        ):
            errors.append(f"{path}.{name}: missing required key")
    if errors:
        return None
    try:
        return cls(**kwargs)
    except (TypeError, ValueError) as exc:
        errors.append(f"{path}: {exc}")
        return None


_SCHEDULE_TIME_KEYS = {"at_ms", "propose_at_ms", "vote_at_ms", "execute_at_ms"}


def _is_time(value: Any) -> bool:
    """A non-negative integer millisecond; a bool is not one."""
    return type(value) is int and value >= 0


def _validate_schedule(entries, key_table, path, errors):
    for i, entry in enumerate(entries or []):
        if not isinstance(entry, dict) or "action" not in entry:
            errors.append(f"{path}[{i}]: expected an object with an 'action' key")
            continue
        action = entry["action"]
        allowed = key_table.get(action)
        if allowed is None:
            errors.append(f"{path}[{i}].action: unknown action {action!r}")
            continue
        for k, value in entry.items():
            if k not in allowed:
                errors.append(f"{path}[{i}].{k}: unknown key for {action}")
            elif k in _SCHEDULE_TIME_KEYS and not _is_time(value):
                errors.append(f"{path}[{i}].{k}: must be a non-negative integer, got {value!r}")
            elif k == "sign_at_ms" and not (
                isinstance(value, list) and all(map(_is_time, value))
            ):
                errors.append(f"{path}[{i}].{k}: must be a list of non-negative integers, "
                              f"got {value!r}")


def load_config(data: dict) -> ScenarioConfig:
    errors: list[str] = []
    config = _build(ScenarioConfig, data, "scenario", errors)
    if config is not None:
        _validate_schedule(config.governance_schedule, _GOV_ACTION_KEYS, "scenario.governance_schedule", errors)
        _validate_schedule(config.ops_schedule, _OPS_ACTION_KEYS, "scenario.ops_schedule", errors)
        positive = {
            "duration_ms": config.duration_ms,
            "block_interval_ms": config.block_interval_ms,
            "sample_interval_ms": config.sample_interval_ms,
            "attestation_interval_ms": config.attestation_interval_ms,
            "risk.cycle_ms": config.risk.cycle_ms,
            "mm.vol_window_s": config.mm.vol_window_s,
        }
        for name, value in positive.items():
            if value <= 0:
                errors.append(f"scenario.{name}: must be positive")
        for name, value in (("user_count", config.user_count),
                            ("snapshot_interval_ms", config.snapshot_interval_ms),
                            ("risk.phase_ms", config.risk.phase_ms)):
            if value < 0:
                errors.append(f"scenario.{name}: must not be negative")
        if config.load_model == "closed" and not config.think_time_ms > 0:
            errors.append("scenario.think_time_ms: must be positive under the closed load model")
        if config.action_mix:
            total = sum(config.action_mix.values())
            if abs(total - 1.0) > 1e-9:
                errors.append(f"scenario.action_mix: weights sum to {total}, expected 1.0")
            unknown = set(config.action_mix) - {"buy", "sell", "issue", "redeem"}
            if unknown:
                errors.append(f"scenario.action_mix: unknown actions {sorted(unknown)}")
        if config.load_model not in ("open", "closed"):
            errors.append(f"scenario.load_model: {config.load_model!r} is not open|closed")
        if config.order_style not in ("market", "mixed"):
            errors.append(f"scenario.order_style: {config.order_style!r} is not market|mixed")
        for i, fault in enumerate(config.fault_schedule):
            if fault.start_ms + fault.duration_ms > config.duration_ms:
                errors.append(f"scenario.fault_schedule[{i}]: extends past scenario end")
            kinds = _FAULT_KINDS.get(fault.target)
            if kinds is None:
                errors.append(f"scenario.fault_schedule[{i}].target: {fault.target!r}")
            elif fault.kind not in kinds:
                errors.append(f"scenario.fault_schedule[{i}].kind: "
                              f"{fault.kind!r} is not {'|'.join(kinds)}")
            if fault.feed not in (PRIMARY, SECONDARY):
                errors.append(f"scenario.fault_schedule[{i}].feed: {fault.feed!r} "
                              f"is not {PRIMARY}|{SECONDARY}")
    if errors:
        raise ConfigError(errors)
    return config


def load_config_file(path: str | Path) -> ScenarioConfig:
    with open(path, encoding="utf-8") as fh:
        try:
            data = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ConfigError([f"{path}: invalid JSON ({exc})"]) from exc
    return load_config(data)


def bundled_scenario_names() -> list[str]:
    names = []
    for entry in resources.files("ozsim.scenarios").iterdir():
        if entry.name.endswith(".json"):
            names.append(entry.name[:-5])
    return sorted(names)


def load_bundled(name: str) -> ScenarioConfig:
    ref = resources.files("ozsim.scenarios").joinpath(f"{name}.json")
    if not ref.is_file():
        raise ConfigError([f"unknown bundled scenario {name!r}; "
                           f"available: {', '.join(bundled_scenario_names())}"])
    return load_config(json.loads(ref.read_text(encoding="utf-8")))


def resolve_scenario(ref: str) -> ScenarioConfig:
    """Accepts a bundled scenario name or a path to a JSON file."""
    path = Path(ref)
    if path.exists():
        return load_config_file(path)
    return load_bundled(ref)
