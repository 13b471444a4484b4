"""Scenario configuration: a strict, JSON-compatible object model.

Unknown keys are rejected at every nesting level with field-path messages so a
typo in a scenario file fails loudly instead of silently using a default, and
every value is checked against its field's annotation.
Bundled scenarios live under ozsim/scenarios/ and are addressable by name.
"""

from __future__ import annotations

import json
from dataclasses import MISSING, asdict, dataclass, field, fields, is_dataclass
from functools import cache
from importlib import resources
from operator import ge, gt
from pathlib import Path
from typing import TYPE_CHECKING, Annotated, Any, Optional, Union, get_args, get_origin, get_type_hints

from .governance import SIGNERS
from .ledger import PARAM_DEFAULTS, OutOfBounds, ParamStore
from .oracle import PRIMARY, SECONDARY, Regime
from .units import from_micro, to_micro

if TYPE_CHECKING:  # risk imports this module
    from .agents.risk import RiskAlert


class ConfigError(Exception):
    def __init__(self, messages: list[str]):
        self.messages = messages
        super().__init__("; ".join(messages))


# Bounded numbers: Annotated[type, comparison, bound, what load says of a value
# whose comparison with the bound fails].
Positive = Annotated[int, ge, 1, "must be positive"]  # periods and sizes
NonNegative = Annotated[int, ge, 0, "must not be negative"]  # counts and offsets
# A simulated time or duration in milliseconds: an integer, never negative.
NonNegativeInt = Annotated[int, ge, 0, "must be NonNegativeInt"]
PositiveFloat = Annotated[float, gt, 0.0, "must be positive"]  # rates, shares, prices


@dataclass
class PriceSpec:
    initial_usd_per_oz: PositiveFloat = 2400.0
    drift_per_s: float = 0.0
    regimes: list[Regime] = field(default_factory=lambda: [Regime(0, 5e-5)])


@dataclass
class SizeSpec:
    median_oz: PositiveFloat = 2.0  # the lognormal's median: LoadGenerator takes its log
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
    vol_window_s: Positive = 60


@dataclass
class RiskSpec:
    cycle_ms: Positive = 1000
    phase_ms: NonNegative = 500
    staleness_threshold_ms: int = 10_000
    divergence_threshold: float = 0.005
    concentration_limit: float = 0.20
    service_rate: PositiveFloat = 6400.0  # monitored events per second
    admission_headroom: PositiveFloat = 0.85  # capacity share usable by the workload
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
    start_ms: NonNegativeInt
    duration_ms: NonNegativeInt
    feed: str = "primary"
    magnitude: float = 0.0


@dataclass(eq=False)  # a restore removes its own record, by identity
class Fault:
    """One run's record of a FaultSpec, kept by the feed or vault it acts on."""

    spec: FaultSpec
    onset_ms: int  # a misreport's moves to the landing of the attestation it shaped
    alert: Optional[RiskAlert] = None  # the first alert credited to it
    detected_ms: Optional[int] = None  # when that alert was credited


@dataclass
class BurstSpec:
    count: int
    window_start_ms: int
    window_end_ms: int
    size_oz: float = 2.0


# Schedule entries: the action value picks the class; its fields are the keys.
@dataclass(kw_only=True)
class ParamProposal:
    action: str = "param_proposal"
    param: str
    value: float
    propose_at_ms: NonNegativeInt
    timelock_ms: Optional[NonNegativeInt] = None  # None: the governance default
    votes: list[tuple[str, bool]] = field(default_factory=list)  # (voter, support)
    vote_at_ms: Optional[NonNegativeInt] = None  # None: a second after the proposal
    execute_at_ms: Optional[NonNegativeInt] = None  # None: never executed

    def __post_init__(self):
        if self.vote_at_ms is None:
            self.vote_at_ms = self.propose_at_ms + 1000
        if any(t is not None and t < self.propose_at_ms
               for t in (self.vote_at_ms, self.execute_at_ms)):
            raise ValueError("vote_at_ms and execute_at_ms must not precede propose_at_ms")
        if self.votes and self.execute_at_ms is not None and self.vote_at_ms > self.execute_at_ms:
            # the execution attempt closes the proposal, so a later vote would fail
            raise ValueError("vote_at_ms must not fall after execute_at_ms when votes are cast")


@dataclass(kw_only=True)
class AgentUpdate:
    action: str = "agent_update"
    agent: str
    version: str
    signers: list[str]
    sign_at_ms: list[NonNegativeInt]  # one per signer; the first signature proposes

    def __post_init__(self):
        if len(self.signers) != len(self.sign_at_ms):
            raise ValueError("signers and sign_at_ms differ in length")


@dataclass(kw_only=True)
class Unpause:
    action: str = "unpause"
    at_ms: NonNegativeInt


@dataclass(kw_only=True)
class ClearRiskAlert:
    action: str = "clear_risk_alert"
    at_ms: NonNegativeInt


@dataclass(kw_only=True)
class DepositPhysical:
    action: str = "deposit_physical"
    at_ms: NonNegativeInt
    amount_oz: float


@dataclass
class ScenarioConfig:
    name: str
    seed: int
    duration_ms: Positive
    description: str = ""
    block_interval_ms: Positive = 1000
    commit_latency_ms: NonNegativeInt = 300
    commit_jitter_ms: NonNegativeInt = 0
    max_txs_per_block: Positive = 100_000
    user_count: NonNegative = 0
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
    order_expiry_ms: NonNegativeInt = 5000
    limit_offset_bps: tuple[float, float] = field(default_factory=lambda: [-10.0, 20.0])
    pre_trade_mean_ms: float = 275.0
    pre_trade_sigma_ms: float = 50.0
    price: PriceSpec = field(default_factory=PriceSpec)
    secondary_noise_frac: float = 0.0002
    vault_initial_oz: float = 1000.0
    attestation_interval_ms: Positive = 60_000
    mm: MMSpec = field(default_factory=MMSpec)
    risk: RiskSpec = field(default_factory=RiskSpec)
    issuance: IssuanceSpec = field(default_factory=IssuanceSpec)
    compliance: ComplianceSpec = field(default_factory=ComplianceSpec)
    params: dict[str, float] = field(default_factory=dict)
    fault_schedule: list[FaultSpec] = field(default_factory=list)
    governance_schedule: list[Union[ParamProposal, AgentUpdate, Unpause]] = field(
        default_factory=list)
    ops_schedule: list[Union[ClearRiskAlert, DepositPhysical]] = field(default_factory=list)
    issue_burst: Optional[BurstSpec] = None
    checks: list[str] = field(default_factory=list)
    sample_interval_ms: Positive = 1000
    snapshot_interval_ms: NonNegative = 0  # 0 disables state snapshot records
    log_trades: bool = True
    log_workflows: bool = False

    def to_dict(self) -> dict:
        data = asdict(self)
        if self.issue_burst is None:
            data.pop("issue_burst")
        return data


_FAULT_KINDS = {"oracle": ("stuck", "spoofed"), "vault": ("misreport",)}


@cache
def _fields(cls) -> dict:
    """name -> (field, annotation, the spec or Union of specs inside it or None)."""
    hints = get_type_hints(cls, include_extras=True)
    plan = {}
    for f in fields(cls):
        tp = hints[f.name]
        item = get_args(tp)[0] if get_origin(tp) in (list, Union) else tp
        plan[f.name] = (f, tp, item if is_dataclass(item) or get_origin(item) is Union else None)
    return plan


def _fits(tp, value: Any) -> bool:
    """Whether a JSON value fits annotation tp; a bool is no number, a tuple an array."""
    if tp in (int, str, bool):
        return type(value) is tp
    if tp is float:
        return type(value) is float or type(value) is int
    origin, args = get_origin(tp), get_args(tp)
    if origin is Annotated:
        return _fits(args[0], value) and args[1](value, args[2])
    if origin is Union:  # Optional[X]
        return value is None or _fits(args[0], value)
    if origin is list:
        return type(value) is list and all(_fits(args[0], v) for v in value)
    if origin is tuple:
        return type(value) is list and len(value) == len(args) and all(map(_fits, args, value))
    return type(value) is dict and all(_fits(args[1], v) for v in value.values())  # dict[str, X]


def _misfit(tp, written: str, value: Any) -> str:
    """Why value does not fit tp (`written` in the source): a bound's message or the type."""
    if get_origin(tp) is Annotated:
        base, _, _, message = get_args(tp)
        return message if _fits(base, value) else f"must be {base.__name__}"
    return f"must be {written}"


def _build(cls, data: Any, path: str, errors: list[str]):
    """Build spec cls from data, checking each key against its annotation.
    A Union of specs is a schedule entry, whose action value picks the class."""
    if not isinstance(data, dict):
        errors.append(f"{path}: expected an object, got {type(data).__name__}")
        return None
    if get_origin(cls) is Union:
        action = data.get("action")
        cls = next((c for c in get_args(cls) if c.action == action), None)
        if cls is None:
            errors.append(f"{path}.action: unknown action {action!r}")
            return None
    plan = _fields(cls)
    kwargs = {}
    for key, value in data.items():
        if key not in plan:
            errors.append(f"{path}.{key}: unknown key")
            continue
        f, tp, spec = plan[key]
        if spec is None and not _fits(tp, value):
            errors.append(f"{path}.{key}: {_misfit(tp, f.type, value)}, got {value!r}")
        elif spec is None or value is None and f.default is None:
            kwargs[key] = value  # a plain value, or an optional spec left out
        elif get_origin(tp) is not list:
            kwargs[key] = _build(spec, value, f"{path}.{key}", errors)
        elif isinstance(value, list):
            kwargs[key] = [_build(spec, v, f"{path}.{key}[{i}]", errors)
                           for i, v in enumerate(value)]
        else:
            errors.append(f"{path}.{key}: expected a list")
    for name, (f, _, _) in plan.items():
        if name not in data and f.default is MISSING and f.default_factory is MISSING:
            errors.append(f"{path}.{name}: missing required key")
    if errors:
        return None
    try:
        return cls(**kwargs)
    except (TypeError, ValueError) as exc:
        errors.append(f"{path}: {exc}")
        return None


def load_config(data: dict) -> ScenarioConfig:
    errors: list[str] = []
    config = _build(ScenarioConfig, data, "scenario", errors)
    if config is not None:
        if config.load_model == "closed" and not config.think_time_ms > 0:
            errors.append("scenario.think_time_ms: must be positive under the closed load model")
        if config.action_mix:
            total = sum(config.action_mix.values())
            if abs(total - 1.0) > 1e-9:
                errors.append(f"scenario.action_mix: weights sum to {total}, expected 1.0")
            unknown = set(config.action_mix) - {"buy", "sell", "issue", "redeem"}
            if unknown:
                errors.append(f"scenario.action_mix: unknown actions {sorted(unknown)}")
        unknown = set(config.params) - set(PARAM_DEFAULTS)
        if unknown:
            errors.append(f"scenario.params: unknown ledger parameters {sorted(unknown)}")
        store, reserve = ParamStore(), to_micro(config.vault_initial_oz)  # the genesis reserve
        for key in sorted(set(config.params) - unknown):
            try:
                store.set(key, config.params[key], reserve)
            except OutOfBounds as exc:
                errors.append(f"scenario.params: out-of-bounds ledger parameter {exc}")
        for i, entry in enumerate(config.governance_schedule):
            if isinstance(entry, ParamProposal) and entry.param not in PARAM_DEFAULTS:
                errors.append(f"scenario.governance_schedule[{i}].param: "
                              f"unknown ledger parameter {entry.param!r}")
            if isinstance(entry, AgentUpdate) and not SIGNERS.issuperset(entry.signers):
                errors.append(f"scenario.governance_schedule[{i}].signers: unknown signers "
                              f"{sorted(set(entry.signers) - SIGNERS)}")
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
            if fault.kind == "spoofed" and fault.magnitude <= -1:
                errors.append(f"scenario.fault_schedule[{i}].magnitude: must exceed -1, "
                              f"so the spoofed price stays positive; got {fault.magnitude}")
        if to_micro(config.price.initial_usd_per_oz) < 1:  # feeds post integer micro-USD
            errors.append("scenario.price.initial_usd_per_oz: must be at least one "
                          f"micro-dollar, got {config.price.initial_usd_per_oz}")
        mm = config.mm
        if mm.enabled and to_micro(mm.level_qty_oz) < 1:
            errors.append("scenario.mm.level_qty_oz: must be at least one micro-ounce while "
                          f"the market maker is enabled, got {mm.level_qty_oz}")
        if mm.enabled and to_micro(mm.inv_limit_oz) == 0:  # the quote skew divides by it
            errors.append("scenario.mm.inv_limit_oz: must not round to zero micro-ounces "
                          f"while the market maker is enabled, got {mm.inv_limit_oz}")
        # the vault must hold the genesis locks of runner.Simulation._genesis
        locks = [to_micro(mm.baseline_oz)] if mm.enabled and mm.baseline_oz > 0 else []
        if config.prefund_oz > 0 and config.user_count > 0:
            locks.append(to_micro(config.prefund_oz) * config.user_count)
        if locks and sum(locks) > to_micro(config.vault_initial_oz):
            errors.append(f"scenario.vault_initial_oz: {config.vault_initial_oz} oz cannot back "
                          f"the {from_micro(sum(locks))} oz locked at genesis (mm.baseline_oz, "
                          f"prefund_oz per user)")
        burst = config.issue_burst
        if burst is not None:
            if not 0 <= burst.window_start_ms <= burst.window_end_ms <= config.duration_ms:
                errors.append("scenario.issue_burst: window must run forward "
                              "within [0, duration_ms]")
            if burst.count > 0 and config.user_count == 0:
                errors.append("scenario.issue_burst: needs user_count > 0")
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
