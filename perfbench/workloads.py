"""The benchmark's workloads.

A workload's `rep()` performs one repetition: it builds and runs the
simulation the way `ozsim run --out` or `ozsim bench` does, times set-up and
execution separately, and applies the correctness gates.  Inputs depend only
on the workload seed: seed 0 runs each scenario at its bundled seed, and seed
n at the bundled seed plus n.

Timing needs the moment a `Simulation` finishes building, which happens inside
`run_scenario` and `run_count`.  `Probe` supplies it by substituting, for the
duration of one call, a subclass whose constructor records the time (and, in
the traced run, installs the tracer's wrappers) after the real constructor
returns.
"""

from __future__ import annotations

import dataclasses
import gc
import time
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional

from ozsim import bench, runner
from ozsim.bench import run_count
from ozsim.checks import run_checks
from ozsim.config import ScenarioConfig, load_bundled
from ozsim.replay import replay
from ozsim.runner import run_scenario

from tracing import Tracer

perf = time.perf_counter
cpu = time.process_time

# day-24h: the baseline-24h day compressed to this many hours, regimes scaled.
DAY_HOURS = 2
# closed-saturated: one bench-base point past the plateau onset.
CLOSED_USERS = 8000
CLOSED_DURATION_MS = 8_000
CLOSED_WARMUP_MS = 4_000
CLOSED_MIN_UTILIZATION = 0.8
DRILLS = ("table1-oracle", "table1-vault", "governance-demo", "issuance-burst", "issuance-latency")


@dataclass
class Rep:
    """Timings, digests, gate failures and simulated outputs of one repetition."""

    setup_s: float = 0.0
    wall_s: float = 0.0
    cpu_s: float = 0.0
    runs: int = 0
    failures: dict[str, list[str]] = field(default_factory=dict)
    digests: dict[str, str] = field(default_factory=dict)
    outputs: dict[str, dict] = field(default_factory=dict)

    def fail(self, run: str, message: str) -> None:
        self.failures.setdefault(run, []).append(message)


class Probe:
    """Records when each Simulation finishes building, and hands it to the tracer."""

    def __init__(self, tracer: Optional[Tracer]):
        self.tracer = tracer
        self.sim = None
        self.built_at = self.built_cpu = self.executed_at = 0.0

    def _built(self, sim) -> None:
        self.sim = sim
        if self.tracer is not None:
            self.tracer.install(sim)
            execute = sim.execute

            def timed_execute():
                try:
                    return execute()
                finally:
                    self.executed_at = perf()

            sim.execute = timed_execute
        self.built_cpu = cpu()
        self.built_at = perf()

    @contextmanager
    def watching(self):
        original = runner.Simulation
        probe = self

        class ProbedSimulation(original):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                probe._built(self)

        modules = [m for m in (runner, bench) if getattr(m, "Simulation", None) is original]
        for module in modules:
            module.Simulation = ProbedSimulation
        try:
            yield self
        finally:
            for module in modules:
                module.Simulation = original


def _measure(rep: Rep, run, tracer: Optional[Tracer]):
    """Run one simulation under a Probe; adds its set-up and wall time to rep."""
    probe = Probe(tracer)
    start, start_cpu = perf(), cpu()
    with probe.watching():
        value = run()
    end, end_cpu = perf(), cpu()
    rep.setup_s += probe.built_at - start
    rep.wall_s += end - probe.built_at
    rep.cpu_s += end_cpu - probe.built_cpu
    rep.runs += 1
    if tracer is not None:
        tracer.phase_s["outputs"] += end - probe.executed_at
        tracer.collect(probe.sim)
    return value, probe.sim


def _check_conservation(rep: Rep, run: str, sim) -> None:
    ledger = sim.ledger
    held = sum(ledger.balances.values())
    if held != ledger.total_supply:
        rep.fail(run, f"sum of balances {held} != total supply {ledger.total_supply}")


def _reseed(config: ScenarioConfig, seed: int) -> ScenarioConfig:
    return dataclasses.replace(config, seed=config.seed + seed)


class ScenarioWorkload:
    """Bundled scenarios through run_scenario(out_dir=...), run_checks and replay."""

    name = ""
    replays = False  # whether replay_logs=True re-runs each log through replay()

    def __init__(self, seed: int, out_dir: Path):
        self.seed = seed
        self.out_dir = out_dir / self.name

    def configs(self):
        """(run name, zero-argument function returning its config) pairs, in run order."""
        raise NotImplementedError

    def rep(self, tracer: Optional[Tracer] = None, replay_logs: bool = False) -> Rep:
        rep = Rep()
        for run, build in self.configs():
            out = self.out_dir / run
            result, sim = _measure(rep, lambda: run_scenario(build(), out_dir=out), tracer)
            rep.digests[run] = result.digest
            _check_conservation(rep, run, sim)
            start = perf()
            rows = run_checks(result)
            checks_s = perf() - start
            failed = [f"check {name}: {message}" for name, ok, message in rows if not ok]
            # Bundled checks are claims about the bundled seed; other seeds record them.
            if self.seed == 0:
                for message in failed:
                    rep.fail(run, message)
            rep.outputs[run] = self.outputs(result) | {"checks_failed": failed}
            # Free this run before the next one or the replay, so that the peak
            # memory is that of one run, as in `ozsim run` or `ozsim replay`.
            # Collector pauses from here on count in replay.s, not gc.pause_s.
            del result, sim
            replay_s = 0.0
            with tracer.gc_paused() if tracer is not None else nullcontext():
                gc.collect()
                if replay_logs and self.replays:
                    start = perf()
                    verdict = replay(out / "events.jsonl")
                    replay_s = perf() - start
                    if not verdict.ok:
                        rep.fail(run, f"replay {verdict.verdict}: {verdict.detail}")
            if tracer is not None:
                tracer.phase_s["checks"] += checks_s
                tracer.phase_s["replay"] += replay_s
        return rep

    def outputs(self, result) -> dict:
        return {"digest": result.digest}


class Day(ScenarioWorkload):
    name = "day-24h"

    def configs(self):
        def build() -> ScenarioConfig:
            config = load_bundled("baseline-24h")
            duration = DAY_HOURS * 3_600_000
            regimes = [
                dataclasses.replace(r, start_ms=r.start_ms * duration // config.duration_ms)
                for r in config.price.regimes
            ]
            return dataclasses.replace(
                _reseed(config, self.seed),
                duration_ms=duration,
                price=dataclasses.replace(config.price, regimes=regimes),
            )

        return [("baseline-24h", build)]

    def outputs(self, result) -> dict:
        summary = result.summary
        return {
            "digest": result.digest,
            "spread_by_regime": summary["spread_by_regime"],
            "peg": summary["peg"],
            "alerts": summary["alerts"],
        }


class Drills(ScenarioWorkload):
    name = "drills"
    replays = True

    def configs(self):
        return [(name, lambda name=name: _reseed(load_bundled(name), self.seed)) for name in DRILLS]


class ClosedSaturated:
    """One `ozsim bench` point: bench_config(bench-base, N), keep_events=False."""

    name = "closed-saturated"

    def __init__(self, seed: int, out_dir: Path):
        self.seed = seed

    def _run(self):
        base = _reseed(load_bundled("bench-base"), self.seed)
        base = dataclasses.replace(base, duration_ms=CLOSED_DURATION_MS)
        return run_count(base, CLOSED_USERS, warmup_ms=CLOSED_WARMUP_MS)

    def rep(self, tracer: Optional[Tracer] = None, replay_logs: bool = False) -> Rep:
        rep = Rep()
        row, sim = _measure(rep, self._run, tracer)
        name = f"bench-base-u{CLOSED_USERS}"
        rep.digests[name] = sim.log.digest()
        _check_conservation(rep, name, sim)
        if not row.utilization > CLOSED_MIN_UTILIZATION:
            rep.fail(name, f"post-warmup risk utilization {row.utilization:.3f} <= "
                           f"{CLOSED_MIN_UTILIZATION}: not saturated")
        rep.outputs[name] = {"digest": rep.digests[name], **dataclasses.asdict(row)}
        return rep


WORKLOADS = {w.name: w for w in (Day, ClosedSaturated, Drills)}
