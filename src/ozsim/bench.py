"""Scaling benchmark: one run per user count, reported in simulated time.

Each count runs the bench scenario with the user population swapped in and a
seed derived from (base seed, count).  Sustained TPS, median end-to-end
latency, and risk-agent utilization are measured over the post-warmup window.
"""

from __future__ import annotations

import dataclasses
import statistics
from dataclasses import dataclass
from itertools import compress

from .agents.orchestrator import COMPLETED, ONBOARD
from .config import ScenarioConfig
from .runner import Simulation


@dataclass
class BenchRow:
    users: int
    sustained_tps: float
    peak_tps: float
    median_latency_ms: float
    utilization: float
    completed: int
    failed: int


def bench_config(base: ScenarioConfig, users: int) -> ScenarioConfig:
    derived = dataclasses.replace(
        base,
        user_count=users,
        seed=base.seed * 1_000_003 + users,
        name=f"{base.name}-u{users}",
    )
    return derived


def run_count(base: ScenarioConfig, users: int, warmup_ms: int = 15_000) -> BenchRow:
    config = bench_config(base, users)
    sim = Simulation(config)
    sim.execute()
    samples = sim.metrics.samples
    window = [t_ms > warmup_ms for t_ms in samples.t_ms]
    tps_values = list(compress(samples.tps, window))
    util_values = list(compress(samples.risk_util, window))
    reports = sim.metrics.reports
    ok, onboard = reports.code(COMPLETED), reports.code(ONBOARD)
    latencies = sorted(
        finished_at - requested_at
        for kind, status, requested_at, finished_at in zip(
            reports.kind, reports.status, reports.requested_at, reports.finished_at
        )
        if status == ok and kind != onboard and finished_at > warmup_ms
    )
    failed = sum(
        1 for kind, status in zip(reports.kind, reports.status)
        if status != ok and kind != onboard
    )
    median = statistics.median(latencies) if latencies else float("nan")
    return BenchRow(
        users=users,
        sustained_tps=statistics.fmean(tps_values) if tps_values else 0.0,
        peak_tps=max(tps_values) if tps_values else 0.0,
        median_latency_ms=median,
        utilization=statistics.fmean(util_values) if util_values else 0.0,
        completed=len(latencies),
        failed=failed,
    )


def check_bench_args(base: ScenarioConfig, user_counts: list[int], warmup_ms: int) -> None:
    """Raise ValueError unless the counts are positive and ascending and the
    warm-up leaves part of the run to measure."""
    if sorted(user_counts) != user_counts:
        raise ValueError("user counts must be ascending")
    if user_counts and user_counts[0] <= 0:
        raise ValueError(f"user counts must be positive, got {user_counts[0]}")
    if not 0 <= warmup_ms < base.duration_ms:
        raise ValueError(f"warm-up {warmup_ms} ms is outside [0, {base.duration_ms}) ms")


def run_bench(
    base: ScenarioConfig,
    user_counts: list[int],
    warmup_ms: int = 15_000,
    jobs: int = 1,
) -> dict:
    check_bench_args(base, user_counts, warmup_ms)
    if jobs > 1:
        import multiprocessing as mp

        with mp.get_context("spawn").Pool(jobs) as pool:
            rows = pool.starmap(
                run_count, [(base, n, warmup_ms) for n in user_counts], chunksize=1
            )
    else:
        rows = [run_count(base, n, warmup_ms) for n in user_counts]
    report = {
        "scenario": base.name,
        "seed": base.seed,
        "warmup_ms": warmup_ms,
        "duration_ms": base.duration_ms,
        "rows": [dataclasses.asdict(row) for row in rows],
    }
    report["analysis"] = analyze(report["rows"])
    return report


def analyze(rows: list[dict]) -> dict:
    """Plateau detection: onset is the first count within 5% of the final TPS."""
    if not rows:
        return {}
    final_tps = rows[-1]["sustained_tps"]
    plateau_onset = None
    for row in rows:
        if final_tps > 0 and row["sustained_tps"] >= 0.95 * final_tps:
            plateau_onset = row["users"]
            break
    util_onset = None
    for row in rows:
        if row["utilization"] > 0.8:
            util_onset = row["users"]
            break
    return {
        "peak_tps": max(r["sustained_tps"] for r in rows),
        "plateau_onset_users": plateau_onset,
        "utilization_onset_users": util_onset,
        "final_utilization": rows[-1]["utilization"],
        "final_median_latency_ms": rows[-1]["median_latency_ms"],
        "first_median_latency_ms": rows[0]["median_latency_ms"],
    }


def format_table(report: dict) -> str:
    lines = [
        f"{'users':>7}  {'tps':>9}  {'peak':>9}  {'p50 ms':>8}  {'util':>6}  {'done':>8}  {'fail':>6}"
    ]
    for row in report["rows"]:
        lines.append(
            f"{row['users']:>7}  {row['sustained_tps']:>9.1f}  {row['peak_tps']:>9.1f}"
            f"  {row['median_latency_ms']:>8.0f}  {row['utilization']:>6.3f}"
            f"  {row['completed']:>8}  {row['failed']:>6}"
        )
    analysis = report.get("analysis", {})
    if analysis:
        lines.append(
            f"peak TPS {analysis['peak_tps']:.0f}; plateau onset at "
            f"{analysis['plateau_onset_users']} users; utilization first >0.8 at "
            f"{analysis['utilization_onset_users']} users"
        )
    return "\n".join(lines)
