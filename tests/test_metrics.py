import csv
import dataclasses
import statistics
from types import SimpleNamespace

import pytest
from hypothesis import given, settings, strategies as st

from ozsim import bench
from ozsim.agents.orchestrator import WorkflowReport
from ozsim.config import load_bundled, load_config
from ozsim.metrics import CSV_COLUMNS, Columns, MetricsCollector, Sample, _percentile
from ozsim.oracle import Regime
from ozsim.runner import run_scenario
from ozsim.units import from_micro

KINDS = ["onboard", "buy", "sell", "issue", "redeem"]
STATUSES = ["completed", "unfilled", "not_onboarded", "trading_halted",
            "insufficient_holdings", "reverted", "manual_review"]
TIME = st.integers(0, 2**40)
DURATION = st.integers(0, 10**6)
# Spread over TIME: samples before the first start fall to the first regime,
# and of two regimes starting together the later one is in force.
REGIMES = [Regime(2**20, 0.0005), Regime(2**30, 0.001), Regime(2**39, 0.0005),
           Regime(2**39, 0.002)]


def maybe(values):
    return st.none() | values


samples = st.builds(
    Sample, TIME, maybe(st.floats(1000, 3000)), maybe(st.floats(0, 0.02)),
    maybe(st.floats(0, 500)), maybe(st.floats(0, 500)), st.floats(-1000, 1000),
    st.floats(0, 10_000), st.floats(0, 1), st.booleans(),
    st.floats(0, 0.01), maybe(st.just(0.0) | st.floats(1000, 3000)),
)
# a run samples in time order
sample_lists = st.lists(samples, max_size=60).map(lambda rows: sorted(rows, key=lambda s: s.t_ms))


@st.composite
def reports(draw):
    requested_at = draw(TIME)
    return WorkflowReport(
        draw(st.sampled_from(KINDS)), draw(st.sampled_from(["u1", "u2", "user-0007"])),
        draw(st.sampled_from(STATUSES)), requested_at, requested_at + draw(DURATION),
        draw(DURATION), draw(DURATION),
    )


def reference_latency_stats(reports: list) -> dict:
    """MetricsCollector.latency_stats over a plain list of WorkflowReports."""
    stats = {}
    by_kind = {}
    for report in reports:
        by_kind.setdefault(report.kind, []).append(report)
    for kind, group in sorted(by_kind.items()):
        ok = [r for r in group if r.ok]
        latencies = sorted(r.latency_ms for r in ok)
        failures = {}
        for r in group:
            if not r.ok:
                failures[r.status] = failures.get(r.status, 0) + 1
        entry = {"requests": len(group), "completed": len(ok), "failed": failures}
        if latencies:
            entry.update(
                mean_ms=statistics.fmean(latencies),
                p50_ms=_percentile(latencies, 0.50),
                p95_ms=_percentile(latencies, 0.95),
                p99_ms=_percentile(latencies, 0.99),
                mean_agent_ms=statistics.fmean([r.agent_ms for r in ok]),
                mean_chain_ms=statistics.fmean([r.chain_ms for r in ok]),
            )
        stats[kind] = entry
    return stats


def reference_sample_stats(samples: list) -> dict:
    """The summary's sample aggregates, as MetricsCollector computed them over
    a plain list of Samples."""
    def regime_at(t_ms):  # the last regime started by then, else the first
        return max((i for i, r in enumerate(REGIMES) if r.start_ms <= t_ms), default=0)

    spread_by_regime = []
    for i, regime in enumerate(REGIMES):
        rows = [
            s for s in samples
            if regime_at(s.t_ms) == i and not s.halted and s.spread_frac is not None
        ]
        spreads = [s.spread_frac for s in rows]
        entry = {
            "sigma_per_s": regime.sigma_per_s,
            "start_ms": regime.start_ms,
            "samples": len(spreads),
        }
        if spreads:
            in_band = sum(1 for v in spreads if 0.002 - 1e-6 <= v <= 0.005 + 1e-6)
            entry.update(
                spread_min=min(spreads),
                spread_max=max(spreads),
                in_band_02_05_frac=in_band / len(spreads),
                le_1pct_frac=sum(1 for v in spreads if v <= 0.01 + 1e-6) / len(spreads),
            )
        spread_by_regime.append(entry)
    bid = [s.bid_depth_oz for s in samples if not s.halted and s.bid_depth_oz is not None]
    ask = [s.ask_depth_oz for s in samples if not s.halted and s.ask_depth_oz is not None]
    worst = 0.0
    worst_margin = None
    for s in samples:
        if s.halted or s.mid is None or s.ref_price in (None, 0):
            continue
        offset = abs(s.mid - s.ref_price) / s.ref_price
        worst = max(worst, offset)
        margin = s.half_spread - offset
        worst_margin = margin if worst_margin is None else min(worst_margin, margin)
    inventory = [abs(s.mm_inventory_oz) for s in samples]
    tps_values = [s.tps for s in samples]
    util_values = [s.risk_util for s in samples]
    return {
        "samples": len(samples),
        "tps": {
            "peak": max(tps_values) if tps_values else 0.0,
            "mean": statistics.fmean(tps_values) if tps_values else 0.0,
        },
        "risk_utilization": {
            "mean": statistics.fmean(util_values) if util_values else 0.0,
            "max": max(util_values) if util_values else 0.0,
        },
        "spread_by_regime": spread_by_regime,
        "depth": {
            "min_bid_oz": min(bid) if bid else None,
            "min_ask_oz": min(ask) if ask else None,
            "samples_bid": len(bid),
            "samples_ask": len(ask),
        },
        "peg": {"max_mid_offset_frac": worst, "min_half_spread_margin": worst_margin},
        "inventory": {
            "max_abs_oz": max(inventory) if inventory else 0.0,
            "rebalances": [{"t_ms": 5, "inventory_oz": from_micro(7)}],
        },
    }


def reference_bench_selection(reports: list, samples: list, warmup_ms: int):
    """bench.run_count's post-warmup latencies, failure count and sample window
    over plain lists."""
    latencies = sorted(
        r.latency_ms for r in reports
        if r.ok and r.kind != "onboard" and r.finished_at > warmup_ms
    )
    failed = sum(1 for r in reports if not r.ok and r.kind != "onboard")
    window = [s for s in samples if s.t_ms > warmup_ms]
    return latencies, failed, [s.tps for s in window], [s.risk_util for s in window]


def reference_write_csv(samples: list, path) -> None:
    """MetricsCollector.write_csv as it wrote a plain list of Samples."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(CSV_COLUMNS)
        for s in samples:
            writer.writerow([
                s.t_ms,
                "" if s.mid is None else f"{s.mid:.6f}",
                "" if s.spread_frac is None else f"{s.spread_frac:.8f}",
                "" if s.bid_depth_oz is None else f"{s.bid_depth_oz:.6f}",
                "" if s.ask_depth_oz is None else f"{s.ask_depth_oz:.6f}",
                f"{s.mm_inventory_oz:.6f}",
                f"{s.tps:.3f}",
                f"{s.risk_util:.6f}",
            ])


def store_of(row_type, appended: list, **kwargs) -> Columns:
    store = Columns(row_type, **kwargs)
    for row in appended:
        store.append(row)
    return store


@settings(max_examples=300, deadline=None)
@given(st.lists(reports(), max_size=60), sample_lists)
def test_store_iterates_and_aggregates_as_the_list_it_replaces(appended, sampled):
    exchange = SimpleNamespace(on_trade=lambda listener: None, trade_count=0, traded_micro_oz=0)
    mm = SimpleNamespace(rebalance_events=[(5, 7)])
    oracle = SimpleNamespace(process=SimpleNamespace(regimes=REGIMES))
    collector = MetricsCollector(None, exchange, mm, None, None, oracle, 1000)
    for report in appended:
        collector.on_report(report)
    for sample in sampled:
        collector.samples.append(sample)
    for store, rows, row_type in (
        (collector.reports, appended, WorkflowReport), (collector.samples, sampled, Sample)
    ):
        assert len(store) == len(rows)
        assert list(store) == rows
        assert all(type(r) is row_type for r in store)
        assert [list(map(type, r)) for r in store] == [list(map(type, r)) for r in rows]
        assert list(store) == rows  # iteration does not consume the store
    config = SimpleNamespace(name="s", seed=1, duration_ms=1)
    summary = collector.summary(config, "digest", [], [], [], {})
    assert summary["latency_ms"] == reference_latency_stats(appended)
    expected = reference_sample_stats(sampled)
    assert {key: summary[key] for key in expected} == expected


@settings(max_examples=200, deadline=None)
@given(st.lists(reports(), max_size=60), sample_lists, st.integers(-1, 59))
def test_run_count_selects_as_the_list_it_replaces(appended, sampled, cut):
    # the warm-up cut sits at 0 or exactly where one report finishes
    warmup_ms = appended[cut % len(appended)].finished_at if appended and cut >= 0 else 0

    class FinishedSimulation:
        def __init__(self, config):
            self.metrics = SimpleNamespace(
                samples=store_of(Sample, sampled),
                reports=store_of(WorkflowReport, appended, plain=("user",)),
            )

        def execute(self):
            pass

    latencies, failed, tps, util = reference_bench_selection(appended, sampled, warmup_ms)
    real = bench.Simulation
    bench.Simulation = FinishedSimulation
    try:
        row = bench.run_count(load_config({"name": "b", "seed": 1, "duration_ms": 1}), 10,
                              warmup_ms=warmup_ms)
    finally:
        bench.Simulation = real
    assert (row.completed, row.failed) == (len(latencies), failed)
    if latencies:
        assert row.median_latency_ms == statistics.median(latencies)
    else:
        assert row.median_latency_ms is None
    assert row.sustained_tps == (statistics.fmean(tps) if tps else 0.0)
    assert row.peak_tps == (max(tps) if tps else 0.0)
    assert row.utilization == (statistics.fmean(util) if util else 0.0)


@pytest.fixture(scope="module")
def csv_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("csv")


@settings(max_examples=200, deadline=None)
@given(sample_lists)
def test_csv_is_written_as_the_row_loop_it_replaces(csv_dir, sampled):
    collector = SimpleNamespace(samples=store_of(Sample, sampled))
    MetricsCollector.write_csv(collector, csv_dir / "columns.csv")
    reference_write_csv(sampled, csv_dir / "rows.csv")
    assert (csv_dir / "columns.csv").read_bytes() == (csv_dir / "rows.csv").read_bytes()


def test_spread_by_regime_counts_each_sample_in_the_regime_of_its_time():
    """Two regimes with the same sigma are told apart by time, and a run of
    1,800 samples counts each quoted, unhalted sample once."""
    regimes = [Regime(0, 5e-5), Regime(600_000, 5e-4), Regime(1_200_000, 5e-5)]
    base = load_bundled("baseline-24h")
    config = dataclasses.replace(
        base, duration_ms=1_800_000, price=dataclasses.replace(base.price, regimes=regimes),
    )
    result = run_scenario(config)
    samples = list(result.sim.metrics.samples)
    assert len(samples) == 1800
    expected = [
        sum(1 for s in samples
            if lo <= s.t_ms < hi and not s.halted and s.spread_frac is not None)
        for lo, hi in ((0, 600_000), (600_000, 1_200_000), (1_200_000, 1_800_001))
    ]
    spread = result.summary["spread_by_regime"]
    assert [(e["start_ms"], e["sigma_per_s"], e["samples"]) for e in spread] == [
        (r.start_ms, r.sigma_per_s, n) for r, n in zip(regimes, expected)
    ]
    assert sum(expected) > 1700
    # given out of order, the regimes come out sorted by start time
    shuffled = dataclasses.replace(
        config, price=dataclasses.replace(config.price, regimes=regimes[::-1])
    )
    assert run_scenario(shuffled).summary["spread_by_regime"] == spread
