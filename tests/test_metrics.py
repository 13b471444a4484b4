import statistics
from types import SimpleNamespace

from hypothesis import given, settings, strategies as st

from ozsim import bench
from ozsim.agents.orchestrator import WorkflowReport
from ozsim.config import load_config
from ozsim.metrics import MetricsCollector, WorkflowReports, _percentile

KINDS = ["onboard", "buy", "sell", "issue", "redeem"]
STATUSES = ["completed", "unfilled", "not_onboarded", "trading_halted",
            "insufficient_holdings", "reverted", "manual_review"]
TIME = st.integers(0, 2**40)
DURATION = st.integers(0, 10**6)


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


def reference_bench_selection(reports: list, warmup_ms: int):
    """bench.run_count's post-warmup latencies and failure count over a plain list."""
    latencies = sorted(
        r.latency_ms for r in reports
        if r.ok and r.kind != "onboard" and r.finished_at > warmup_ms
    )
    failed = sum(1 for r in reports if not r.ok and r.kind != "onboard")
    return latencies, failed


def store_of(appended: list) -> WorkflowReports:
    store = WorkflowReports()
    for report in appended:
        store.append(report)
    return store


@settings(max_examples=300, deadline=None)
@given(st.lists(reports(), max_size=60))
def test_store_iterates_and_aggregates_as_the_list_it_replaces(appended):
    store = store_of(appended)
    assert len(store) == len(appended)
    assert list(store) == appended
    assert all(type(r) is WorkflowReport for r in store)
    assert list(store) == appended  # iteration does not consume the store
    collector = SimpleNamespace(reports=store)
    assert MetricsCollector.latency_stats(collector) == reference_latency_stats(appended)


@settings(max_examples=200, deadline=None)
@given(st.lists(reports(), max_size=60), st.integers(-1, 59))
def test_run_count_selects_as_the_list_it_replaces(appended, cut):
    # the warm-up cut sits at 0 or exactly where one report finishes
    warmup_ms = appended[cut % len(appended)].finished_at if appended and cut >= 0 else 0

    class FinishedSimulation:
        def __init__(self, config):
            self.metrics = SimpleNamespace(samples=[], reports=store_of(appended))

        def execute(self):
            pass

    latencies, failed = reference_bench_selection(appended, warmup_ms)
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
        assert row.median_latency_ms != row.median_latency_ms  # nan

