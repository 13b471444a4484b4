"""Per-second sampling and the end-of-run summary.

The CSV holds the per-second series (t_ms, mid, spread_frac, bid_depth_oz,
ask_depth_oz, mm_inventory_oz, tps, risk_util); everything an acceptance
criterion needs beyond that is aggregated into the summary dictionary so no
re-run is required to evaluate a criterion.

Every workflow report of a run lives in MetricsCollector.reports, a
WorkflowReports store that keeps the report fields as columns rather than one
object per workflow; iterating it rebuilds the WorkflowReports.
"""

from __future__ import annotations

import csv
import json
import statistics
from array import array
from collections import Counter
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

from .agents.orchestrator import COMPLETED, WorkflowReport
from .units import MICRO, from_micro

CSV_COLUMNS = [
    "t_ms", "mid", "spread_frac", "bid_depth_oz", "ask_depth_oz",
    "mm_inventory_oz", "tps", "risk_util",
]


@dataclass
class Sample:
    t_ms: int
    mid: Optional[float]
    spread_frac: Optional[float]
    bid_depth_oz: Optional[float]
    ask_depth_oz: Optional[float]
    mm_inventory_oz: float
    tps: float
    risk_util: float
    halted: bool
    sigma: float
    half_spread: float
    ref_price: Optional[float]


class WorkflowReports:
    """The workflow reports of a run, appended in order and kept as columns.

    A saturated run reports hundreds of thousands of workflows, so the store
    keeps no object per report: kinds and statuses are byte codes into one
    table of names (at most 256 distinct), times are 64-bit integer arrays,
    and users are the id strings the orchestrator already holds.  Iteration
    yields WorkflowReports equal to the ones appended.
    """

    def __init__(self):
        self.names: list[str] = []  # code -> kind or status name
        self._codes: dict[str, int] = {}
        self.kind = bytearray()
        self.status = bytearray()
        self.user: list[str] = []
        self.requested_at = array("q")
        self.finished_at = array("q")
        self.agent_ms = array("q")
        self.chain_ms = array("q")

    def code(self, name: str) -> Optional[int]:
        """The code of a kind or status name, None if no report carried it."""
        return self._codes.get(name)

    def _intern(self, name: str) -> int:
        code = self._codes[name] = len(self.names)
        self.names.append(name)
        return code

    def append(self, report: WorkflowReport) -> None:
        kind, user, status, requested_at, finished_at, agent_ms, chain_ms = report
        codes = self._codes
        self.kind.append(codes[kind] if kind in codes else self._intern(kind))
        self.status.append(codes[status] if status in codes else self._intern(status))
        self.user.append(user)
        self.requested_at.append(requested_at)
        self.finished_at.append(finished_at)
        self.agent_ms.append(agent_ms)
        self.chain_ms.append(chain_ms)

    def __len__(self) -> int:
        return len(self.kind)

    def __iter__(self):
        name = self.names.__getitem__
        return map(
            WorkflowReport, map(name, self.kind), self.user, map(name, self.status),
            self.requested_at, self.finished_at, self.agent_ms, self.chain_ms,
        )


def _percentile(sorted_values: list, q: float) -> float:
    if not sorted_values:
        return float("nan")
    idx = min(len(sorted_values) - 1, max(0, round(q * (len(sorted_values) - 1))))
    return float(sorted_values[idx])


class MetricsCollector:
    def __init__(self, sched, exchange, mm, ledger, risk, oracle, sample_interval_ms: int):
        self.sched = sched
        self.exchange = exchange
        self.mm = mm
        self.ledger = ledger
        self.risk = risk
        self.oracle = oracle
        self.sample_interval_ms = sample_interval_ms
        self.samples: list[Sample] = []
        self.reports = WorkflowReports()
        self.trades_during_halt = 0
        self._last_tx_count = 0
        self._last_sample_ms = 0
        exchange.on_trade(self._watch_trade)

    def _watch_trade(self, trade) -> None:
        if self.ledger.trading_paused:
            self.trades_during_halt += 1

    def on_report(self, report) -> None:
        self.reports.append(report)

    def start(self) -> None:
        interval = self.sample_interval_ms
        self.sched.every(
            interval, interval, 5, "metrics_sample", lambda: self.sample(self.sched.now())
        )

    def sample(self, now: int) -> Sample:
        elapsed = now - self._last_sample_ms or self.sample_interval_ms
        mid = spread = bid_depth = ask_depth = None
        book = self.exchange.book
        raw_mid = book.mid()
        if raw_mid is not None:
            mid = raw_mid / MICRO
            spread = (book.best_ask() - book.best_bid()) / raw_mid
            b, a = book.depth_within(0.01)
            bid_depth = from_micro(b)
            ask_depth = from_micro(a)
        else:
            best_bid, best_ask = book.best_bid(), book.best_ask()
            if best_bid is not None:
                bid_depth = from_micro(book.depth_one_sided("bid"))
            if best_ask is not None:
                ask_depth = from_micro(book.depth_one_sided("ask"))
        tx_count = self.ledger.accepted_tx_count
        tps = (tx_count - self._last_tx_count) * 1000.0 / elapsed
        self._last_tx_count = tx_count
        sample = Sample(
            t_ms=now,
            mid=mid,
            spread_frac=spread,
            bid_depth_oz=bid_depth,
            ask_depth_oz=ask_depth,
            mm_inventory_oz=from_micro(self.mm.inventory),
            tps=tps,
            risk_util=self.risk.gate.utilization_since_last_sample(now, elapsed),
            halted=bool(self.ledger.trading_paused),
            sigma=self.oracle.process.sigma_at(now),
            half_spread=self.mm.current_half_spread,
            ref_price=self.oracle.reference_price() / MICRO,
        )
        self.samples.append(sample)
        self._last_sample_ms = now
        return sample

    # -- aggregation -----------------------------------------------------------

    def latency_stats(self) -> dict:
        reports = self.reports
        names, ok_code = reports.names, reports.code(COMPLETED)
        requests = Counter(reports.kind)
        ok = {kind: ([], [], []) for kind in requests}  # latencies, agent_ms, chain_ms
        failed: dict[int, dict[str, int]] = {kind: {} for kind in requests}
        for kind, status, requested_at, finished_at, agent_ms, chain_ms in zip(
            reports.kind, reports.status, reports.requested_at, reports.finished_at,
            reports.agent_ms, reports.chain_ms,
        ):
            if status == ok_code:
                latencies, agent, chain = ok[kind]
                latencies.append(finished_at - requested_at)
                agent.append(agent_ms)
                chain.append(chain_ms)
            else:
                failures, name = failed[kind], names[status]
                failures[name] = failures.get(name, 0) + 1
        stats: dict[str, dict] = {}
        for kind in sorted(requests, key=names.__getitem__):
            latencies, agent, chain = ok[kind]
            latencies.sort()
            entry = {
                "requests": requests[kind],
                "completed": len(latencies),
                "failed": failed[kind],
            }
            if latencies:
                entry.update(
                    mean_ms=statistics.fmean(latencies),
                    p50_ms=_percentile(latencies, 0.50),
                    p95_ms=_percentile(latencies, 0.95),
                    p99_ms=_percentile(latencies, 0.99),
                    mean_agent_ms=statistics.fmean(agent),
                    mean_chain_ms=statistics.fmean(chain),
                )
            stats[names[kind]] = entry
        return stats

    def spread_stats(self, regimes) -> list[dict]:
        """Per price regime: spread band occupancy over quoted, unhalted samples."""
        out = []
        for regime in regimes:
            rows = [
                s for s in self.samples
                if s.sigma == regime.sigma_per_s and not s.halted and s.spread_frac is not None
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
            out.append(entry)
        return out

    def depth_stats(self) -> dict:
        bid = [s.bid_depth_oz for s in self.samples if not s.halted and s.bid_depth_oz is not None]
        ask = [s.ask_depth_oz for s in self.samples if not s.halted and s.ask_depth_oz is not None]
        return {
            "min_bid_oz": min(bid) if bid else None,
            "min_ask_oz": min(ask) if ask else None,
            "samples_bid": len(bid),
            "samples_ask": len(ask),
        }

    def peg_stats(self) -> dict:
        worst = 0.0
        worst_margin = None
        for s in self.samples:
            if s.halted or s.mid is None or s.ref_price in (None, 0):
                continue
            offset = abs(s.mid - s.ref_price) / s.ref_price
            worst = max(worst, offset)
            margin = s.half_spread - offset
            worst_margin = margin if worst_margin is None else min(worst_margin, margin)
        return {"max_mid_offset_frac": worst, "min_half_spread_margin": worst_margin}

    def inventory_stats(self) -> dict:
        values = [abs(s.mm_inventory_oz) for s in self.samples]
        return {
            "max_abs_oz": max(values) if values else 0.0,
            "rebalances": [
                {"t_ms": t, "inventory_oz": from_micro(inv)}
                for t, inv in self.mm.rebalance_events
            ],
        }

    def summary(self, config, digest: str, alerts: list, halts: list,
                fault_findings: list, extra: dict) -> dict:
        tps_values = [s.tps for s in self.samples]
        util_values = [s.risk_util for s in self.samples]
        return {
            "scenario": config.name,
            "seed": config.seed,
            "duration_ms": config.duration_ms,
            "digest": digest,
            "samples": len(self.samples),
            "tps": {
                "peak": max(tps_values) if tps_values else 0.0,
                "mean": statistics.fmean(tps_values) if tps_values else 0.0,
            },
            "risk_utilization": {
                "mean": statistics.fmean(util_values) if util_values else 0.0,
                "max": max(util_values) if util_values else 0.0,
            },
            "latency_ms": self.latency_stats(),
            "spread_by_regime": self.spread_stats(config.price.regimes),
            "depth": self.depth_stats(),
            "peg": self.peg_stats(),
            "inventory": self.inventory_stats(),
            "trades": {
                "count": self.exchange.trade_count,
                "volume_oz": from_micro(self.exchange.traded_micro_oz),
                "during_halt": self.trades_during_halt,
            },
            "alerts": alerts,
            "halts": halts,
            "fault_findings": fault_findings,
            **extra,
        }

    # -- output files -------------------------------------------------------------

    def write_csv(self, path: Path) -> None:
        with open(path, "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh)
            writer.writerow(CSV_COLUMNS)
            for s in self.samples:
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


def write_summary(summary: dict, path: Path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(summary, fh, indent=2, sort_keys=True, default=float)
        fh.write("\n")


def write_alerts_csv(fault_findings: list[dict], path: Path) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["kind", "onset_ms", "detected_ms", "latency_ms", "action"])
        for row in fault_findings:
            writer.writerow([
                row.get("kind", ""),
                row.get("onset_ms", ""),
                row.get("detected_ms", ""),
                row.get("latency_ms", ""),
                row.get("action", ""),
            ])
