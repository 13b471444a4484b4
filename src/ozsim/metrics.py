"""Per-second sampling and the end-of-run summary.

The CSV holds the per-second series (t_ms, mid, spread_frac, bid_depth_oz,
ask_depth_oz, mm_inventory_oz, tps, risk_util); everything an acceptance
criterion needs beyond that is aggregated into the summary dictionary so no
re-run is required to evaluate a criterion.
"""

from __future__ import annotations

import csv
import json
import statistics
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

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


def _percentile(sorted_values: list, q: float) -> float:
    if not sorted_values:
        return float("nan")
    idx = min(len(sorted_values) - 1, max(0, round(q * (len(sorted_values) - 1))))
    return float(sorted_values[idx])


class MetricsCollector:
    def __init__(self, sched, exchange=None, mm=None, ledger=None, risk=None,
                 oracle=None, sample_interval_ms: int = 1000):
        self.sched = sched
        self.exchange = exchange
        self.mm = mm
        self.ledger = ledger
        self.risk = risk
        self.oracle = oracle
        self.sample_interval_ms = sample_interval_ms
        self.samples: list[Sample] = []
        self.reports: list = []  # WorkflowReport
        self.trades_during_halt = 0
        self._last_tx_count = 0
        self._last_sample_ms = 0
        if exchange is not None and ledger is not None:
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
        halted = bool(self.ledger.trading_paused) if self.ledger else False
        if self.exchange is not None:
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
        tx_count = self.ledger.accepted_tx_count if self.ledger else 0
        tps = (tx_count - self._last_tx_count) * 1000.0 / elapsed
        self._last_tx_count = tx_count
        util = (
            self.risk.gate.utilization_since_last_sample(now, elapsed)
            if self.risk is not None
            else 0.0
        )
        sample = Sample(
            t_ms=now,
            mid=mid,
            spread_frac=spread,
            bid_depth_oz=bid_depth,
            ask_depth_oz=ask_depth,
            mm_inventory_oz=from_micro(self.mm.inventory) if self.mm else 0.0,
            tps=tps,
            risk_util=util,
            halted=halted,
            sigma=self.oracle.process.sigma_at(now) if self.oracle else 0.0,
            half_spread=self.mm.current_half_spread if self.mm else 0.0,
            ref_price=self.oracle.reference_price() / MICRO if self.oracle else None,
        )
        self.samples.append(sample)
        self._last_sample_ms = now
        return sample

    # -- aggregation -----------------------------------------------------------

    def latency_stats(self) -> dict:
        stats: dict[str, dict] = {}
        by_kind: dict[str, list] = {}
        for report in self.reports:
            by_kind.setdefault(report.kind, []).append(report)
        for kind, reports in sorted(by_kind.items()):
            ok = [r for r in reports if r.ok]
            latencies = sorted(r.latency_ms for r in ok)
            failures: dict[str, int] = {}
            for r in reports:
                if not r.ok:
                    failures[r.status] = failures.get(r.status, 0) + 1
            entry = {
                "requests": len(reports),
                "completed": len(ok),
                "failed": failures,
            }
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
        return {"max_abs_oz": max(values) if values else 0.0}

    def summary(self, config=None, digest: str = "", alerts=None, halts=None,
                fault_findings=None, extra=None) -> dict:
        tps_values = [s.tps for s in self.samples]
        util_values = [s.risk_util for s in self.samples]
        result = {
            "scenario": config.name if config else "",
            "seed": config.seed if config else 0,
            "duration_ms": config.duration_ms if config else 0,
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
            "spread_by_regime": self.spread_stats(config.price.regimes) if config else [],
            "depth": self.depth_stats(),
            "peg": self.peg_stats(),
            "inventory": self.inventory_stats(),
            "trades": {
                "count": self.exchange.trade_count if self.exchange else 0,
                "volume_oz": from_micro(self.exchange.traded_micro_oz) if self.exchange else 0.0,
                "during_halt": self.trades_during_halt,
            },
            "alerts": alerts or [],
            "halts": halts or [],
            "fault_findings": fault_findings or [],
        }
        if self.mm is not None:
            result["inventory"]["rebalances"] = [
                {"t_ms": t, "inventory_oz": from_micro(inv)}
                for t, inv in self.mm.rebalance_events
            ]
        if extra:
            result.update(extra)
        return result

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
