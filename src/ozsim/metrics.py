"""Per-second sampling and the end-of-run summary.

The CSV holds the per-second series (t_ms, mid, spread_frac, bid_depth_oz,
ask_depth_oz, mm_inventory_oz, tps, risk_util); everything an acceptance
criterion needs beyond that is aggregated into the summary dictionary so no
re-run is required to evaluate a criterion.

The Samples (MetricsCollector.samples) and WorkflowReports (.reports) of a run
each live in a Columns store: typed columns, not one object per row.  A full
baseline-24h day keeps 86,400 samples; `ozsim run --scenario baseline-24h
--out` peaks at 36 MB that way against 69 MB with one object per sample.
"""

from __future__ import annotations

import csv
import json
import statistics
from array import array
from bisect import bisect_left
from collections import Counter
from functools import cache, partial
from math import nan
from pathlib import Path
from typing import NamedTuple, Optional, get_type_hints

from .agents.orchestrator import COMPLETED, WorkflowReport
from .units import MICRO, from_micro

CSV_COLUMNS = [
    "t_ms", "mid", "spread_frac", "bid_depth_oz", "ask_depth_oz",
    "mm_inventory_oz", "tps", "risk_util",
]


class Sample(NamedTuple):
    t_ms: int
    mid: Optional[float]
    spread_frac: Optional[float]
    bid_depth_oz: Optional[float]
    ask_depth_oz: Optional[float]
    mm_inventory_oz: float
    tps: float
    risk_util: float
    halted: bool
    half_spread: float
    ref_price: Optional[float]


# Row types are few; evaluating their annotations is most of a store's set-up.
_type_hints = cache(get_type_hints)


def _put_code(codes: dict[str, int], names: list[str], append, name: str) -> None:
    code = codes.get(name)
    if code is None:
        code = codes[name] = len(names)
        names.append(name)
    append(code)


class Columns:
    """Rows of one NamedTuple type, appended in order and kept as columns.

    A long or saturated run appends hundreds of thousands of rows, so the
    store keeps no object per row.  Each field is a column attribute of the
    store (no field may share a name with the store's own attributes), picked
    by its annotation: int -> array('q'); float -> array('d'); Optional[float]
    -> array('d'), NaN standing for None; bool -> bytearray; str -> byte codes
    into `names`, one table for all str fields (at most 256 values).  A field
    named in `plain` is a list of the values themselves, for strings the
    caller already holds one per row.  Iteration yields rows equal to the
    ones appended (a NaN in an Optional[float] field reads back as None).
    """

    def __init__(self, row_type, plain: tuple[str, ...] = ()):
        self.row_type = row_type
        self.names: list[str] = []  # byte code -> str value
        self._codes: dict[str, int] = {}
        self._puts = []  # per field: appends a value to its column
        self._reads = []  # per field: () -> iterator of the values appended
        for field, hint in _type_hints(row_type).items():  # in field order
            put = read = None
            if field in plain:
                column = []
            elif hint in (int, float, Optional[float]):
                column = array("q" if hint is int else "d")
                if hint == Optional[float]:
                    put = lambda v, append=column.append: append(nan if v is None else v)
                    read = partial(map, lambda v: None if v != v else v)
            elif hint is bool:
                column = bytearray()
                read = partial(map, bool)
            elif hint is str:
                column = bytearray()
                put = partial(_put_code, self._codes, self.names, column.append)
                read = partial(map, self.names.__getitem__)
            else:
                raise TypeError(f"no column for {row_type.__name__}.{field}: {hint}")
            setattr(self, field, column)
            self._puts.append(put or column.append)
            self._reads.append(partial(read or iter, column))

    def code(self, name: str) -> Optional[int]:
        """The byte code of a str value, None if no row carried it."""
        return self._codes.get(name)

    def append(self, row) -> None:
        for put, value in zip(self._puts, row):
            put(value)

    def __len__(self) -> int:
        return len(getattr(self, self.row_type._fields[0]))

    def __iter__(self):
        return map(self.row_type, *(read() for read in self._reads))


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
        self.samples = Columns(Sample)
        self.reports = Columns(WorkflowReport, plain=("user",))
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

    def sample(self, now: int) -> None:
        elapsed = now - self._last_sample_ms or self.sample_interval_ms
        mid = spread = bid_depth = ask_depth = None
        book = self.exchange.book
        best_bid, best_ask = book.best_bid(), book.best_ask()
        if best_bid is not None and best_ask is not None:
            raw_mid = (best_bid + best_ask) / 2  # book.mid(), without reading the book again
            mid = raw_mid / MICRO
            spread = (best_ask - best_bid) / raw_mid
            b, a = book.depth_within(0.01, raw_mid)
            bid_depth = from_micro(b)
            ask_depth = from_micro(a)
        else:
            if best_bid is not None:
                bid_depth = from_micro(book.depth_one_sided("bid"))
            if best_ask is not None:
                ask_depth = from_micro(book.depth_one_sided("ask"))
        tx_count = self.ledger.accepted_tx_count
        tps = (tx_count - self._last_tx_count) * 1000.0 / elapsed
        self._last_tx_count = tx_count
        # positional, in field order: keyword parsing is a measurable cost per sample
        self.samples.append(Sample(
            now, mid, spread, bid_depth, ask_depth, from_micro(self.mm.inventory), tps,
            self.risk.gate.utilization_since_last_sample(now, elapsed),
            bool(self.ledger.trading_paused), self.mm.current_half_spread,
            self.oracle.reference_price() / MICRO,
        ))
        self._last_sample_ms = now

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

    def spread_stats(self) -> list[dict]:
        """Per price regime: spread band occupancy over quoted, unhalted samples.

        A sample belongs to the regime in force at its time, as the price
        process decides it; sample times are sorted, so each regime's samples
        are one slice, from its start to the next regime's."""
        samples = self.samples
        regimes = self.oracle.process.regimes
        t_ms = samples.t_ms
        bounds = [0, *(bisect_left(t_ms, r.start_ms) for r in regimes[1:]), len(t_ms)]
        out = []
        for regime, lo, hi in zip(regimes, bounds, bounds[1:]):
            spreads = [
                spread for halted, spread
                in zip(samples.halted[lo:hi], samples.spread_frac[lo:hi])
                if not halted and spread == spread
            ]
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
        samples = self.samples
        bid = [v for h, v in zip(samples.halted, samples.bid_depth_oz) if not h and v == v]
        ask = [v for h, v in zip(samples.halted, samples.ask_depth_oz) if not h and v == v]
        return {
            "min_bid_oz": min(bid) if bid else None,
            "min_ask_oz": min(ask) if ask else None,
            "samples_bid": len(bid),
            "samples_ask": len(ask),
        }

    def peg_stats(self) -> dict:
        samples = self.samples
        worst = 0.0
        worst_margin = None
        for halted, mid, ref_price, half_spread in zip(
            samples.halted, samples.mid, samples.ref_price, samples.half_spread
        ):
            # NaN stands for a missing mid or reference price
            if halted or mid != mid or ref_price != ref_price or ref_price == 0:
                continue
            offset = abs(mid - ref_price) / ref_price
            worst = max(worst, offset)
            margin = half_spread - offset
            worst_margin = margin if worst_margin is None else min(worst_margin, margin)
        return {"max_mid_offset_frac": worst, "min_half_spread_margin": worst_margin}

    def inventory_stats(self) -> dict:
        inventory = self.samples.mm_inventory_oz
        return {
            "max_abs_oz": max(map(abs, inventory)) if inventory else 0.0,
            "rebalances": [
                {"t_ms": t, "inventory_oz": from_micro(inv)}
                for t, inv in self.mm.rebalance_events
            ],
        }

    def summary(self, config, digest: str, alerts: list, halts: list,
                fault_findings: list, extra: dict) -> dict:
        tps_values = self.samples.tps
        util_values = self.samples.risk_util
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
            "spread_by_regime": self.spread_stats(),
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
        s = self.samples

        def optional(places: int, column):
            return ("" if v != v else f"{v:.{places}f}" for v in column)  # NaN stands for None

        # Numbers need no quoting, so a row is one format call straight from the
        # columns; "\r\n" is csv.writer's line end, which the file has always had.
        row = "{},{},{},{},{},{:.6f},{:.3f},{:.6f}\r\n"
        with open(path, "w", newline="", encoding="utf-8") as fh:
            fh.write(",".join(CSV_COLUMNS) + "\r\n")
            fh.writelines(map(
                row.format, s.t_ms, optional(6, s.mid), optional(8, s.spread_frac),
                optional(6, s.bid_depth_oz), optional(6, s.ask_depth_oz),
                s.mm_inventory_oz, s.tps, s.risk_util,
            ))


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
