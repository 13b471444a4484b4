"""Span tracer for the traced benchmark run.

Nothing here edits the simulator's code.  `Tracer.install` replaces methods on
the instances of one built `Simulation` with timing wrappers, before its
`execute()` runs; the scheduler's `schedule` is wrapped so that every action
it queues is timed under its kind label.  A `gc.callbacks` hook times the
garbage collector.  The wrappers neither draw random numbers nor reorder
events, so a traced run produces the same event-log digest as an untraced one.

A span's inclusive time is its wall duration; its self time is that minus the
time covered by the spans and collector pauses nested inside it.  A layer's
time counts the outermost span of the layer only, so a layer calling into
itself is not counted twice.  A method or event kind that no longer exists is
reported as absent rather than failing; a listed event kind that no run
scheduled reports zero and is named in the record.
"""

from __future__ import annotations

import gc
import time
from collections import defaultdict
from contextlib import contextmanager

perf = time.perf_counter

# Layer that owns each scheduled event kind; unlisted kinds belong to runner.
KIND_LAYERS = {
    "block": "ledger",
    "confirmations": "ledger",
    "breaker_lift": "ledger",
    "settle": "exchange",
    "oracle_step": "oracle",
    "attestation": "vault",
    "risk_cycle": "agents.risk",
    "mm_quote": "agents.market_maker",
    "metrics_sample": "metrics",
    "issuance_processing": "agents.issuance",
    "redemption_processing": "agents.issuance",
    "pre_trade_check": "agents.orchestrator",
    "admission": "agents.orchestrator",
    "order_expiry": "agents.orchestrator",
    "compliance_decision": "agents.orchestrator",
    "manual_review": "agents.orchestrator",
}

# Event kinds reported one by one as per-layer metrics: those with enough
# events for an optimisation to move.  Every kind, these and the one-off ones
# (faults, governance, operator actions), is in the record's `kinds` table.
KINDS = (
    "block", "settle", "confirmations", "pre_trade_check", "user_action",
    "admission", "order_expiry", "mm_quote", "oracle_step", "risk_cycle",
    "metrics_sample", "attestation", "compliance_decision",
    "issuance_processing", "redemption_processing", "burst_issue",
)

# (attribute path on Simulation, method, span); a span's layer is its name
# without the last dotted part.
METHODS = (
    ("sched", "run_until", "sim.run_until"),
    ("log", "append", "sim.log_append"),
    ("ledger", "submit_tx", "ledger.submit_tx"),
    ("ledger", "_produce_block", "ledger.block"),
    ("ledger", "_execute", "ledger.execute"),
    ("ledger", "_confirm", "ledger.confirm"),
    ("ledger", "execute_transfer", "ledger.transfer"),
    ("ledger", "evaluate_breaker", "ledger.breaker"),
    ("exchange", "place", "exchange.place"),
    ("exchange", "cancel", "exchange.cancel"),
    ("exchange", "settle_batch", "exchange.settle"),
    ("oracle", "step", "oracle.step"),
    ("vault", "lock_for_issuance", "vault.lock_for_issuance"),
    ("vault", "release", "vault.release"),
    ("vault", "authorize_withdrawal", "vault.authorize_withdrawal"),
    ("vault", "withdraw_physical", "vault.withdraw_physical"),
    ("vault", "deposit_physical", "vault.deposit_physical"),
    ("vault", "issue_attestation", "vault.issue_attestation"),
    ("vault", "inject_misreport", "vault.inject_misreport"),
    ("vault", "restore", "vault.restore"),
    ("governance", "propose_update", "governance.propose_update"),
    ("governance", "sign_update", "governance.sign_update"),
    ("governance", "drain_agent_updates", "governance.drain_agent_updates"),
    ("governance", "propose_param", "governance.propose_param"),
    ("governance", "vote", "governance.vote"),
    ("governance", "execute_param", "governance.execute_param"),
    ("governance", "submit_execute_tx", "governance.submit_execute_tx"),
    ("governance", "governance_unpause", "governance.governance_unpause"),
    ("compliance", "screen", "agents.compliance.screen"),
    ("issuance", "process_issue", "agents.issuance.process_issue"),
    ("issuance", "process_redeem", "agents.issuance.process_redeem"),
    ("mm", "quote_cycle", "agents.market_maker.quote"),
    ("mm", "realized_sigma", "agents.market_maker.sigma"),
    ("risk", "cycle", "agents.risk.cycle"),
    ("risk.gate", "admit", "agents.risk.admit"),
    ("orchestrator", "handle", "agents.orchestrator.handle"),
    ("orchestrator", "onboard", "agents.orchestrator.onboard"),
    ("metrics", "sample", "metrics.sample"),
)

# Return values kept for the per-layer metrics: settlement tx ids, admission waits.
KEEP_RESULTS = {"exchange.settle", "agents.risk.admit"}


def _resolve(root, path: str):
    obj = root
    for part in path.split("."):
        obj = getattr(obj, part, None)
        if obj is None:
            return None
    return obj


class Tracer:
    """Spans, counts and collector pauses of one benchmark repetition."""

    def __init__(self):
        self.spans: dict[str, list] = {}  # name -> [layer, calls, inclusive_s, self_s]
        self.layer_s: dict[str, float] = defaultdict(float)
        self.kept: dict[str, list] = defaultdict(list)
        self.counts: dict[str, int] = defaultdict(int)
        self.absent: set[str] = set()
        self.gc_pause_s = 0.0
        self.gc_collections = [0, 0, 0]
        self.phase_s: dict[str, float] = defaultdict(float)
        self._stack: list[list[float]] = []
        self._layer_depth: dict[str, int] = defaultdict(int)
        self._gc_started = 0.0

    # -- spans ----------------------------------------------------------------

    def _stats(self, layer: str, name: str) -> list:
        stats = self.spans.get(name)
        if stats is None:
            stats = self.spans[name] = [layer, 0, 0.0, 0.0]
        return stats

    def wrap(self, layer: str, name: str, fn):
        stats = self._stats(layer, name)
        stack, depth, layer_s = self._stack, self._layer_depth, self.layer_s
        kept = self.kept[name] if name in KEEP_RESULTS else None

        def traced(*args, **kwargs):
            frame = [0.0]
            stack.append(frame)
            depth[layer] += 1
            start = perf()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = perf() - start
                stack.pop()
                depth[layer] -= 1
                stats[1] += 1
                stats[2] += elapsed
                stats[3] += elapsed - frame[0]
                if not depth[layer]:
                    layer_s[layer] += elapsed
                if stack:
                    stack[-1][0] += elapsed
            if kept is not None:
                kept.append(result)
            return result

        return traced

    def install(self, sim) -> None:
        """Wrap the methods of one built Simulation; call before execute()."""
        for path, method, name in METHODS:
            owner = _resolve(sim, path)
            fn = getattr(owner, method, None) if owner is not None else None
            if not callable(fn):
                self.absent.add(name)
                continue
            setattr(owner, method, self.wrap(name.rsplit(".", 1)[0], name, fn))
        sched = getattr(sim, "sched", None)
        schedule = getattr(sched, "schedule", None)
        if not callable(schedule):
            self.absent.add("sim.schedule")
            return
        wrap = self.wrap

        def traced_schedule(fire_at, priority, kind, action, *args, **kwargs):
            span = wrap(KIND_LAYERS.get(kind, "runner"), f"kind.{kind}", action)
            return schedule(fire_at, priority, kind, span, *args, **kwargs)

        sched.schedule = traced_schedule

    def _read(self, sim, path: str, metric: str, default):
        """The attribute at `path` on sim, or default with `metric` marked absent."""
        value = _resolve(sim, path)
        if value is None:
            self.absent.add(metric)
            return default
        return value

    def collect(self, sim) -> None:
        """Add the simulated counts of one finished Simulation."""
        counts, read = self.counts, self._read
        counts["sim.log_records"] += read(sim, "log.count", "sim.log_records", 0)
        counts["exchange.trades"] += read(sim, "exchange.trade_count", "exchange.trades", 0)
        counts["ledger.txs_accepted"] += read(
            sim, "ledger.accepted_tx_count", "ledger.tx_accept_ratio", 0)
        reports = read(sim, "metrics.reports", "agents.orchestrator.workflows", [])
        workflows = [r for r in reports if r.kind != "onboard"]
        counts["agents.orchestrator.workflows"] += len(workflows)
        counts["agents.orchestrator.workflows_failed"] += sum(1 for r in workflows if not r.ok)

    # -- garbage collector ----------------------------------------------------

    def _on_gc(self, phase: str, info: dict) -> None:
        if phase == "start":
            self._gc_started = perf()
            return
        elapsed = perf() - self._gc_started
        self.gc_pause_s += elapsed
        self.gc_collections[info["generation"]] += 1
        if self._stack:
            self._stack[-1][0] += elapsed

    def __enter__(self) -> "Tracer":
        gc.callbacks.append(self._on_gc)
        return self

    def __exit__(self, *exc) -> None:
        gc.callbacks.remove(self._on_gc)

    @contextmanager
    def gc_paused(self):
        """Leave the collector pauses inside the block out of gc.pause_s."""
        gc.callbacks.remove(self._on_gc)
        try:
            yield
        finally:
            gc.callbacks.append(self._on_gc)

    # -- report ---------------------------------------------------------------

    def _calls(self, name: str) -> int:
        stats = self.spans.get(name)
        return stats[1] if stats is not None else 0

    def _incl(self, name: str) -> float:
        stats = self.spans.get(name)
        return stats[2] if stats is not None else 0.0

    def metrics(self) -> dict[str, float]:
        """Per-layer metrics of this repetition, by the names BENCHMARK.json lists."""
        calls, incl, counts = self._calls, self._incl, self.counts
        waits = sorted(self.kept.get("agents.risk.admit", []))
        executed = calls("ledger.execute")
        workflows = counts["agents.orchestrator.workflows"]
        dispatch = self.spans.get("sim.run_until")
        out = {
            "agents.market_maker.quote_s": incl("agents.market_maker.quote"),
            "agents.market_maker.sigma_s": incl("agents.market_maker.sigma"),
            "ledger.breaker_s": incl("ledger.breaker"),
            "oracle.step_s": incl("oracle.step"),
            "metrics.sample_s": incl("metrics.sample"),
            "sim.log_records": counts["sim.log_records"],
            "sim.log_append_s": incl("sim.log_append"),
            "gc.pause_s": self.gc_pause_s,
            "gc.gen0": self.gc_collections[0],
            "gc.gen1": self.gc_collections[1],
            "gc.gen2": self.gc_collections[2],
            "sim.events": sum(s[1] for n, s in self.spans.items() if n.startswith("kind.")),
            "sim.dispatch_s": dispatch[3] if dispatch is not None else 0.0,
            "exchange.place_calls": calls("exchange.place"),
            "exchange.place_s": incl("exchange.place"),
            "exchange.trades": counts["exchange.trades"],
            "exchange.settle_s": incl("exchange.settle"),
            "exchange.settle_txs": sum(len(ids) for ids in self.kept.get("exchange.settle", [])),
            "ledger.txs_submitted": calls("ledger.submit_tx"),
            "ledger.tx_accept_ratio": counts["ledger.txs_accepted"] / executed if executed else 0.0,
            "ledger.transfer_s": incl("ledger.transfer"),
            "ledger.block_s": incl("ledger.block"),
            "ledger.confirm_s": incl("ledger.confirm"),
            "agents.orchestrator.workflows": workflows,
            "agents.orchestrator.workflow_fail_ratio": (
                counts["agents.orchestrator.workflows_failed"] / workflows if workflows else 0.0
            ),
            "agents.orchestrator.pre_trade_s": incl("kind.pre_trade_check"),
            "agents.risk.admit_calls": calls("agents.risk.admit"),
            "agents.risk.admit_s": incl("agents.risk.admit"),
            "agents.risk.admit_wait_ms.p50": _nearest_rank(waits, 0.50),
            "agents.risk.admit_wait_ms.p99": _nearest_rank(waits, 0.99),
            "runner.user_action_s": incl("kind.user_action"),
            "governance.calls": sum(s[1] for s in self.spans.values() if s[0] == "governance"),
            "governance.s": self.layer_s.get("governance", 0.0),
            "vault.s": self.layer_s.get("vault", 0.0),
            "agents.compliance.screens": calls("agents.compliance.screen"),
            "agents.compliance.screen_s": incl("agents.compliance.screen"),
            "agents.issuance.workflows": (
                calls("agents.issuance.process_issue") + calls("agents.issuance.process_redeem")
            ),
            "agents.issuance.s": self.layer_s.get("agents.issuance", 0.0),
            "runner.outputs_s": self.phase_s["outputs"],
            "checks.s": self.phase_s["checks"],
            "replay.s": self.phase_s["replay"],
        }
        for kind in KINDS:
            out[f"kind.{kind}.s"] = incl(f"kind.{kind}")
            out[f"kind.{kind}.n"] = calls(f"kind.{kind}")
        return out

    def self_times(self) -> dict[str, float]:
        """Self seconds of every span, with the collector as its own entry."""
        table = {name: stats[3] for name, stats in self.spans.items()}
        table["gc.pause"] = self.gc_pause_s
        return dict(sorted(table.items(), key=lambda item: -item[1]))

    def kinds(self) -> dict[str, dict]:
        """Inclusive seconds and count of every event kind that fired."""
        return {
            name[len("kind."):]: {"s": stats[2], "n": stats[1]}
            for name, stats in sorted(self.spans.items())
            if name.startswith("kind.")
        }

    def kinds_not_scheduled(self) -> list[str]:
        return [kind for kind in KINDS if f"kind.{kind}" not in self.spans]


def _nearest_rank(sorted_values: list, q: float) -> float:
    if not sorted_values:
        return 0.0
    return float(sorted_values[min(len(sorted_values) - 1, int(q * len(sorted_values)))])
