"""Deterministic discrete-event core: simulated clock, seeded RNG streams, event log.

Time is integer milliseconds since scenario start.  Events are totally ordered
by (fire_at, priority, seq); seq is the insertion counter, so two events at the
same instant and priority fire in insertion order.  Replaying a scenario with
the same seed therefore reproduces the exact event sequence.
"""

from __future__ import annotations

import gc
import hashlib
import heapq
import json
import random
from typing import IO, Any, Callable, Optional


# Gen-0 collection threshold while run_until() dispatches events.  A run frees
# everything it discards by reference counting (test_run_leaves_no_cyclic_garbage
# in tests/test_harness.py checks every bundled scenario), so collections at
# the default threshold of 700 free nothing.  On one 8k-user, 8 s bench-base
# point the whole run went from 595/54/4 collections (gen 0/1/2), 1.2-1.4 s of
# pauses and 5.2-5.7 s of wall time to 76/6/0, 0.2 s and 3.9-4.2 s; on a
# 10k-user, 60 s point, from 15.6 s of pauses and 49.4 s of wall time to 0.8 s
# and 32.1 s.  Peak RSS stayed within 0.5 MB (Python 3.11.7, shared 2-vCPU
# x86-64 VM).  Unlike gc.disable(), a threshold still bounds cyclic garbage if
# a later change starts making it.
RUN_GEN0_THRESHOLD = 100_000


class PastTime(Exception):
    """Scheduling an event before the current simulation time."""


class RngStream(random.Random):
    """Deterministic random stream derived from (scenario seed, label).

    Streams with identical (seed, label) yield identical sequences; distinct
    labels are independent, so adding a new consumer never perturbs the draws
    seen by existing ones.
    """

    def __new__(cls, seed: int, label: str) -> "RngStream":
        return super().__new__(cls)

    def __init__(self, seed: int, label: str):
        if not label:
            raise ValueError("rng stream label must be non-empty")
        digest = hashlib.sha256(f"{seed}\x1f{label}".encode()).digest()
        super().__init__(int.from_bytes(digest, "big"))
        self.label = label


class Scheduler:
    """Single-threaded event loop with a millisecond clock.

    Priorities (lower fires first at equal time) used across the simulator:
      0  risk-agent cycles, settlement batching and breaker lifts
      1  ledger block production
      2  agent, oracle and user events, block confirmations
      3  market-maker quote cycles
      4  fault-schedule toggles
      5  metrics sampling and state snapshots

    Periodic work registers through every(), which runs its body and then
    reschedules it one interval later, so an event the body schedules for the
    next tick's (time, priority) fires before that tick.
    """

    def __init__(self, seed: int = 0):
        self.seed = seed
        self._now = 0
        self._seq = 0
        self._heap: list[tuple[int, int, int, Callable[[], None]]] = []

    def now(self) -> int:
        return self._now

    def fork_rng(self, label: str) -> RngStream:
        return RngStream(self.seed, label)

    def schedule(
        self, fire_at: int, priority: int, kind: str, action: Callable[[], None]
    ) -> None:
        if fire_at < self._now:
            raise PastTime(f"cannot schedule {kind!r} at t={fire_at} (now={self._now})")
        heapq.heappush(self._heap, (fire_at, priority, self._seq, action))
        self._seq += 1

    def schedule_in(
        self, delay: int, priority: int, kind: str, action: Callable[[], None]
    ) -> None:
        self.schedule(self._now + delay, priority, kind, action)

    def every(
        self, start: int, interval: int, priority: int, kind: str, fn: Callable[[], None]
    ) -> None:
        """Run fn() at start, start + interval, start + 2*interval, ..."""

        def fire() -> None:
            fn()
            self.schedule(self._now + interval, priority, kind, fire)

        self.schedule(start, priority, kind, fire)

    def run_until(self, end: int) -> int:
        """Process every event with fire_at <= end; leaves now() == end.

        The collector's gen-0 threshold is RUN_GEN0_THRESHOLD while events
        fire; the caller's thresholds are restored on return or raise.
        """
        if end < self._now:
            raise PastTime(f"cannot run backwards to t={end} (now={self._now})")
        fired = 0
        thresholds = gc.get_threshold()
        gc.set_threshold(RUN_GEN0_THRESHOLD, *thresholds[1:])
        try:
            while self._heap and self._heap[0][0] <= end:
                fire_at, _, _, action = heapq.heappop(self._heap)
                self._now = fire_at
                action()
                fired += 1
        finally:
            gc.set_threshold(*thresholds)
        self._now = end
        return fired


def canonical_line(record: dict) -> str:
    """Canonical one-line JSON encoding used for log bytes and digests."""
    return json.dumps(record, sort_keys=True, separators=(",", ":"))


class EventLog:
    """Append-only structured log with a streaming SHA-256 digest.

    Records are {t, source, kind, detail} and must arrive in nondecreasing t.
    The digest covers the canonical line encoding of every record appended so
    far, which is what the determinism checks compare.
    """

    def __init__(self, stream: Optional[IO[str]] = None, keep: bool = True):
        self._stream = stream
        self._keep = keep
        self.records: list[dict] = []
        self.count = 0
        self._last_t = 0
        self._hash = hashlib.sha256()

    def append(self, t: int, source: str, kind: str, detail: dict[str, Any]) -> None:
        if t < self._last_t:
            raise ValueError(f"event log time went backwards: {t} < {self._last_t}")
        self._last_t = t
        record = {"t": t, "source": source, "kind": kind, "detail": detail}
        line = canonical_line(record)
        self._hash.update(line.encode())
        self._hash.update(b"\n")
        self.count += 1
        if self._keep:
            self.records.append(record)
        if self._stream is not None:
            self._stream.write(line + "\n")

    def digest(self) -> str:
        return self._hash.hexdigest()
