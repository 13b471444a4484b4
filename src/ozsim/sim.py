"""Deterministic discrete-event core: simulated clock, seeded RNG streams, event log.

Time is integer milliseconds since scenario start.  Events are totally ordered
by (fire_at, priority, insertion order): two events at the same instant and
priority fire in the order they were scheduled.  Replaying a scenario with the
same seed therefore reproduces the exact event sequence.

The scheduler keeps one FIFO bucket of actions per distinct (fire_at, priority)
key and a heap of those keys, encoded as the integer fire_at * 8 + priority, so
an event joining an existing bucket costs a dict lookup and a list append and
the heap is touched once per key (a calendar queue in the sense of Brown, CACM
31(10), 1988, with the integer millisecond clock as the calendar).
"""

from __future__ import annotations

import gc
import hashlib
import json
import random
from heapq import heappop, heappush
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


class Scheduler:
    """Single-threaded event loop with a millisecond clock.

    Priorities (lower fires first at equal time) used across the simulator:
      0  risk-agent cycles, settlement batching and breaker lifts
      1  ledger block production
      2  agent, oracle and user events, block confirmations
      3  market-maker quote cycles
      4  fault-schedule toggles
      5  metrics sampling and state snapshots
    The key encoding leaves room for 6 and 7; anything else is refused.

    run_until() drains the smallest key's bucket in order.  An action that
    schedules at the key being drained appends to its bucket and fires in the
    same pass.  An action at (t, p) that schedules at (t, p' < p) interrupts
    the drain: the heap's smallest key is no longer the current one, so the
    rest of the bucket waits until the new key has fired.  An action that
    raises counts as fired; the rest of its bucket stays queued.

    Periodic work registers through every(), which runs its body and then
    reschedules it one interval later, so an event the body schedules for the
    next tick's (time, priority) fires before that tick.
    """

    def __init__(self, seed: int = 0):
        self.seed = seed
        self._now = 0
        self._keys: list[int] = []  # heap of the keys that have a bucket
        self._buckets: dict[int, list[Callable[[], None]]] = {}

    def now(self) -> int:
        return self._now

    def fork_rng(self, label: str) -> RngStream:
        return RngStream(self.seed, label)

    def schedule(
        self, fire_at: int, priority: int, kind: str, action: Callable[[], None]
    ) -> None:
        if fire_at < self._now:
            raise PastTime(f"cannot schedule {kind!r} at t={fire_at} (now={self._now})")
        if not 0 <= priority <= 7:
            raise ValueError(f"priority of {kind!r} must be 0-7, got {priority}")
        key = fire_at * 8 + priority
        if key.__class__ is not int:  # a fractional time would collide with another key
            raise TypeError(f"time of {kind!r} must be an integer millisecond, got {fire_at!r}")
        bucket = self._buckets.get(key)
        if bucket is None:
            self._buckets[key] = [action]
            heappush(self._keys, key)
        else:
            bucket.append(action)

    def schedule_in(
        self, delay: int, priority: int, kind: str, action: Callable[[], None]
    ) -> None:
        self.schedule(self._now + delay, priority, kind, action)

    def every(
        self, start: int, interval: int, priority: int, kind: str, fn: Callable[[], None]
    ) -> None:
        """Run fn() at start, start + interval, start + 2*interval, ..."""
        if interval <= 0:
            raise ValueError(f"interval of {kind!r} must be positive, got {interval}")

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
        keys, buckets = self._keys, self._buckets
        last = end * 8 + 7
        fired = 0
        thresholds = gc.get_threshold()
        gc.set_threshold(RUN_GEN0_THRESHOLD, *thresholds[1:])
        try:
            while keys and keys[0] <= last:
                key = keys[0]
                bucket = buckets[key]
                self._now = key >> 3
                n = 0
                try:
                    for action in bucket:  # also visits actions appended meanwhile
                        n += 1
                        action()
                        if keys[0] != key:
                            break  # a lower priority at this time fires first
                finally:
                    del bucket[:n]  # an action that raised counts as fired
                fired += n
                if not bucket and keys[0] == key:
                    heappop(keys)
                    del buckets[key]
        finally:
            gc.set_threshold(*thresholds)
        self._now = end
        return fired


# json.dumps(..., sort_keys=True, separators=(",", ":")) and JSONEncoder.encode
# build a new C encoder, a markers dict and a float formatter on every call, and
# a run writes one record per on-chain fact: that set-up was most of a record's
# cost.  This C encoder is built once, with the settings of that call (sorted
# keys, ASCII escaping, NaN allowed, circular-reference check), so it writes the
# same bytes.  CPython ships _json on every supported version; there is no
# pure-Python fallback.  The two bulk record kinds, genesis_mint (one per user
# at build) and block, skip it: their detail text is built from the fields by
# hand (field_text), at under a quarter of the encoder's cost per genesis
# record, and without the encoder's list of chunks, tens of thousands for a full
# block.
if json.encoder.c_make_encoder is None:
    raise ImportError("ozsim needs the C JSON encoder of CPython's _json module")
_MARKERS: dict[int, Any] = {}
_ENCODE = json.encoder.c_make_encoder(
    _MARKERS,
    json.JSONEncoder().default,  # raises TypeError for what JSON cannot encode
    json.encoder.encode_basestring_ascii,
    None,  # indent
    ":",
    ",",
    True,  # sort_keys
    False,  # skipkeys
    True,  # allow_nan
)


def _encode(value: Any) -> str:
    try:
        return "".join(_ENCODE(value, 0))
    except BaseException:
        _MARKERS.clear()  # a raise leaves the ids of the containers it was inside
        raise


def canonical_line(record: dict) -> str:
    """Canonical one-line JSON encoding used for log bytes and digests."""
    return _encode(record)


quote = json.encoder.encode_basestring_ascii  # a str's canonical text


def field_text(value: Any) -> str:
    """The canonical text of one field: a str or int by hand, as the encoder
    writes them, anything else (a subclass of either included) by the encoder."""
    cls = value.__class__
    if cls is str:
        return quote(value)
    if cls is int:
        return int.__repr__(value)
    return _encode(value)


class Canonical(str):
    """A record detail given as its canonical text: what canonical_line writes
    for the detail dict it stands for.  EventLog writes it as it is."""

    __slots__ = ()


class EventLog:
    """Append-only structured log with a streaming SHA-256 digest.

    Records are {t, source, kind, detail} and must arrive in nondecreasing t.
    The digest covers the canonical line encoding of every record appended so
    far, which is what the determinism checks compare.
    """

    def __init__(self, stream: Optional[IO[str]] = None):
        self._stream = stream
        self.count = 0
        self._last_t = 0
        self._hash = hashlib.sha256()
        self._middles: dict[tuple[str, str], str] = {}  # (source, kind) -> encoded text

    def _middle(self, source: str, kind: str) -> str:
        # canonical_line's bytes: the keys sort as detail < kind < source < t, and
        # only detail and t vary between records of one (source, kind)
        middle = self._middles[source, kind] = (
            f',"kind":{_encode(kind)},"source":{_encode(source)},"t":'
        )
        return middle

    def append(self, t: int, source: str, kind: str, detail: dict[str, Any] | Canonical) -> None:
        if t < self._last_t:
            raise ValueError(f"event log time went backwards: {t} < {self._last_t}")
        middle = self._middles.get((source, kind)) or self._middle(source, kind)
        text = detail if detail.__class__ is Canonical else _encode(detail)
        tail = f"{middle}{_encode(t)}}}\n"
        self._last_t = t
        # The line is '{"detail":' + text + tail.  Hashed in parts, a block's text
        # (168 KB at 8k users) is copied once, to bytes; joining the line first
        # would copy it once more.  Only a log that writes its lines joins them.
        update = self._hash.update
        update(b'{"detail":')
        update(text.encode())
        update(tail.encode())
        self.count += 1
        if self._stream is not None:
            self._stream.write(f'{{"detail":{text}{tail}')

    def append_batch(self, t: int, source: str, kind: str, texts: list[str]) -> None:
        """Append one record at t per canonical detail text in texts, as append
        would one by one, but hashed and written as one piece of text."""
        if t < self._last_t:
            raise ValueError(f"event log time went backwards: {t} < {self._last_t}")
        if not texts:
            return
        middle = self._middles.get((source, kind)) or self._middle(source, kind)
        tail = f"{middle}{_encode(t)}}}\n"
        self._last_t = t
        head = '{"detail":'
        lines = f"{head}{(tail + head).join(texts)}{tail}"
        self._hash.update(lines.encode())
        self.count += len(texts)
        if self._stream is not None:
            self._stream.write(lines)

    def digest(self) -> str:
        return self._hash.hexdigest()
