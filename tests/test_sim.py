import gc
import hashlib
import heapq
import io
import json
from itertools import count

import pytest
from hypothesis import given, settings, strategies as st

from ozsim.sim import (
    RUN_GEN0_THRESHOLD, EventLog, PastTime, RngStream, Scheduler, canonical_line,
)


def test_priority_orders_events_at_equal_time():
    sched = Scheduler(seed=1)
    fired = []
    sched.schedule(1000, 1, "b", lambda: fired.append("prio1"))
    sched.schedule(1000, 0, "a", lambda: fired.append("prio0"))
    sched.run_until(1000)
    assert fired == ["prio0", "prio1"]


def test_seq_breaks_ties_in_insertion_order():
    sched = Scheduler(seed=1)
    fired = []
    sched.schedule(500, 0, "A", lambda: fired.append("A"))
    sched.schedule(500, 0, "B", lambda: fired.append("B"))
    sched.run_until(500)
    assert fired == ["A", "B"]


def test_schedule_in_past_raises():
    sched = Scheduler(seed=1)
    sched.schedule(20, 0, "x", lambda: None)
    sched.run_until(20)
    with pytest.raises(PastTime):
        sched.schedule(10, 0, "too-late", lambda: None)


def test_run_until_empty_queue_advances_clock():
    sched = Scheduler(seed=1)
    assert sched.run_until(5000) == 0
    assert sched.now() == 5000


def test_run_until_counts_fired_events():
    sched = Scheduler(seed=1)
    for t in (1, 2, 3):
        sched.schedule(t, 2, "e", lambda: None)
    assert sched.run_until(2) == 2
    assert sched.now() == 2


@pytest.fixture
def caller_thresholds():
    saved = gc.get_threshold()
    caller = (123, 7, 9)
    gc.set_threshold(*caller)
    try:
        yield caller
    finally:
        gc.set_threshold(*saved)


def test_run_until_raises_gen0_threshold_and_restores_callers(caller_thresholds):
    sched = Scheduler(seed=1)
    seen = []
    sched.schedule(10, 0, "probe", lambda: seen.append(gc.get_threshold()))
    sched.run_until(10)
    assert seen == [(RUN_GEN0_THRESHOLD, 7, 9)]
    assert gc.get_threshold() == caller_thresholds


def test_run_until_restores_callers_thresholds_when_an_action_raises(caller_thresholds):
    sched = Scheduler(seed=1)

    def boom() -> None:
        raise RuntimeError("boom")

    sched.schedule(10, 0, "boom", boom)
    with pytest.raises(RuntimeError, match="boom"):
        sched.run_until(10)
    assert gc.get_threshold() == caller_thresholds


def test_action_that_raises_is_consumed_and_its_bucket_resumes_once():
    sched = Scheduler(seed=1)
    fired = []

    def boom() -> None:
        fired.append("boom")
        raise RuntimeError("boom")

    sched.schedule(10, 2, "a", lambda: fired.append("a"))
    sched.schedule(10, 2, "boom", boom)
    sched.schedule(10, 2, "b", lambda: fired.append("b"))
    sched.schedule(10, 2, "c", lambda: fired.append("c"))
    with pytest.raises(RuntimeError, match="boom"):
        sched.run_until(20)
    assert fired == ["a", "boom"]
    assert sched.now() == 10
    assert sched.run_until(20) == 2
    assert fired == ["a", "boom", "b", "c"]
    assert sched.now() == 20
    assert sched.run_until(30) == 0


def test_action_that_raises_last_in_its_bucket_leaves_later_events_queued():
    sched = Scheduler(seed=1)
    fired = []

    def boom() -> None:
        fired.append("boom")
        sched.schedule(10, 0, "lower", lambda: fired.append("lower"))
        raise RuntimeError("boom")

    sched.schedule(10, 2, "boom", boom)
    sched.schedule(15, 2, "later", lambda: fired.append("later"))
    with pytest.raises(RuntimeError, match="boom"):
        sched.run_until(20)
    assert sched.run_until(20) == 2
    assert fired == ["boom", "lower", "later"]


def test_lower_priority_at_the_same_time_fires_before_the_rest_of_the_bucket():
    sched = Scheduler(seed=1)
    fired = []

    def first() -> None:
        fired.append("first")
        sched.schedule(10, 0, "urgent", lambda: fired.append("urgent"))

    def last() -> None:
        fired.append("last")
        sched.schedule(10, 1, "urgent-after-last", lambda: fired.append("urgent-after-last"))
        sched.schedule(10, 2, "tail", lambda: fired.append("tail"))

    def only() -> None:
        fired.append("only")
        sched.schedule(20, 0, "urgent-after-only", lambda: fired.append("urgent-after-only"))

    sched.schedule(10, 2, "first", first)
    sched.schedule(10, 2, "last", last)
    sched.schedule(20, 2, "only", only)
    sched.schedule(30, 2, "later", lambda: fired.append("later"))
    assert sched.run_until(30) == 8
    assert fired == ["first", "urgent", "last", "urgent-after-last", "tail",
                     "only", "urgent-after-only", "later"]


@pytest.mark.parametrize("priority", [-1, 8])
def test_priority_outside_the_key_range_is_rejected(priority):
    sched = Scheduler(seed=1)
    with pytest.raises(ValueError, match="priority"):
        sched.schedule(10, priority, "bad", lambda: None)
    for ok in (0, 7):
        sched.schedule(10, ok, "ok", lambda: None)
    assert sched.run_until(10) == 2


def test_fractional_time_is_rejected():
    sched = Scheduler(seed=1)
    with pytest.raises(TypeError, match="integer millisecond"):
        sched.schedule(10.5, 2, "bad", lambda: None)
    with pytest.raises(TypeError, match="integer millisecond"):
        sched.schedule_in(2.0, 2, "bad", lambda: None)
    assert sched.run_until(100) == 0


@pytest.mark.parametrize("interval", [0, -5])
def test_every_rejects_a_nonpositive_interval(interval):
    sched = Scheduler(seed=1)
    with pytest.raises(ValueError, match="interval"):
        sched.every(0, interval, 2, "tick", lambda: None)
    assert sched.run_until(100) == 0


class HeapScheduler(Scheduler):
    """Reference: one heap entry per event, ordered by (fire_at, priority, seq)."""

    def __init__(self):
        super().__init__(seed=0)
        self._heap, self._seq = [], count()

    def schedule(self, fire_at, priority, kind, action):
        if fire_at < self._now:
            raise PastTime(kind)
        heapq.heappush(self._heap, (fire_at, priority, next(self._seq), action))

    def run_until(self, end):
        fired = 0
        while self._heap and self._heap[0][0] <= end:
            self._now, _, _, action = heapq.heappop(self._heap)
            action()
            fired += 1
        self._now = end
        return fired


_CHILD = st.tuples(st.sampled_from([0, 0, 0, 1, 5]), st.integers(0, 5))  # (delay, priority)


def _run_program(sched, roots, ticks, table, cuts):
    """Schedule roots and periodic ticks whose firings queue children by the
    table; return every firing as (label, time) and run_until's results."""
    fired, ids = [], count()

    def add(fire_at, priority):
        eid = next(ids)

        def action():
            fired.append((eid, sched.now()))
            if eid < 150:  # bounds the chains of same-time children
                for delay, child_priority in table[eid % len(table)]:
                    add(sched.now() + delay, child_priority)

        sched.schedule(fire_at, priority, "event", action)

    for fire_at, priority in roots:
        add(fire_at, priority)
    for i, (start, interval, priority, delay, child_priority) in enumerate(ticks):
        def tick(i=i, delay=delay, child_priority=child_priority):
            fired.append((f"tick{i}", sched.now()))
            add(sched.now() + delay, child_priority)

        sched.every(start, interval, priority, "tick", tick)
    returns = [sched.run_until(end) for end in sorted(cuts)]
    return fired, returns, sched.now()


@settings(max_examples=300, deadline=None)
@given(
    roots=st.lists(st.tuples(st.integers(0, 40), st.integers(0, 5)), max_size=25),
    ticks=st.lists(st.tuples(st.integers(0, 20), st.integers(1, 15), st.integers(0, 5),
                             st.sampled_from([0, 0, 3]), st.integers(0, 5)), max_size=3),
    table=st.lists(st.lists(_CHILD, max_size=3), min_size=1, max_size=12),
    cuts=st.lists(st.integers(0, 60), min_size=1, max_size=4),
)
def test_property_firing_order_matches_reference_heap(roots, ticks, table, cuts):
    expected = _run_program(HeapScheduler(), roots, ticks, table, cuts)
    assert _run_program(Scheduler(seed=0), roots, ticks, table, cuts) == expected


def test_every_fires_at_start_then_each_interval():
    sched = Scheduler(seed=1)
    seen = []
    sched.every(250, 100, 2, "tick", lambda: seen.append(sched.now()))
    sched.run_until(600)
    assert seen == [250, 350, 450, 550]


def test_every_runs_body_before_rescheduling():
    sched = Scheduler(seed=1)
    fired = []

    def body() -> None:
        fired.append(f"tick@{sched.now()}")
        # same (time, priority) as the next tick: queued first, so fires first
        sched.schedule(sched.now() + 100, 2, "follow", lambda: fired.append("follow"))

    sched.every(100, 100, 2, "tick", body)
    sched.run_until(200)
    assert fired == ["tick@100", "follow", "tick@200"]


def test_clock_never_decreases_and_events_fire_in_order():
    sched = Scheduler(seed=7)
    seen = []
    sched.schedule(300, 2, "c", lambda: seen.append(sched.now()))
    sched.schedule(100, 2, "a", lambda: seen.append(sched.now()))
    sched.schedule(200, 2, "b", lambda: seen.append(sched.now()))
    sched.run_until(1000)
    assert seen == sorted(seen) == [100, 200, 300]


def test_fork_rng_same_label_same_sequence():
    sched = Scheduler(seed=42)
    a = sched.fork_rng("users")
    b = sched.fork_rng("users")
    assert [a.random() for _ in range(10)] == [b.random() for _ in range(10)]


def test_fork_rng_distinct_labels_differ():
    sched = Scheduler(seed=42)
    a = sched.fork_rng("users")
    b = sched.fork_rng("price")
    assert [a.random() for _ in range(5)] != [b.random() for _ in range(5)]


def test_different_seeds_give_different_draws():
    a = RngStream(42, "users")
    b = RngStream(43, "users")
    assert [a.random() for _ in range(5)] != [b.random() for _ in range(5)]


def test_rng_label_must_be_nonempty():
    with pytest.raises(ValueError):
        RngStream(1, "")


def test_event_log_digest_and_bytes_are_stable():
    out_a, out_b = io.StringIO(), io.StringIO()
    logs = []
    for out in (out_a, out_b):
        log = EventLog(stream=out)
        log.append(0, "m", "start", {"x": 1})
        log.append(5, "m", "tick", {"y": [1, 2]})
        logs.append(log)
    assert out_a.getvalue() == out_b.getvalue()
    assert logs[0].digest() == logs[1].digest()


def reference_line(t, source, kind, detail) -> str:
    """The canonical form by the standard library's own json.dumps."""
    record = {"t": t, "source": source, "kind": kind, "detail": detail}
    return json.dumps(record, sort_keys=True, separators=(",", ":"))


# non-ASCII, control and lone-surrogate characters all take the ASCII escapes
texts = st.text(st.characters(blacklist_categories=()), max_size=6)
json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.just(-0.0) | texts,
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(texts, inner, max_size=4),
    max_leaves=12,
)
details = st.dictionaries(texts, json_values, max_size=5)
times = st.integers(0, 10**15) | st.floats(-0.0, 1e15)
# a few repeated (source, kind) pairs and some drawn ones
names = st.sampled_from(["ledger", "block", "é", "\x1f\n", ""]) | texts


@settings(max_examples=200, deadline=None)
@given(st.lists(st.tuples(times, names, names, details), max_size=8))
def test_property_log_lines_are_the_stdlib_canonical_form(records):
    records.sort(key=lambda r: r[0])
    out = io.StringIO()
    log = EventLog(stream=out)
    for t, source, kind, detail in records:
        log.append(t, source, kind, detail)
        assert canonical_line(
            {"t": t, "source": source, "kind": kind, "detail": detail}
        ) == reference_line(t, source, kind, detail)
    written = out.getvalue()
    assert written == "".join(reference_line(*r) + "\n" for r in records)
    assert log.count == len(records)
    assert log.digest() == hashlib.sha256(written.encode()).hexdigest()


@pytest.mark.parametrize("cycle", ["dict", "list"])
def test_cyclic_detail_raises_and_leaves_the_log_unchanged(cycle):
    out = io.StringIO()
    log = EventLog(stream=out)
    log.append(1, "m", "a", {"x": [1.5]})
    count, digest, written = log.count, log.digest(), out.getvalue()
    inner = {"n": 1}
    detail = {"outer": [inner]}
    if cycle == "dict":
        inner["back"] = detail
    else:
        detail["outer"].append(detail["outer"])
    with pytest.raises(ValueError, match="Circular reference"):
        log.append(2, "m", "b", detail)
    with pytest.raises(ValueError, match="Circular reference"):
        canonical_line({"t": 2, "detail": detail})
    assert (log.count, log.digest(), out.getvalue()) == (count, digest, written)
    # once the cycle is cut, the same containers encode: a failed encode left no marks
    inner.pop("back", None)
    del detail["outer"][1:]
    log.append(2, "m", "b", detail)
    assert out.getvalue() == written + reference_line(2, "m", "b", detail) + "\n"


def test_unencodable_detail_raises_type_error_and_leaves_the_log_unchanged():
    log = EventLog()
    detail = {"ok": [1], "bad": object()}
    with pytest.raises(TypeError):
        log.append(0, "m", "a", detail)
    assert (log.count, log.digest()) == (0, hashlib.sha256().hexdigest())
    del detail["bad"]
    log.append(0, "m", "a", detail)
    assert log.count == 1


def test_event_log_rejects_time_regression():
    log = EventLog()
    log.append(10, "m", "a", {})
    with pytest.raises(ValueError):
        log.append(9, "m", "b", {})
