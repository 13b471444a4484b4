import io

import pytest

from ozsim.sim import EventLog, PastTime, RngStream, Scheduler


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


def test_event_log_rejects_time_regression():
    log = EventLog()
    log.append(10, "m", "a", {})
    with pytest.raises(ValueError):
        log.append(9, "m", "b", {})
