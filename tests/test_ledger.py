import io
import json

import pytest

from ozsim.config import ScenarioConfig
from ozsim.ledger import (
    ACCEPTED,
    AUDITOR,
    Ledger,
    OutOfBounds,
    PriceWindow,
    REVERT_INSUFFICIENT_BALANCE,
    REVERT_ISSUANCE_PAUSED,
    REVERT_RESERVE_CEILING,
    REVERT_TRADING_HALTED,
    REVERT_UNAUTHORIZED,
)
from ozsim.sim import EventLog, Scheduler
from ozsim.units import to_micro


CONFIG = ScenarioConfig("ledger", 1, 1)


def make_ledger(log=None, **settings):
    """A ledger on a scenario with the given settings and defaults otherwise."""
    sched = Scheduler(seed=1)
    ledger = Ledger(sched, log or EventLog(), ScenarioConfig("ledger", 1, 1, **settings))
    return sched, ledger


def test_tx_submitted_mid_second_lands_in_next_block():
    stream = io.StringIO()
    sched, ledger = make_ledger(EventLog(stream))
    ledger.set_genesis_reserve(to_micro(1000))
    ledger.start()
    sched.run_until(10_400)
    heights = []
    ledger.submit_tx(
        "mint", "issuer", ("alice", to_micro(1)),
        on_receipt=lambda r: heights.append((ledger.height, r.accepted)),
    )
    sched.run_until(10_999)
    assert ledger.balance("alice") == 0  # not yet executed
    sched.run_until(11_000)
    assert ledger.balance("alice") == to_micro(1)
    records = map(json.loads, stream.getvalue().splitlines())
    block = [r for r in records if r["kind"] == "block" and r["detail"]["txs"]]
    assert block[-1]["t"] == 11_000


def test_txs_execute_in_submission_order():
    sched, ledger = make_ledger()
    ledger.set_genesis_reserve(to_micro(10))
    ledger.genesis_mint("alice", to_micro(5))
    ledger.start()
    # Second transfer only succeeds if the first executed before it.
    ledger.submit_tx("transfer", "alice", ("alice", "bob", to_micro(5)))
    ledger.submit_tx("transfer", "bob", ("bob", "carol", to_micro(5)))
    sched.run_until(1000)
    assert ledger.balance("carol") == to_micro(5)


def test_transfer_during_halt_included_but_reverted():
    sched, ledger = make_ledger()
    ledger.set_genesis_reserve(to_micro(10))
    ledger.genesis_mint("alice", to_micro(5))
    ledger.start()
    ledger.trip_breaker(0, "test", source="test")
    receipts = []
    ledger.submit_tx(
        "transfer", "alice", ("alice", "bob", to_micro(1)),
        on_receipt=receipts.append,
    )
    sched.run_until(1300)
    assert len(receipts) == 1
    assert not receipts[0].accepted
    assert receipts[0].reason == REVERT_TRADING_HALTED
    assert ledger.balance("alice") == to_micro(5)


def test_each_tx_kind_applies_its_argument_tuple():
    stream = io.StringIO()
    sched, ledger = make_ledger(EventLog(stream))
    ledger.set_genesis_reserve(to_micro(1000))
    ledger.genesis_mint("alice", to_micro(10))
    ledger.start()
    applied = []

    def apply():
        applied.append(sched.now())
        return ACCEPTED

    txs = [
        ("mint", "issuer", ("bob", to_micro(1))),
        ("burn", "alice", ("alice", to_micro(2))),
        ("transfer", "alice", ("alice", "carol", to_micro(3))),
        ("post_price", "primary", ("primary", to_micro(2000))),
        ("set_reserve", AUDITOR, (to_micro(900), AUDITOR)),
        ("governance", "governance", (apply,)),
        ("x", "mallory", ()),
    ]
    receipts = {}
    for kind, sender, args in txs:
        ledger.submit_tx(kind, sender, args, on_receipt=lambda r, k=kind: receipts.setdefault(k, r))
    sched.run_until(5_000)

    assert [receipts[kind].accepted for kind, _, _ in txs] == [True] * 6 + [False]
    assert receipts["x"].reason == "unknown tx kind 'x'"
    assert (ledger.balance("alice"), ledger.balance("bob"), ledger.balance("carol")) == (
        to_micro(5), to_micro(1), to_micro(3))
    assert ledger.total_supply == to_micro(9)
    assert ledger._price_window.latest == to_micro(2000)
    assert ledger.attested_reserve == to_micro(900)
    assert applied == [1_000]
    records = map(json.loads, stream.getvalue().splitlines())
    block = next(r for r in records if r["kind"] == "block" and r["detail"]["txs"])
    assert block["detail"]["txs"] == [
        [kind, sender, "ok"] for kind, sender, _ in txs[:-1]
    ] + [["x", "mallory", "unknown tx kind 'x'"]]


class TestMint:
    def test_reserve_ceiling_rejects_overshoot(self):
        _, ledger = make_ledger()
        ledger.set_genesis_reserve(to_micro(1000))
        ledger.genesis_mint("mm", to_micro(1000))
        receipt = ledger.execute_mint("alice", to_micro(5))
        assert not receipt.accepted
        assert receipt.reason == REVERT_RESERVE_CEILING
        assert ledger.total_supply == to_micro(1000)

    def test_mint_up_to_reserve_boundary_accepted(self):
        _, ledger = make_ledger()
        ledger.set_genesis_reserve(to_micro(1000))
        receipt = ledger.execute_mint("alice", to_micro(1000))
        assert receipt.accepted
        assert ledger.total_supply == to_micro(1000)

    def test_micro_oz_arithmetic_is_exact(self):
        # supply 1000 OZ, reserve 999.999900 OZ, epsilon 0.000100 OZ:
        # 1000.000100 > 1000.000000 so another 0.000100 OZ must revert.
        _, ledger = make_ledger(params={"epsilon_micro_oz": 100})
        ledger.set_genesis_reserve(999_999_900)
        ledger.genesis_mint("mm", 1_000_000_000)
        receipt = ledger.execute_mint("alice", 100)
        assert not receipt.accepted
        assert receipt.reason == REVERT_RESERVE_CEILING

    def test_mint_blocked_while_issuance_paused(self):
        _, ledger = make_ledger()
        ledger.set_genesis_reserve(to_micro(1000))
        ledger.set_issuance_paused(True, 0, "risk")
        receipt = ledger.execute_mint("alice", to_micro(1))
        assert receipt.reason == REVERT_ISSUANCE_PAUSED


class TestBurn:
    def test_burn_reduces_balance_and_supply(self):
        _, ledger = make_ledger()
        ledger.set_genesis_reserve(to_micro(100))
        ledger.genesis_mint("alice", to_micro(10))
        receipt = ledger.execute_burn("alice", to_micro(10))
        assert receipt.accepted
        assert ledger.balance("alice") == 0
        assert ledger.total_supply == 0

    def test_burn_more_than_balance_reverts(self):
        _, ledger = make_ledger()
        ledger.set_genesis_reserve(to_micro(100))
        ledger.genesis_mint("alice", to_micro(1))
        receipt = ledger.execute_burn("alice", to_micro(2))
        assert receipt.reason == REVERT_INSUFFICIENT_BALANCE

    def test_burn_allowed_during_issuance_pause(self):
        _, ledger = make_ledger()
        ledger.set_genesis_reserve(to_micro(100))
        ledger.genesis_mint("alice", to_micro(5))
        ledger.set_issuance_paused(True, 0, "risk")
        assert ledger.execute_burn("alice", to_micro(5)).accepted


class TestAttestation:
    def test_authorized_auditor_updates_reserve(self):
        _, ledger = make_ledger()
        receipt = ledger.set_attested_reserve(to_micro(1000), AUDITOR)
        assert receipt.accepted
        assert ledger.attested_reserve == to_micro(1000)

    def test_unauthorized_auditor_rejected(self):
        _, ledger = make_ledger()
        receipt = ledger.set_attested_reserve(to_micro(1000), "mallory")
        assert receipt.reason == REVERT_UNAUTHORIZED
        assert ledger.attested_reserve == 0

    def test_shortfall_attestation_is_accepted_without_enforcement(self):
        # Enforcement happens via the risk agent freeze, not the attestation.
        _, ledger = make_ledger()
        ledger.set_genesis_reserve(to_micro(1000))
        ledger.genesis_mint("mm", to_micro(1000))
        receipt = ledger.set_attested_reserve(to_micro(995), AUDITOR)
        assert receipt.accepted
        assert ledger.attested_reserve == to_micro(995)


class TestBreaker:
    def test_swing_below_threshold_no_trip(self):
        sched, ledger = make_ledger()
        window = [(0, to_micro(2400.0)), (300_000, to_micro(2446.0))]
        assert ledger.evaluate_breaker(PriceWindow(window), 300_000) is False
        assert not ledger.trading_paused

    def test_swing_above_threshold_trips(self):
        sched, ledger = make_ledger()
        window = [(0, to_micro(2400.0)), (300_000, to_micro(2450.0))]
        assert ledger.evaluate_breaker(PriceWindow(window), 300_000) is True
        assert ledger.trading_paused
        assert ledger.breaker_tripped_at == 300_000

    def test_constant_price_never_trips(self):
        sched, ledger = make_ledger()
        window = [(t * 1000, to_micro(2400.0)) for t in range(301)]
        assert ledger.evaluate_breaker(PriceWindow(window), 300_000) is False

    def test_auto_lift_after_cooldown(self):
        sched, ledger = make_ledger()
        sched.run_until(100_000)
        ledger.trip_breaker(100_000, "test")
        sched.run_until(399_000)
        assert ledger.trading_paused
        sched.run_until(400_000)
        assert not ledger.trading_paused
        assert ledger.breaker_tripped_at is None

    def test_manual_lift_attempt_before_cooldown_is_noop(self):
        sched, ledger = make_ledger()
        ledger.trip_breaker(0, "test")
        assert ledger.breaker_auto_lift(299_000) is False
        assert ledger.trading_paused

    def test_governance_unpause_lifts_early(self):
        sched, ledger = make_ledger()
        sched.run_until(100_000)
        ledger.trip_breaker(100_000, "test")
        sched.run_until(200_000)
        ledger.governance_unpause(200_000)
        assert not ledger.trading_paused

    def test_lift_listeners_fire_in_order_and_once_entries_fire_once(self):
        sched, ledger = make_ledger()
        calls = []

        def once_b(now):
            calls.append(("b", now))
            # registered mid-lift: waits for the next lift
            ledger.once_breaker_lift(lambda t: calls.append(("d", t)))

        ledger.once_breaker_lift(lambda t: calls.append(("a", t)))
        ledger.once_breaker_lift(once_b)
        ledger.once_breaker_lift(lambda t: calls.append(("c", t)))
        for now in (10, 20, 30):
            ledger.trip_breaker(now - 5, "test")
            ledger.governance_unpause(now)
        assert calls == [("a", 10), ("b", 10), ("c", 10), ("d", 20)]

    def test_old_samples_fall_out_of_window(self):
        sched, ledger = make_ledger()
        # A big move 400 s ago is outside the 300 s window.
        window = [(0, to_micro(2300.0)), (350_000, to_micro(2400.0)), (400_000, to_micro(2401.0))]
        assert ledger.evaluate_breaker(PriceWindow(window), 400_000) is False


class TestParams:
    def test_defaults_and_set_within_bounds(self):
        _, ledger = make_ledger()
        assert ledger.params.get("breaker_swing_threshold") == 0.02
        ledger.set_param("breaker_swing_threshold", 0.03, 0, "governance")
        assert ledger.params.get("breaker_swing_threshold") == 0.03

    def test_out_of_bounds_write_rejected(self):
        _, ledger = make_ledger()
        with pytest.raises(OutOfBounds):
            ledger.set_param("breaker_swing_threshold", 0.15, 0, "governance")

    def test_epsilon_bound_scales_with_reserve(self):
        _, ledger = make_ledger()
        ledger.set_genesis_reserve(to_micro(1000))
        ledger.set_param("epsilon_micro_oz", to_micro(1.0), 0, "governance")
        with pytest.raises(OutOfBounds):
            ledger.set_param("epsilon_micro_oz", to_micro(1.1), 0, "governance")


def test_conservation_over_random_blocks():
    sched, ledger = make_ledger()
    ledger.set_genesis_reserve(to_micro(10_000))
    ledger.start()
    rng = sched.fork_rng("fuzz")
    addrs = [f"u{i}" for i in range(8)]
    for step in range(50):
        for _ in range(20):
            kind = rng.choice(["mint", "burn", "transfer"])
            a, b = rng.choice(addrs), rng.choice(addrs)
            amount = rng.randrange(1, to_micro(5))
            if kind == "mint":
                ledger.submit_tx("mint", "issuer", (a, amount))
            elif kind == "burn":
                ledger.submit_tx("burn", a, (a, amount))
            else:
                ledger.submit_tx("transfer", a, (a, b, amount))
        sched.run_until((step + 1) * 1000)
        assert sum(ledger.balances.values()) == ledger.total_supply
        assert ledger.total_supply <= ledger.attested_reserve + ledger.epsilon


# -- property tests ------------------------------------------------------------

from hypothesis import given, settings, strategies as st

_amounts = st.integers(min_value=1, max_value=to_micro(100))
_ops = st.lists(
    st.tuples(
        st.sampled_from(["mint", "burn", "transfer", "attest"]),
        st.sampled_from(["a", "b", "c"]),
        st.sampled_from(["a", "b", "c"]),
        _amounts,
    ),
    max_size=60,
)


@settings(max_examples=200, deadline=None)
@given(reserve=st.integers(min_value=0, max_value=to_micro(500)), ops=_ops)
def test_property_no_mint_ever_breaches_reserve_ceiling(reserve, ops):
    sched = Scheduler(seed=1)
    ledger = Ledger(sched, EventLog(), CONFIG)
    ledger.attested_reserve = reserve
    for kind, src, dst, amount in ops:
        if kind == "mint":
            ceiling = ledger.attested_reserve + ledger.epsilon
            before = ledger.total_supply
            receipt = ledger.execute_mint(dst, amount)
            assert receipt.accepted == (before + amount <= ceiling)
        elif kind == "burn":
            ledger.execute_burn(src, amount)
        elif kind == "transfer":
            ledger.execute_transfer(src, dst, amount)
        else:
            ledger.set_attested_reserve(amount, AUDITOR)
        assert sum(ledger.balances.values()) == ledger.total_supply
        assert all(v >= 0 for v in ledger.balances.values())


@settings(max_examples=100, deadline=None)
@given(
    window=st.lists(
        st.integers(min_value=to_micro(1000), max_value=to_micro(4000)),
        min_size=1, max_size=50,
    )
)
def test_property_breaker_trips_iff_swing_exceeds_threshold(window):
    sched = Scheduler(seed=2)
    ledger = Ledger(sched, EventLog(), CONFIG)
    samples = [(i * 1000, p) for i, p in enumerate(window)]
    now = samples[-1][0]
    p_now = window[-1]
    expected = any(abs(p_now / p - 1.0) > 0.02 for p in window)
    assert ledger.evaluate_breaker(PriceWindow(samples), now) == expected
    assert ledger.trading_paused == expected


_window_ops = st.lists(
    st.one_of(
        # coarse steps and windows make samples land exactly on the horizon
        st.tuples(st.just("post"), st.sampled_from([0, 1, 1_000, 30_000, 60_000]),
                  st.integers(min_value=to_micro(2340), max_value=to_micro(2460))),
        st.tuples(st.just("window_ms"), st.sampled_from([60_000, 90_000, 120_000, 300_000])),
        st.tuples(st.just("clear")),
    ),
    min_size=1, max_size=120,
)


@settings(max_examples=200, deadline=None)
@given(ops=_window_ops)
def test_property_price_window_matches_brute_force_scan(ops):
    sched = Scheduler(seed=3)
    ledger = Ledger(sched, EventLog(), CONFIG)
    window = PriceWindow()
    retained: list[tuple[int, int]] = []
    now = 0
    for op in ops:
        if op[0] == "post":
            now += op[1]
            window.append(now, op[2])
            retained.append((now, op[2]))
        elif op[0] == "window_ms":  # a governance change moves the horizon mid-stream
            ledger.set_param("breaker_window_ms", op[1], now, "test")
        else:
            window.clear()
            retained.clear()
        horizon = now - ledger.params.get("breaker_window_ms")
        retained = [(t, p) for t, p in retained if t >= horizon]
        threshold = ledger.params.get("breaker_swing_threshold")
        expected = bool(retained) and any(
            abs(retained[-1][1] / p - 1.0) > threshold for _, p in retained
        )
        assert ledger.evaluate_breaker(window, now) == expected
        assert bool(window) == bool(retained)
        if retained:
            prices = [p for _, p in retained]
            assert (window.min, window.max, window.latest) == (min(prices), max(prices), prices[-1])
        if expected:
            ledger.governance_unpause(now)

