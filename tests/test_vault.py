import pytest

from ozsim.config import Fault, FaultSpec, ScenarioConfig
from ozsim.ledger import AUDITOR, Ledger
from ozsim.sim import EventLog, Scheduler
from ozsim.units import to_micro
from ozsim.vault import InsufficientUnlocked, UncoveredWithdrawal, Vault


def make_vault(total_oz=1000):
    sched = Scheduler(seed=1)
    log = EventLog()
    config = ScenarioConfig("vault", 1, 1, vault_initial_oz=total_oz)
    vault = Vault(sched, log, config, Ledger(sched, log, config))
    return sched, vault


def misreport(fraction):
    return Fault(FaultSpec("vault", "misreport", 0, 0, magnitude=fraction), 0)


def submitted(vault):
    """The amounts of the attestation txs the vault has queued on its ledger."""
    txs = vault.ledger._queue
    assert all((tx.kind, tx.sender, tx.args[1]) == ("set_reserve", AUDITOR, AUDITOR) for tx in txs)
    return [tx.args[0] for tx in txs]


class TestLocks:
    def test_lock_reserves_unlocked_metal(self):
        _, vault = make_vault()
        vault.lock_for_issuance(to_micro(10))
        assert vault.locked_micro_oz == to_micro(10)
        assert vault.unlocked_micro_oz == to_micro(990)

    def test_lock_beyond_unlocked_rejected(self):
        _, vault = make_vault()
        vault.lock_for_issuance(to_micro(995))
        with pytest.raises(InsufficientUnlocked):
            vault.lock_for_issuance(to_micro(10))

    def test_release_after_failed_mint_restores_lock(self):
        _, vault = make_vault()
        before = vault.locked_micro_oz
        ticket = vault.lock_for_issuance(to_micro(10))
        vault.release(ticket)
        assert vault.locked_micro_oz == before
        vault.release(ticket)  # idempotent
        assert vault.locked_micro_oz == before


class TestAttestations:
    def test_reports_total_when_healthy(self):
        _, vault = make_vault(1000)
        vault.issue_attestation(0)
        assert submitted(vault) == [to_micro(1000)]

    def test_misreport_shaves_half_percent(self):
        _, vault = make_vault(1000)
        vault.inject_misreport(misreport(0.005), 0)
        vault.issue_attestation(60_000)
        assert submitted(vault) == [to_micro(995)]

    def test_restore_reports_full_amount_again(self):
        _, vault = make_vault(1000)
        fault = misreport(0.005)
        vault.inject_misreport(fault, 0)
        vault.restore(fault, 60_000)
        vault.issue_attestation(120_000)
        assert submitted(vault) == [to_micro(1000)]

    def test_periodic_attestations_submit_on_chain(self):
        sched, vault = make_vault(1000)
        vault.start()
        sched.run_until(180_000)
        assert submitted(vault) == [to_micro(1000)] * 3


class TestPhysicalMoves:
    def test_redemption_withdraws_after_burn(self):
        _, vault = make_vault(1000)
        vault.lock_for_issuance(to_micro(5))  # backing the tokens being burned
        ticket = vault.authorize_withdrawal(to_micro(5))
        vault.withdraw_physical(ticket)
        assert vault.total_micro_oz == to_micro(995)
        assert vault.locked_micro_oz == 0

    def test_deposit_raises_future_attestations(self):
        _, vault = make_vault(1000)
        vault.deposit_physical(to_micro(100))
        vault.issue_attestation(0)
        assert submitted(vault) == [to_micro(1100)]

    def test_withdrawal_without_ticket_rejected(self):
        _, vault = make_vault(1000)
        vault.lock_for_issuance(to_micro(5))
        ticket = vault.authorize_withdrawal(to_micro(5))
        vault.withdraw_physical(ticket)
        with pytest.raises(UncoveredWithdrawal):
            vault.withdraw_physical(ticket)  # already consumed

    def test_withdrawal_needs_locked_cover(self):
        _, vault = make_vault(1000)
        with pytest.raises(UncoveredWithdrawal):
            vault.authorize_withdrawal(to_micro(5))
