"""Fault injection: the hold-up source dies mid-drain.

The paper sizes the backup source for the worst case precisely because an
undersized one truncates the drain.  These tests verify the failure is
*fail-closed* for every secure design: a partially-persisted drain is
detected at recovery — never silently accepted — while the non-secure
system quietly loses data (which is the motivation for sizing, not a bug).
"""

import pytest

from repro.common.errors import IntegrityError, RecoveryError, SecurityError
from repro.core.system import SecureEpdSystem


def _half_budget_crash(system, seed=2):
    """Fill worst-case, then let power die halfway through the drain."""
    system.fill_worst_case(seed=1)
    # First measure how many writes a full drain needs, on a twin system.
    twin = SecureEpdSystem(system.config, scheme=system.scheme)
    twin.fill_worst_case(seed=1)
    full = twin.crash(seed=seed).total_writes
    system.nvm.write_budget = full // 2
    return system.crash(seed=seed)


class TestNonSecureLosesSilently:
    def test_truncated_drain_drops_lines(self, tiny_config):
        system = SecureEpdSystem(tiny_config, scheme="nosec")
        system.fill_worst_case(seed=1)
        addresses = [address for address, _, _ in system.hierarchy.llc.lines()]
        system.nvm.write_budget = len(addresses) // 4
        system.crash(seed=2)
        persisted = sum(
            1 for a in addresses if system.nvm.backend.is_written(a))
        assert persisted < len(addresses)


class TestHorusFailsClosed:
    @pytest.mark.parametrize("scheme", ["horus-slm", "horus-dlm"])
    def test_truncated_vault_is_rejected_at_recovery(self, tiny_config,
                                                     scheme):
        system = SecureEpdSystem(tiny_config, scheme=scheme)
        _half_budget_crash(system)
        system.nvm.write_budget = None     # power is back
        with pytest.raises(SecurityError):
            system.recover()

    def test_tiny_truncation_is_still_caught(self, tiny_config):
        """Losing only the final few writes (the last coalesced MAC/address
        blocks) must also fail verification."""
        system = SecureEpdSystem(tiny_config, scheme="horus-slm")
        system.fill_worst_case(seed=1)
        twin = SecureEpdSystem(tiny_config, scheme="horus-slm")
        twin.fill_worst_case(seed=1)
        full = twin.crash(seed=2).total_writes
        system.nvm.write_budget = full - 2
        system.crash(seed=2)
        system.nvm.write_budget = None
        with pytest.raises(SecurityError):
            system.recover()


class TestBaselineFailsClosed:
    def test_truncated_baseline_drain_is_unverifiable(self, tiny_config):
        """Base-LU with a truncated drain fails closed — in fact the
        controller detects the lost metadata writes *during* the drain
        (a dropped counter write re-fetched from NVM no longer verifies
        against its already-updated cached parent)."""
        system = SecureEpdSystem(tiny_config, scheme="base-lu")
        with pytest.raises((IntegrityError, RecoveryError)):
            _half_budget_crash(system)
            system.nvm.write_budget = None
            system.recover()
            # If drain and shadow happened to survive, cold reads must
            # still expose the missing writes.
            system.controller.drop_volatile_state()
            for line_address in range(0, 64 * 4096, 4096):
                system.controller.read(line_address)


class TestSufficientBudgetIsExact:
    def test_exact_budget_drains_and_recovers(self, tiny_config):
        """A budget of exactly the worst-case write count succeeds — the
        hold-up sizing the whole paper is about."""
        system = SecureEpdSystem(tiny_config, scheme="horus-dlm")
        system.fill_worst_case(seed=1)
        twin = SecureEpdSystem(tiny_config, scheme="horus-dlm")
        twin.fill_worst_case(seed=1)
        exact = twin.crash(seed=2).total_writes
        system.nvm.write_budget = exact
        system.crash(seed=2)
        system.nvm.write_budget = None
        recovery = system.recover()
        assert recovery.blocks_restored > 0
