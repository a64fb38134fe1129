"""ShardedSecureSystem: routed traffic, tenant isolation, coordinated drain.

The tenant-isolation headline lives here: two tenants at the *same local
address* on different shards.  Under master keys a cross-shard transplant of
one tenant's ciphertext + MAC slot verifies and leaks plaintext; under
per-tenant key schedules the victim shard raises ``IntegrityError``, and the
attack stays invisible to every other shard.
"""

import pytest

from repro.common.constants import MAC_SIZE
from repro.common.errors import ConfigError, IntegrityError
from repro.attacks.adversary import Adversary
from repro.sharding.keys import TenantExtent, TenantKeyring
from repro.sharding.system import ShardedSecureSystem, observe
from repro.workloads.ycsb import ycsb_trace

SECURE_SCHEMES = ("base-lu", "base-eu", "horus-slm", "horus-dlm")

SECRET = b"tenant-zero-secret-payload-0001!" * 2
JUNK = b"tenant-one-innocuous-content-02!" * 2


def two_shard_fleet(config, scheme, tenant_keys):
    """Two shards, one tenant each, both extents at local offset zero.

    ``recovery_mode="writeback"`` keeps the post-recovery hierarchy empty so
    reads must fetch (and verify) the NVM image the adversary can reach —
    ``refill`` would serve them from the restored LLC and hide the medium.
    """
    fleet_probe = ShardedSecureSystem(config, num_shards=2, scheme=scheme)
    shard_size = fleet_probe.router.shard_data_size
    keyring = TenantKeyring((TenantExtent(0, 0, 4 * 64),
                             TenantExtent(1, shard_size, 4 * 64)))
    return ShardedSecureSystem(
        config, num_shards=2, scheme=scheme,
        recovery_mode="writeback",
        keyring=keyring if tenant_keys else None), shard_size


def persist_tenant_blocks(fleet, shard_size):
    """One write per tenant at the same local address, landed *in place* in
    each shard's NVM so subsequent reads verify against the medium.

    Base-EU keeps NVM self-consistent at run time, so the audit pattern
    (controller-level write, flush the MAC metadata, drop volatile state)
    leaves data *and* MAC slots at their home addresses.  The lazy-runtime
    schemes never persist home MAC slots eagerly; for them a full crash +
    writeback-mode recovery is the sequence that parks data lines back in
    NVM (with MAC freshness living in the restored metadata caches)."""
    if fleet.shards[0].scheme == "base-eu":
        for shard, payload in ((0, SECRET), (1, JUNK)):
            controller = fleet.shards[shard].controller
            controller.write(0, payload)
            controller.flush_metadata()
            controller.drop_volatile_state()
        return
    fleet.write(0, SECRET)
    fleet.write(shard_size, JUNK)
    fleet.crash(seed=3)
    for shard in fleet.shards:
        shard.nvm.restore_power()
    fleet.recover()


def transplant(fleet, source_shard, target_shard, local_address=0):
    """Move the source shard's ciphertext AND its MAC slot into the target
    shard at the same local address."""
    layout = fleet.shards[source_shard].layout
    source = Adversary(fleet.shards[source_shard].nvm)
    target = Adversary(fleet.shards[target_shard].nvm)
    block = source.observe(local_address)
    mac_block = layout.mac_block_address(local_address)
    offset = layout.mac_slot(local_address) * MAC_SIZE
    mac = source.observe(mac_block)[offset:offset + MAC_SIZE]
    target.spoof(local_address, block)
    target.graft(mac_block, mac, offset)


class TestRoutedTraffic:
    def test_write_read_roundtrip_across_shards(self, tiny_config):
        fleet = ShardedSecureSystem(tiny_config, num_shards=4)
        size = fleet.router.shard_data_size
        for shard in range(4):
            fleet.write(shard * size + 128, bytes([shard + 1]) * 64)
        for shard in range(4):
            assert fleet.read(shard * size + 128) == bytes([shard + 1]) * 64

    def test_replay_returns_global_expected_state(self, tiny_config):
        fleet = ShardedSecureSystem(tiny_config, num_shards=2)
        trace = ycsb_trace("a", num_ops=300, footprint_blocks=64, seed=9)
        # Spread the trace over both shards by offsetting half of it.
        size = fleet.router.shard_data_size
        shifted = [type(op)(op.kind, op.address + size, op.data)
                   if i % 2 else op for i, op in enumerate(trace)]
        expected = fleet.replay(shifted)
        assert expected
        for address, data in expected.items():
            assert fleet.read(address) == data, hex(address)

    def test_observables_count_routed_ops_per_shard(self, tiny_config):
        fleet = ShardedSecureSystem(tiny_config, num_shards=2)
        size = fleet.router.shard_data_size
        fleet.write(0, bytes(64))
        fleet.write(size, bytes(64))
        fleet.read(size)
        obs = fleet.observables()
        assert [o.ops for o in obs] == [1, 2]
        assert [o.op_writes for o in obs] == [1, 1]
        assert [o.shard for o in obs] == [0, 1]

    def test_crash_schedules_and_recovery_restores(self, tiny_config):
        fleet = ShardedSecureSystem(tiny_config, num_shards=2,
                                    scheme="horus-dlm")
        size = fleet.router.shard_data_size
        fleet.write(64, b"a" * 64)
        fleet.write(size + 64, b"b" * 64)
        report = fleet.crash(seed=7)
        assert len(report.reports) == 2
        assert report.schedule.policy == "simultaneous"
        assert report.wall_seconds == \
            max(r.seconds for r in report.reports)
        for shard in fleet.shards:
            shard.nvm.restore_power()
        fleet.recover()
        assert fleet.read(64) == b"a" * 64
        assert fleet.read(size + 64) == b"b" * 64

    def test_cut_after_writes_requires_staggered_policy(self, tiny_config):
        fleet = ShardedSecureSystem(tiny_config, num_shards=2)
        with pytest.raises(ConfigError, match="staggered"):
            fleet.crash(seed=1, cut_after_writes=10)


class TestTenantIsolation:
    @pytest.mark.parametrize("scheme", SECURE_SCHEMES)
    def test_cross_tenant_transplant_detected_with_tenant_keys(
            self, tiny_config, scheme):
        """Tenant 0's ciphertext + MAC moved to tenant 1's identical local
        address: the victim shard must refuse it."""
        fleet, size = two_shard_fleet(tiny_config, scheme, tenant_keys=True)
        persist_tenant_blocks(fleet, size)
        transplant(fleet, source_shard=0, target_shard=1)
        with pytest.raises(IntegrityError):
            fleet.read(size)

    def test_transplant_leaks_plaintext_under_master_keys(self, tiny_config):
        """The vulnerability tenant keys close: under one master key the
        transplanted block verifies on the victim shard and decrypts to the
        other tenant's secret.

        Base-EU is the scheme where the leak is cleanest: its MAC slots live
        in NVM, so the grafted (ciphertext, MAC) pair is exactly what the
        victim shard verifies against."""
        fleet, size = two_shard_fleet(tiny_config, "base-eu",
                                      tenant_keys=False)
        persist_tenant_blocks(fleet, size)
        transplant(fleet, source_shard=0, target_shard=1)
        assert fleet.read(size) == SECRET

    @pytest.mark.parametrize("scheme", ("base-lu", "horus-slm", "horus-dlm"))
    def test_lazy_schemes_reject_relocation_via_cached_macs(
            self, tiny_config, scheme):
        """Lazy-runtime schemes hold post-recovery MAC freshness in the
        on-chip metadata caches, so even a single-master-key fleet rejects a
        relocated (ciphertext, MAC) pair — the medium's MAC slot is never
        consulted.  A cache artifact, not key isolation: evicted blocks fall
        back to NVM slots, which is what the tenant keys protect."""
        fleet, size = two_shard_fleet(tiny_config, scheme, tenant_keys=False)
        persist_tenant_blocks(fleet, size)
        transplant(fleet, source_shard=0, target_shard=1)
        with pytest.raises(IntegrityError):
            fleet.read(size)

    @pytest.mark.parametrize("scheme", SECURE_SCHEMES)
    def test_attack_is_invisible_to_the_other_shards(self, tiny_config,
                                                     scheme):
        """Tampering inside tenant 1's blocks trips tenant 1's shard only;
        tenant 0's shard still reads cleanly."""
        fleet, size = two_shard_fleet(tiny_config, scheme, tenant_keys=True)
        persist_tenant_blocks(fleet, size)
        Adversary(fleet.shards[1].nvm).tamper(0)
        with pytest.raises(IntegrityError):
            fleet.read(size)
        assert fleet.read(0) == SECRET

    def test_nosec_fleet_rejects_no_transplant(self, tiny_config):
        """nosec keeps no MACs: the transplant lands silently — the contrast
        that motivates the secure schemes' detection."""
        fleet, size = two_shard_fleet(tiny_config, "nosec",
                                      tenant_keys=False)
        persist_tenant_blocks(fleet, size)
        transplant(fleet, source_shard=0, target_shard=1)
        assert fleet.read(size) == SECRET


class TestObservables:
    def test_observe_hashes_the_persistent_image(self, tiny_config):
        fleet = ShardedSecureSystem(tiny_config, num_shards=2,
                                    scheme="base-eu")
        size = fleet.router.shard_data_size
        fleet.write(0, b"x" * 64)
        fleet.crash(seed=2)
        a, b = fleet.observables()
        assert a.nvm_sha256 != b.nvm_sha256
        assert a.scheme == b.scheme == "base-eu"
        assert a.as_dict()["shard"] == 0

    def test_observe_solo_system_matches_dataclass_fields(self, tiny_config,
                                                          base_eu_system):
        obs = observe(base_eu_system, shard=3)
        assert obs.shard == 3
        assert obs.ops == obs.op_reads == obs.op_writes == 0
        assert obs.drain_count is None
