"""The sharding correctness headline: an N-shard run is byte-identical,
shard for shard, to N independent solo runs over the router's per-shard
parts, each replayed at its shard's base offset.

``run_pooled(spec, jobs=1)`` is the solo side (each shard rebuilt from
scratch through :func:`repro.sharding.pool.run_shard`), ``run_inprocess``
the sharded facade; equality is field-by-field over
:class:`~repro.sharding.system.ShardObservables`, which hashes the whole
persisted NVM image and snapshots every stats counter and TCB register.
The base-offset replay itself is held to a replay of rebased copies of the
same ops, built through the validating constructor.
"""

import dataclasses

import pytest

from repro.common.config import SystemConfig
from repro.common.errors import AddressError, ConfigError
from repro.core.system import SecureEpdSystem
from repro.sharding.pool import (
    ShardRunSpec,
    make_plan,
    run_inprocess,
    run_pooled,
    run_shard,
)
from repro.sharding.router import ShardRouter
from repro.sharding.system import nvm_image_sha256
from repro.stats.runtime import RuntimePerfModel
from repro.workloads.replay import replay
from repro.workloads.tenantmix import TenantMixer
from repro.workloads.trace import MemoryOp

DRAIN_SEED = 29


def spec_for(config, num_shards, scheme, *, ops=600, tenants=8, seed=13,
             tenant_keys=True):
    plan = make_plan(config, num_shards, tenants, ops, master_seed=seed)
    return ShardRunSpec(config=config, num_shards=num_shards, scheme=scheme,
                        plan=plan, drain_seed=DRAIN_SEED,
                        tenant_keys=tenant_keys)


class TestShardVsSoloIdentity:
    @pytest.mark.parametrize("scheme", ("base-eu", "horus-dlm"))
    @pytest.mark.parametrize("num_shards", (2, 7))
    def test_sharded_run_equals_solo_runs(self, tiny_config, num_shards,
                                          scheme):
        spec = spec_for(tiny_config, num_shards, scheme)
        solo = run_pooled(spec, jobs=1)
        fleet = run_inprocess(spec)
        assert tuple(run.observables for run in solo) == fleet

    def test_identity_holds_without_tenant_keys(self, tiny_config):
        spec = spec_for(tiny_config, 2, "horus-dlm", tenant_keys=False)
        solo = run_pooled(spec, jobs=1)
        assert tuple(run.observables for run in solo) == run_inprocess(spec)

    def test_tenant_keys_change_the_persisted_image(self, tiny_config):
        keyed = run_inprocess(spec_for(tiny_config, 2, "horus-dlm"))
        master = run_inprocess(spec_for(tiny_config, 2, "horus-dlm",
                                        tenant_keys=False))
        assert [o.nvm_sha256 for o in keyed] != \
            [o.nvm_sha256 for o in master]
        # Same routed traffic either way: only the images differ.
        assert [o.ops for o in keyed] == [o.ops for o in master]


    def test_scalar_fleet_equals_batched_fleet(self, tiny_config):
        spec = spec_for(tiny_config, 3, "horus-dlm")
        scalar = dataclasses.replace(spec, batched=False)
        assert run_inprocess(scalar) == run_inprocess(spec)


def rebased(part, base):
    """The reference the base offset replaces: each op rebuilt through the
    validating constructor at its shard-local address."""
    return [MemoryOp(op.kind, op.address - base, op.data) for op in part]


def routed_parts(config, num_shards=3, ops=900):
    router = ShardRouter(config, num_shards)
    plan = make_plan(config, num_shards, 8, ops, master_seed=13)
    parts = router.split(TenantMixer(plan).mix())
    assert all(parts)
    return router, parts


class TestBaseOffsetReplay:
    @pytest.mark.parametrize("batched", (True, False),
                             ids=("batched", "scalar"))
    @pytest.mark.parametrize("scheme", ("base-eu", "horus-dlm"))
    def test_offset_replay_equals_rebased_replay(self, tiny_config, scheme,
                                                 batched):
        """Same stats, cache access mix and (post-drain) NVM image as a
        replay of rebased copies; the expected map is the rebased one
        shifted back by the base."""
        router, parts = routed_parts(tiny_config)
        for extent, part in zip(router.extents, parts):
            offset = SecureEpdSystem(tiny_config, scheme=scheme,
                                     batched=batched)
            reference = SecureEpdSystem(tiny_config, scheme=scheme,
                                        batched=batched)
            got = replay(offset, part, batched=batched, base=extent.base)
            want = replay(reference, rebased(part, extent.base),
                          batched=batched)
            assert got == {address + extent.base: data
                           for address, data in want.items()}
            assert offset.stats.snapshot() == reference.stats.snapshot()
            assert offset.hierarchy.access_counts == \
                reference.hierarchy.access_counts
            offset.crash(seed=DRAIN_SEED)
            reference.crash(seed=DRAIN_SEED)
            assert nvm_image_sha256(offset) == nvm_image_sha256(reference)
            assert offset.stats.snapshot() == reference.stats.snapshot()

    def test_runtime_model_passes_the_base(self, tiny_config):
        router, parts = routed_parts(tiny_config, num_shards=2, ops=400)
        model = RuntimePerfModel(tiny_config)
        extent, part = router.extents[1], parts[1]
        got = model.replay(SecureEpdSystem(tiny_config, scheme="base-eu"),
                           part, base=extent.base)
        want = model.replay(SecureEpdSystem(tiny_config, scheme="base-eu"),
                            rebased(part, extent.base))
        assert got == want

    @pytest.mark.parametrize("batched", (True, False),
                             ids=("batched", "scalar"))
    def test_offset_replay_validates_local_addresses(self, tiny_config,
                                                     batched):
        """A part replayed without its base issues addresses past the
        shard's data space, which the system rejects."""
        router, parts = routed_parts(tiny_config, num_shards=2, ops=400)
        system = SecureEpdSystem(tiny_config, scheme="base-eu",
                                 batched=batched)
        with pytest.raises(AddressError):
            replay(system, parts[1], batched=batched)


class TestPooledExecution:
    def test_process_pool_matches_inline(self, tiny_config):
        """Workers rebuild their shard's world from the picklable spec;
        the fan-out must not perturb a single observable bit."""
        spec = spec_for(tiny_config, 2, "horus-dlm", ops=300)
        assert run_pooled(spec, jobs=2) == run_pooled(spec, jobs=1)

    def test_single_shard_fleet_runs_inline(self, tiny_config):
        spec = spec_for(tiny_config, 1, "base-eu", ops=200)
        results = run_pooled(spec)
        assert len(results) == 1
        assert results[0].observables.ops == 200

    def test_run_shard_rejects_mismatched_plan(self, tiny_config):
        spec = spec_for(tiny_config, 2, "base-eu")
        wrong = ShardRunSpec(config=spec.config, num_shards=4,
                             scheme="base-eu", plan=spec.plan)
        with pytest.raises(ConfigError, match="data"):
            run_shard(wrong, 0)

    def test_run_shard_rejects_bad_index(self, tiny_config):
        spec = spec_for(tiny_config, 2, "base-eu")
        with pytest.raises(ConfigError, match="outside fleet"):
            run_shard(spec, 2)

    def test_run_pooled_rejects_bad_jobs(self, tiny_config):
        with pytest.raises(ConfigError, match="jobs"):
            run_pooled(spec_for(tiny_config, 2, "base-eu"), jobs=0)


class TestHeadlineDifferential:
    def test_four_shard_100k_op_mixed_tenant_differential(self):
        """The acceptance headline: 4 shards, 100k mixed-tenant ops at
        scaled(128), sharded vs solo byte-identical per shard."""
        config = SystemConfig.scaled(128)
        plan = make_plan(config, 4, 32, 100_000, master_seed=87)
        spec = ShardRunSpec(config=config, num_shards=4, scheme="horus-dlm",
                            plan=plan, drain_seed=87)
        solo = run_pooled(spec, jobs=1)
        fleet = run_inprocess(spec)
        assert sum(run.observables.ops for run in solo) == 100_000
        for run, observed in zip(solo, fleet):
            assert run.observables == observed, observed.shard
