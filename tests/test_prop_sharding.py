"""Property-based sharding invariants.

The router's algebra (route totality, disjointness, the global/local
bijection, split as an order-preserving partition of the input ops) and the
tenant mixer's seed hygiene must hold for *every* shard count and seed, not
just the handful the example tests pin down — Hypothesis picks the inputs.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common.config import SystemConfig
from repro.common.rng import spread_seed
from repro.sharding.router import ShardRouter
from repro.workloads.tenantmix import TenantMixer, TenantMixPlan
from repro.workloads.trace import OpKind
from tests.conftest import examples

CONFIG = SystemConfig.scaled(512)
SHARD_COUNTS = (1, 2, 7, 16)

shard_counts = st.sampled_from(SHARD_COUNTS)
seeds = st.integers(min_value=0, max_value=2**32 - 1)


def aligned_addresses(router: ShardRouter):
    blocks = router.total_data_size // 64
    return st.integers(min_value=0, max_value=blocks - 1).map(
        lambda block: block * 64)


class TestRouterAlgebra:
    @given(num_shards=shard_counts, data=st.data())
    @settings(max_examples=examples(60), deadline=None)
    def test_route_is_total_and_single_owner(self, num_shards, data):
        router = ShardRouter(CONFIG, num_shards)
        address = data.draw(aligned_addresses(router))
        shard, local = router.route(address)
        owners = [extent.shard for extent in router.extents
                  if extent.contains(address)]
        assert owners == [shard]
        assert 0 <= local < router.shard_data_size

    @given(num_shards=shard_counts, data=st.data())
    @settings(max_examples=examples(60), deadline=None)
    def test_extent_base_inverts_route(self, num_shards, data):
        router = ShardRouter(CONFIG, num_shards)
        address = data.draw(aligned_addresses(router))
        shard, local = router.route(address)
        extent = router.extents[shard]
        assert extent.shard == shard
        assert extent.base + local == address
        assert local % 64 == 0

    @given(num_shards=shard_counts, seed=seeds)
    @settings(max_examples=examples(25), deadline=None)
    def test_split_is_an_order_preserving_partition(self, num_shards, seed):
        router = ShardRouter(CONFIG, num_shards)
        plan = TenantMixPlan(num_tenants=4, total_ops=120,
                             data_size=router.total_data_size,
                             footprint_blocks=8, master_seed=seed)
        trace = TenantMixer(plan).mix()
        parts = router.split(trace)
        assert len(parts) == num_shards
        assert sum(len(part) for part in parts) == len(trace)
        cursors = [0] * num_shards
        for op in trace:
            shard, _ = router.route(op.address)
            assert parts[shard][cursors[shard]] is op
            cursors[shard] += 1
        assert cursors == [len(part) for part in parts]
        for extent, part in zip(router.extents, parts):
            assert all(extent.contains(op.address) for op in part)


class TestTenantStreams:
    @given(seed=seeds, tenants=st.integers(min_value=1, max_value=12))
    @settings(max_examples=examples(25), deadline=None)
    def test_mix_is_reproducible_and_conserves_ops(self, seed, tenants):
        plan = TenantMixPlan(num_tenants=tenants, total_ops=90,
                             data_size=1 << 20, footprint_blocks=8,
                             master_seed=seed)
        mix = TenantMixer(plan).mix()
        assert mix == TenantMixer(plan).mix()
        assert len(mix) == 90
        for op in mix:
            assert plan.tenant_of(op.address) >= 0
            if op.kind is OpKind.WRITE:
                assert len(op.data) == 64

    @given(seed=seeds)
    @settings(max_examples=examples(25), deadline=None)
    def test_tenant_streams_are_deterministic_slices(self, seed):
        """Each tenant's subsequence of the mix equals its standalone
        trace: interleaving never perturbs a stream."""
        plan = TenantMixPlan(num_tenants=5, total_ops=100,
                             data_size=1 << 20, footprint_blocks=8,
                             master_seed=seed)
        mixer = TenantMixer(plan)
        streams: dict[int, list] = {t: [] for t in range(5)}
        for op in mixer.mix():
            streams[plan.tenant_of(op.address)].append(op)
        for tenant, stream in streams.items():
            assert stream == mixer.tenant_trace(tenant)


class TestSeedSpreading:
    @given(master=seeds, tenant=st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=examples(80), deadline=None)
    def test_spread_seed_never_slides_across_masters(self, master, tenant):
        """The seed-collision regression, property form: hashed per-tenant
        seeds must not reproduce under (master±k, tenant∓k) like the old
        additive ``master_seed + i`` scheme did."""
        here = spread_seed(master, "tenant", tenant)
        assert here != spread_seed(master + 1, "tenant", tenant + 1)
        assert here != spread_seed(master + 1, "tenant", max(0, tenant - 1))
        assert here == spread_seed(master, "tenant", tenant)

    @given(master=seeds)
    @settings(max_examples=examples(40), deadline=None)
    def test_spread_seed_labels_are_injective_in_practice(self, master):
        labels = [("tenant", i) for i in range(32)] + \
            [("drain",), ("shard", 0), ("shard", 1)]
        values = [spread_seed(master, *label) for label in labels]
        assert len(set(values)) == len(values)
