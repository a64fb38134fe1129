"""ShardRouter: total, disjoint address-range routing, and the trace split
as an order-preserving partition of the caller's own ops."""

import random

import pytest

from repro.common.errors import AddressError, ConfigError
from repro.sharding.router import MAX_SHARDS, ShardRouter
from repro.workloads.trace import MemoryOp, OpKind


def sample_addresses(router, per_shard=8):
    """Line-aligned probes spread over every shard, including boundaries."""
    size = router.shard_data_size
    probes = []
    for extent in router.extents:
        step = max(64, size // per_shard // 64 * 64)
        probes.extend(range(extent.base, extent.end, step))
        probes.append(extent.end - 64)
    return sorted(set(probes))


class TestRouterConstruction:
    def test_rejects_zero_shards(self, tiny_config):
        with pytest.raises(ConfigError, match="shard count"):
            ShardRouter(tiny_config, 0)

    def test_rejects_oversized_fleet(self, tiny_config):
        with pytest.raises(ConfigError, match="shard count"):
            ShardRouter(tiny_config, MAX_SHARDS + 1)

    @pytest.mark.parametrize("num_shards", [1, 2, 3, 7, 16])
    def test_extents_tile_the_aggregate_space(self, tiny_config, num_shards):
        router = ShardRouter(tiny_config, num_shards)
        assert router.total_data_size == \
            router.shard_data_size * num_shards
        assert router.extents[0].base == 0
        for earlier, later in zip(router.extents, router.extents[1:]):
            assert earlier.end == later.base
        assert router.extents[-1].end == router.total_data_size


class TestAddressMapping:
    @pytest.mark.parametrize("num_shards", [1, 2, 7, 16])
    def test_routing_is_total_and_disjoint(self, tiny_config, num_shards):
        """Every aligned address belongs to exactly one extent, and route()
        agrees with that extent."""
        router = ShardRouter(tiny_config, num_shards)
        for address in sample_addresses(router):
            owners = [extent.shard for extent in router.extents
                      if extent.contains(address)]
            assert len(owners) == 1, hex(address)
            shard, local = router.route(address)
            assert shard == owners[0]
            assert 0 <= local < router.shard_data_size
            assert local == address - router.extents[shard].base

    @pytest.mark.parametrize("num_shards", [1, 3, 16])
    def test_global_local_roundtrip(self, tiny_config, num_shards):
        router = ShardRouter(tiny_config, num_shards)
        for address in sample_addresses(router):
            shard, local = router.route(address)
            assert router.extents[shard].base + local == address

    def test_out_of_range_addresses_rejected(self, tiny_config):
        router = ShardRouter(tiny_config, 4)
        with pytest.raises(AddressError, match="outside aggregate"):
            router.route(-64)
        with pytest.raises(AddressError, match="outside aggregate"):
            router.route(router.total_data_size)


class TestTraceSplitting:
    """The partition contract: ``split`` hands back the caller's own ops,
    grouped by shard in arrival order, and replays issue them at the
    shard's base offset."""

    def make_trace(self, router, num_ops=600, seed=5):
        """Ops spread over the whole aggregate space, every extent's first
        and last line included."""
        rng = random.Random(seed)
        blocks = router.total_data_size // 64
        addresses = [rng.randrange(blocks) * 64 for _ in range(num_ops)]
        for extent in router.extents:
            addresses += [extent.base, extent.end - 64]
        rng.shuffle(addresses)
        return [MemoryOp(OpKind.WRITE, address, rng.randbytes(64))
                if rng.random() < 0.5 else MemoryOp(OpKind.READ, address)
                for address in addresses]

    @pytest.mark.parametrize("num_shards", [1, 2, 7])
    def test_split_is_an_order_preserving_partition(self, tiny_config,
                                                    num_shards):
        """Every input op lands, as itself, in the one part of its shard,
        and each part keeps arrival order."""
        router = ShardRouter(tiny_config, num_shards)
        trace = self.make_trace(router)
        parts = router.split(trace)
        assert len(parts) == num_shards
        assert sum(len(part) for part in parts) == len(trace)

        cursors = [0] * num_shards
        for op in trace:
            shard, _ = router.route(op.address)
            assert parts[shard][cursors[shard]] is op
            cursors[shard] += 1
        assert cursors == [len(part) for part in parts]

    def test_split_parts_stay_inside_their_extents(self, tiny_config):
        """A part's addresses stay global and inside its extent, so
        ``address - base`` is an aligned, in-range local address."""
        router = ShardRouter(tiny_config, 4)
        parts = router.split(self.make_trace(router))
        for extent, part in zip(router.extents, parts):
            assert part
            for op in part:
                assert extent.contains(op.address)
                local = op.address - extent.base
                assert 0 <= local < router.shard_data_size
                assert local % 64 == 0
                assert router.route(op.address) == (extent.shard, local)

    def test_split_builds_no_ops(self, tiny_config):
        """No part holds an op the caller did not pass in."""
        router = ShardRouter(tiny_config, 4)
        trace = self.make_trace(router, num_ops=64)
        routed = [id(op) for part in router.split(trace) for op in part]
        assert sorted(routed) == sorted(id(op) for op in trace)

    def test_split_aliases_every_shard(self, tiny_config):
        """Shards past the first alias the input ops too: their base is
        applied by the replay, not by the split."""
        router = ShardRouter(tiny_config, 2)
        trace = [MemoryOp(OpKind.READ, 0),
                 MemoryOp(OpKind.WRITE, router.shard_data_size, bytes(64))]
        parts = router.split(trace)
        assert parts[0][0] is trace[0]
        assert parts[1][0] is trace[1]
        assert parts[1][0].address == router.extents[1].base

    @pytest.mark.parametrize("address", [-64, "total"])
    def test_split_rejects_out_of_range_ops(self, tiny_config, address):
        router = ShardRouter(tiny_config, 2)
        if address == "total":
            address = router.total_data_size
        rogue = [MemoryOp(OpKind.READ, 0), MemoryOp(OpKind.READ, address),
                 MemoryOp(OpKind.READ, 64)]
        with pytest.raises(AddressError, match="outside aggregate"):
            router.split(rogue)
