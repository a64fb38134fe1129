"""Configuration dataclasses and the Table I defaults."""

from dataclasses import replace

import pytest

from repro.common.config import (
    CacheConfig,
    MemoryConfig,
    SecurityConfig,
    SystemConfig,
)
from repro.common.constants import MACS_PER_BLOCK
from repro.common.errors import ConfigError
from repro.common.units import gib, kib, mib
from repro.core.system import SecureEpdSystem


class TestCacheConfig:
    def test_paper_l1_geometry(self):
        l1 = CacheConfig("L1", kib(64), 2, 2)
        assert l1.num_lines == 1024
        assert l1.num_sets == 512

    def test_paper_llc_geometry(self):
        llc = CacheConfig("LLC", mib(16), 16, 32)
        assert llc.num_lines == 262144
        assert llc.num_sets == 16384

    def test_rejects_indivisible_size(self):
        with pytest.raises(ConfigError):
            CacheConfig("bad", 1000, 2, 1)

    def test_rejects_non_power_of_two_sets(self):
        with pytest.raises(ConfigError):
            CacheConfig("bad", 3 * kib(64), 2, 1)


class TestMemoryConfig:
    def test_defaults_match_table1(self):
        mem = MemoryConfig()
        assert mem.size == gib(32)
        assert mem.read_latency_ns == 150
        assert mem.write_latency_ns == 500

    def test_rejects_unaligned_size(self):
        with pytest.raises(ConfigError):
            MemoryConfig(size=100)


class TestSecurityConfig:
    def test_defaults_match_table1(self):
        sec = SecurityConfig()
        assert sec.aes_latency_cycles == 40
        assert sec.hash_latency_cycles == 160
        assert sec.counter_cache_size == kib(256)
        assert sec.mac_cache_size == kib(512)
        assert sec.tree_cache_size == kib(256)
        assert sec.tree_arity == 8

    def test_rejects_degenerate_arity(self):
        with pytest.raises(ConfigError):
            SecurityConfig(tree_arity=1)

    @pytest.mark.parametrize("arity", [9, 16])
    def test_rejects_arity_beyond_a_tree_node(self, arity):
        """A tree node is one block of MACS_PER_BLOCK child MACs."""
        with pytest.raises(ConfigError, match="tree arity"):
            SecurityConfig(tree_arity=arity)

    @pytest.mark.parametrize("arity", [2, MACS_PER_BLOCK])
    def test_supported_arities_write_and_read_back(self, arity):
        base = SystemConfig.scaled(512)
        config = replace(base, security=replace(base.security,
                                                tree_arity=arity))
        system = SecureEpdSystem(config, scheme="base-lu")
        pages = range(0, 40, 3)
        for page in pages:
            system.controller.write(page * 4096, bytes([page + 1]) * 64)
        for page in pages:
            assert system.controller.read(page * 4096) == \
                bytes([page + 1]) * 64


class TestSystemConfig:
    def test_paper_flushed_block_total(self):
        """The paper's Fig. 6 caption: 295,936 flushed cache blocks."""
        assert SystemConfig.paper().total_cache_lines == 295936

    def test_paper_total_cache_size(self):
        config = SystemConfig.paper()
        assert config.total_cache_size == kib(64) + mib(2) + mib(16)

    def test_paper_metadata_cache_size(self):
        assert SystemConfig.paper().metadata_cache_size == kib(1024)

    def test_worst_case_stride_is_16k_at_paper_scale(self):
        assert SystemConfig.paper().worst_case_stride == kib(16)

    def test_llc_size_parameter(self):
        config = SystemConfig.paper(llc_size=mib(8))
        assert config.llc.size == mib(8)
        assert config.llc.ways == 16

    def test_rejects_non_monotone_hierarchy(self):
        with pytest.raises(ConfigError):
            SystemConfig(l1=CacheConfig("L1", mib(4), 2, 2))

    def test_rejects_memory_smaller_than_4x_llc(self):
        with pytest.raises(ConfigError):
            SystemConfig(memory=MemoryConfig(size=mib(32)))


class TestScaledConfig:
    @pytest.mark.parametrize("factor", [2, 16, 128, 512])
    def test_scaling_preserves_structure(self, factor):
        config = SystemConfig.scaled(factor)
        paper = SystemConfig.paper()
        assert config.l1.ways == paper.l1.ways
        assert config.llc.ways == paper.llc.ways
        assert config.memory.size == paper.memory.size // factor

    def test_scale_one_is_paper(self):
        assert SystemConfig.scaled(1) == SystemConfig.paper()

    def test_rejects_non_power_of_two(self):
        with pytest.raises(ConfigError):
            SystemConfig.scaled(3)

    def test_scaled_stride_still_isolates_counter_pages(self):
        """The worst case requires lines in distinct 4 KiB counter pages."""
        for factor in (16, 128, 512):
            config = SystemConfig.scaled(factor)
            assert config.worst_case_stride >= 4096

    def test_scaled_fill_fits_in_memory(self):
        for factor in (16, 128, 512):
            config = SystemConfig.scaled(factor)
            footprint = config.worst_case_stride * config.total_cache_lines
            assert footprint <= config.memory.size
