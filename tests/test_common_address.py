"""Address arithmetic helpers."""

import pytest

from repro.common import address
from repro.common.errors import AlignmentError


class TestAlignment:
    def test_require_aligned_returns_value(self):
        assert address.require_block_aligned(256) == 256

    def test_require_aligned_rejects_unaligned(self):
        with pytest.raises(AlignmentError):
            address.require_block_aligned(100)

    def test_require_aligned_rejects_negative(self):
        with pytest.raises(AlignmentError):
            address.require_block_aligned(-64)

    def test_custom_block_size(self):
        assert address.require_block_aligned(4096, block_size=4096) == 4096
        with pytest.raises(AlignmentError):
            address.require_block_aligned(64, block_size=4096)


class TestBlockArithmetic:
    def test_block_index_covers_the_whole_block(self):
        for index in (0, 1, 17, 4095):
            assert address.block_index(index * 64) == index
            assert address.block_index(index * 64 + 63) == index
