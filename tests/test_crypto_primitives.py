"""Counter-mode encryption and MAC primitives."""

import pytest

from repro.crypto import primitives

KEY = b"unit-test-key"


class TestPadGeneration:
    def test_pad_is_block_sized(self):
        assert len(primitives.generate_pad(KEY, 0, 0)) == 64

    def test_pad_is_deterministic(self):
        assert primitives.generate_pad(KEY, 64, 7) == \
            primitives.generate_pad(KEY, 64, 7)

    def test_spatial_uniqueness(self):
        """Same counter, different address -> different pad (Fig. 2)."""
        assert primitives.generate_pad(KEY, 0, 5) != \
            primitives.generate_pad(KEY, 64, 5)

    def test_temporal_uniqueness(self):
        """Same address, different counter -> different pad."""
        assert primitives.generate_pad(KEY, 0, 5) != \
            primitives.generate_pad(KEY, 0, 6)

    def test_key_separation(self):
        assert primitives.generate_pad(b"k1", 0, 0) != \
            primitives.generate_pad(b"k2", 0, 0)


class TestEncryption:
    def test_roundtrip(self):
        plaintext = bytes(range(64))
        ciphertext = primitives.encrypt_block(KEY, 4096, 9, plaintext)
        assert ciphertext != plaintext
        assert primitives.decrypt_block(KEY, 4096, 9, ciphertext) == plaintext

    def test_wrong_counter_fails_to_decrypt(self):
        plaintext = bytes(64)
        ciphertext = primitives.encrypt_block(KEY, 0, 1, plaintext)
        assert primitives.decrypt_block(KEY, 0, 2, ciphertext) != plaintext

    def test_wrong_address_fails_to_decrypt(self):
        plaintext = bytes(64)
        ciphertext = primitives.encrypt_block(KEY, 0, 1, plaintext)
        assert primitives.decrypt_block(KEY, 64, 1, ciphertext) != plaintext

    def test_identical_plaintexts_have_distinct_ciphertexts(self):
        """The property CHV encryption must keep across drain episodes."""
        plaintext = b"\xaa" * 64
        c1 = primitives.encrypt_block(KEY, 0, 1, plaintext)
        c2 = primitives.encrypt_block(KEY, 0, 2, plaintext)
        c3 = primitives.encrypt_block(KEY, 64, 1, plaintext)
        assert len({c1, c2, c3}) == 3

    def test_xor_block_involution(self):
        a, b = bytes(range(64)), b"\x5c" * 64
        assert primitives.xor_block(primitives.xor_block(a, b), b) == a


class TestMac:
    def test_mac_is_8_bytes(self):
        assert len(primitives.compute_mac(
            KEY, b"data", domain=primitives.MacDomain.NODE)) == 8

    def test_mac_depends_on_every_part(self):
        node = primitives.MacDomain.NODE
        base = primitives.compute_mac(KEY, b"aa", b"bb", domain=node)
        assert primitives.compute_mac(KEY, b"aa", b"bc", domain=node) != base
        assert primitives.compute_mac(KEY, b"ab", b"bb", domain=node) != base

    def test_mac_depends_on_key(self):
        node = primitives.MacDomain.NODE
        assert primitives.compute_mac(b"k1", b"x", domain=node) != \
            primitives.compute_mac(b"k2", b"x", domain=node)

    def test_int_field_is_fixed_width(self):
        assert primitives.int_field(0) == bytes(8)
        assert primitives.int_field(1, 16) == b"\x01" + bytes(15)
        with pytest.raises(OverflowError):
            primitives.int_field(1 << 64)
