"""Cryptographic primitives.

The paper's hardware uses AES for counter-mode pads and a SHA-class hash for
MACs.  The reproduction substitutes keyed BLAKE2b (stdlib, C speed) for both:
counter-mode security rests on pad uniqueness per (key, address, counter) and
MAC security on keyed collision resistance — both structural properties this
substitution preserves (see DESIGN.md).  Latency is modelled separately by the
engines in :mod:`repro.crypto.engine`.
"""

import hashlib
from enum import Enum, unique

from repro.common.constants import CACHE_LINE_SIZE, MAC_SIZE

PAD_DOMAIN = b"horus-pad"
MAC_DOMAIN = b"horus-mac"


@unique
class MacDomain(Enum):
    """Domain-separation tag mixed into every MAC.

    Without it, a run-time data MAC and a CHV MAC over the same
    (ciphertext, address, counter) are the same value, so an adversary can
    splice one protection domain's MAC into another's and still verify.
    The tags are fixed-width (4 bytes) so framing stays injective.
    """

    __hash__ = object.__hash__  # identity: every MAC looks up its state

    DATA = b"dat\0"
    """Run-time BMT-style data MAC over (ciphertext, address, counter)."""

    NODE = b"nod\0"
    """Metadata digests: tree-node slots, cache-tree levels."""

    CHV_DATA = b"chv1"
    """Horus CHV first-level MAC over a vaulted block."""

    CHV_LEVEL2 = b"chv2"
    """Horus-DLM second-level MAC over 8 first-level MACs."""

_BLOCK_MASK = (1 << (8 * CACHE_LINE_SIZE)) - 1


def generate_pad(key: bytes, address: int, counter: int) -> bytes:
    """One-time pad for counter-mode encryption of one 64 B block.

    Spatial uniqueness comes from ``address``, temporal uniqueness from
    ``counter`` — exactly the CME construction of Fig. 2 in the paper.
    """
    h = hashlib.blake2b(key=key, digest_size=CACHE_LINE_SIZE)
    h.update(PAD_DOMAIN)
    h.update(address.to_bytes(8, "little"))
    h.update(counter.to_bytes(16, "little"))
    return h.digest()


def xor_block(a: bytes, b: bytes) -> bytes:
    """Bitwise XOR of two 64 B blocks (the 1-cycle CME step)."""
    return (
        (int.from_bytes(a, "little") ^ int.from_bytes(b, "little")) & _BLOCK_MASK
    ).to_bytes(CACHE_LINE_SIZE, "little")


def encrypt_block(key: bytes, address: int, counter: int, plaintext: bytes) -> bytes:
    """Counter-mode encryption of one block."""
    return xor_block(plaintext, generate_pad(key, address, counter))


def decrypt_block(key: bytes, address: int, counter: int, ciphertext: bytes) -> bytes:
    """Counter-mode decryption (identical to encryption by construction)."""
    return xor_block(ciphertext, generate_pad(key, address, counter))


def compute_mac(key: bytes, *parts: bytes, domain: MacDomain) -> bytes:
    """8 B keyed MAC over the concatenation of ``parts``.

    ``domain`` separates the library's MAC uses cryptographically: equal
    inputs under different domains yield unrelated values, so a MAC can
    never verify outside the protection domain it was computed for.

    Callers are responsible for unambiguous framing: all library call sites
    pass fixed-width fields (addresses and counters as 8/16-byte integers,
    blocks as 64 B), so concatenation is injective.
    """
    h = keyed_mac_state(key, domain)
    for part in parts:
        h.update(part)
    return h.digest()


def keyed_mac_state(key: bytes, domain: MacDomain) -> "hashlib.blake2b":
    """The hash state every MAC under (``key``, ``domain``) starts from.

    Key block, :data:`MAC_DOMAIN` and the domain tag are absorbed; a
    caller that MACs many inputs under one domain builds this once and
    ``copy()``-s it per MAC instead of re-running the BLAKE2b key schedule.
    """
    h = hashlib.blake2b(key=key, digest_size=MAC_SIZE)
    h.update(MAC_DOMAIN)
    h.update(domain.value)
    return h


def int_field(value: int, width: int = 8) -> bytes:
    """Fixed-width little-endian encoding for MAC inputs."""
    return value.to_bytes(width, "little")
