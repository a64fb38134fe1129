"""Timed crypto engines.

The engines wrap the pure primitives with operation accounting into a
:class:`~repro.stats.counters.SimStats` — the quantities Figures 13/15 report.
Every call computes real values over real 64 B blocks: there is no
counting-only mode, so every MAC comparison downstream is a real check.
"""

from collections.abc import Sequence
from typing import Protocol

from repro.crypto import batch
from repro.crypto.primitives import (
    MacDomain,
    decrypt_block,
    encrypt_block,
    int_field,
    keyed_mac_state,
)
from repro.stats.counters import SimStats
from repro.stats.events import AesKind, MacKind

_BLOCK_DOMAINS = {MacKind.CHV_DATA: MacDomain.CHV_DATA}
_DIGEST_DOMAINS = {MacKind.CHV_LEVEL2: MacDomain.CHV_LEVEL2}

DEFAULT_AES_KEY = b"repro-horus-aes-key-0001"
DEFAULT_MAC_KEY = b"repro-horus-mac-key-0001"


def block_domain(kind: MacKind, domain: MacDomain | None) -> MacDomain:
    """Resolve a block-MAC call's protection domain from its ``kind``.

    Compute sites inherit the domain from ``kind`` (``MacKind.CHV_DATA`` →
    the CHV domain, everything else the run-time data domain); verify sites
    pass ``domain`` explicitly.  Public so keyed engine subclasses resolve
    domains identically to the base engine.
    """
    if domain is not None:
        return domain
    return _BLOCK_DOMAINS.get(kind, MacDomain.DATA)


def digest_domain(kind: MacKind, domain: MacDomain | None) -> MacDomain:
    """Resolve a digest-MAC call's domain (``CHV_LEVEL2`` → DLM level 2)."""
    if domain is not None:
        return domain
    return _DIGEST_DOMAINS.get(kind, MacDomain.NODE)


class AesEngine:
    """Counter-mode encryption engine (one pad generation per operation)."""

    def __init__(self, stats: SimStats,
                 key: bytes = DEFAULT_AES_KEY) -> None:
        self._stats = stats
        self._key = key

    def encrypt(self, address: int, counter: int, plaintext: bytes) -> bytes:
        """Encrypt one block; accounts one AES operation."""
        self._stats.record_aes(AesKind.ENCRYPT)
        return encrypt_block(self._key, address, counter, plaintext)

    def decrypt(self, address: int, counter: int, ciphertext: bytes) -> bytes:
        """Decrypt one block; accounts one AES operation."""
        self._stats.record_aes(AesKind.DECRYPT)
        return decrypt_block(self._key, address, counter, ciphertext)

    def encrypt_batch(self, addresses: Sequence[int],
                      counters: Sequence[int],
                      plaintext: bytes | bytearray | memoryview,
                      frames: batch.Frames = None) -> bytes:
        """Encrypt a contiguous batch; accounts one AES op per block.

        ``plaintext`` is the concatenation of the batch's blocks.
        ``frames`` shares a :func:`repro.crypto.arena.frame_buffer` pass
        with the MAC engine.
        """
        self._stats.record_aes(AesKind.ENCRYPT, len(addresses))
        return batch.encrypt_blocks(self._key, addresses, counters,
                                    plaintext, frames)

    def decrypt_batch(self, addresses: Sequence[int],
                      counters: Sequence[int],
                      ciphertext: bytes | bytearray | memoryview,
                      frames: batch.Frames = None) -> bytes:
        """Decrypt a contiguous batch; accounts one AES op per block."""
        self._stats.record_aes(AesKind.DECRYPT, len(addresses))
        return batch.decrypt_blocks(self._key, addresses, counters,
                                    ciphertext, frames)


class MacEngine:
    """MAC engine; every call is one hash-latency operation."""

    def __init__(self, stats: SimStats,
                 key: bytes = DEFAULT_MAC_KEY) -> None:
        self._stats = stats
        self._key = key
        # One keyed state per domain, forked per call: the BLAKE2b key
        # schedule costs more than hashing a 64 B block, and the scalar
        # metadata walk MACs several blocks per flushed line.
        self._states = {domain: keyed_mac_state(key, domain)
                        for domain in MacDomain}

    def block_mac(self, kind: MacKind, ciphertext: bytes,
                  address: int, counter: int,
                  domain: MacDomain | None = None) -> bytes:
        """MAC over (ciphertext, address, counter): the BMT-style data MAC and
        the Horus CHV MAC are both this shape.

        The value is domain-separated: compute sites inherit the domain from
        ``kind`` (``MacKind.CHV_DATA`` → the CHV domain, everything else the
        run-time data domain); verify sites (``MacKind.VERIFY``) must pass
        ``domain`` explicitly when checking a non-run-time MAC, so a MAC can
        never verify outside the domain it was written for.
        """
        self._stats.record_mac(kind)
        h = self._states[block_domain(kind, domain)].copy()
        h.update(ciphertext)
        h.update(int_field(address))
        h.update(int_field(counter, 16))
        return h.digest()

    def node_mac(self, kind: MacKind, content: bytes,
                 address: int) -> bytes:
        """MAC over a 64 B metadata block bound to its address (tree slots)."""
        self._stats.record_mac(kind)
        h = self._states[MacDomain.NODE].copy()
        h.update(content)
        h.update(int_field(address))
        return h.digest()

    def digest_mac(self, kind: MacKind, content: bytes,
                   domain: MacDomain | None = None) -> bytes:
        """MAC over raw content (Horus-DLM second level, cache-tree levels).

        Domain-separated like :meth:`block_mac`: ``MacKind.CHV_LEVEL2``
        implies the DLM second-level domain, everything else the metadata
        node domain; verifiers of DLM MACs pass ``domain`` explicitly.
        """
        self._stats.record_mac(kind)
        h = self._states[digest_domain(kind, domain)].copy()
        h.update(content)
        return h.digest()

    def block_mac_batch(self, kind: MacKind,
                        buffer: bytes | bytearray | memoryview,
                        addresses: Sequence[int], counters: Sequence[int],
                        domain: MacDomain | None = None,
                        frames: batch.Frames = None) -> list[bytes]:
        """Batched :meth:`block_mac`: one accounted MAC per element.

        ``buffer`` holds the batch's ciphertext blocks contiguously.
        Domain resolution is identical to :meth:`block_mac`; ``frames``
        shares a :func:`repro.crypto.arena.frame_buffer` pass with the AES
        engine.
        """
        self._stats.record_mac(kind, len(addresses))
        return batch.compute_block_macs(self._key, buffer, addresses,
                                        counters, block_domain(kind, domain),
                                        frames)

    def digest_mac_batch(self, kind: MacKind,
                         contents: Sequence[batch.Buffer],
                         domain: MacDomain | None = None) -> list[bytes]:
        """Batched :meth:`digest_mac`: one accounted MAC per content."""
        self._stats.record_mac(kind, len(contents))
        return batch.compute_digest_macs(
            self._key, contents, domain=digest_domain(kind, domain))


class KeySchedule(Protocol):
    """Factory for the engine pair a secure controller runs on.

    The controller builds its engines at construction time and downstream
    components (the Horus drain engine in particular) capture direct
    references to them, so alternate keying — per-tenant key domains, key
    rotation studies — must be injected *before* the controller wires
    itself up.  Anything with this shape can be passed as the
    ``key_schedule`` of :class:`~repro.core.system.SecureEpdSystem` /
    :class:`~repro.secure.controller.SecureMemoryController`; the default
    (``None``) is the plain master-keyed pair.
    """

    def build(self, stats: SimStats) -> "tuple[AesEngine, MacEngine]":
        """Return the (AES engine, MAC engine) pair for one controller."""
        ...
