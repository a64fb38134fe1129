"""Batched cryptographic primitives for the drain/verify hot paths.

The scalar primitives in :mod:`repro.crypto.primitives` pay their cost in
Python call overhead, not in hashing: one drain episode walks hundreds of
thousands of blocks through ``generate_pad``/``xor_block``/``compute_mac``,
and each call re-runs the BLAKE2b key schedule and converts 64 B blocks
through arbitrary-precision integers one at a time.  The batch forms below
are *provably equivalent* — they produce byte-identical output for every
input (property-tested in ``tests/test_prop_batch.py``) — but amortize the
fixed costs across the whole work list:

* the keyed hash state (key block + domain tag) is absorbed once and
  ``copy()``-ed per item instead of being recomputed;
* each item's whole input is one C-built ``bytes`` record from the arena
  kernels (:mod:`repro.crypto.arena`), absorbed in one ``update``: a 24 B
  frame per pad, an 88 B block-and-frame record per block MAC, a 64 B
  group per DLM second-level digest — so a block costs ``hashlib``'s own
  ``copy`` and ``digest`` plus one ``update``, and no Python slice;
* records are cut and hashed :data:`CHUNK_BLOCKS` at a time, so the
  per-block objects alive at once stay bounded at paper scale;
* the counter-mode XOR runs once over the episode's contiguous buffer as a
  single bulk operation instead of per block.

Nothing here changes any value the simulator produces: the scalar
primitives remain the specification, and the differential oracle
(:mod:`repro.core.oracle`) holds the batched engines to it end to end.
This module reaches numpy only through the arena kernels.
"""

import hashlib
from collections.abc import Iterable, Sequence

from repro.common.constants import CACHE_LINE_SIZE
from repro.crypto.arena import (
    FRAME_SIZE,
    block_frame_records,
    frame_buffer,
    records,
    xor_bytes,
)
from repro.crypto.primitives import PAD_DOMAIN, MacDomain, keyed_mac_state

Buffer = bytes | bytearray | memoryview

Frames = Buffer | None
"""A batch's (address, counter) hash frames: the contiguous
:func:`repro.crypto.arena.frame_buffer` form (24 B per block), or None to
assemble them on the spot."""

CHUNK_BLOCKS = 4096
"""Blocks whose records are cut and hashed together.  A paper-scale
episode hashes 295,936 blocks; cutting them all at once would hold that
many record objects alive, and cut them slower than 4096 at a time."""


def _frame_view(frames: Frames, addresses: Sequence[int],
                counters: Sequence[int]) -> memoryview:
    """A batch's frames as one buffer, assembled if the caller had none.

    Byte ``24*i .. 24*i+23`` is ``int_field(addresses[i]) +
    int_field(counters[i], 16)`` — the exact bytes both the pad and the
    block MAC absorb after their domain tags.
    """
    if frames is None:
        frames = frame_buffer(addresses, counters)
    if len(frames) != FRAME_SIZE * len(addresses):
        raise ValueError(
            f"frame buffer must be {FRAME_SIZE} B per block, got "
            f"{len(frames)} B for {len(addresses)} blocks")
    return memoryview(frames)


def generate_pads(key: bytes, addresses: Sequence[int],
                  counters: Sequence[int],
                  frames: Frames = None) -> bytes:
    """Counter-mode pads for a batch of blocks, as one contiguous buffer.

    Byte ``64*i .. 64*i+63`` equals ``generate_pad(key, addresses[i],
    counters[i])``.  The keyed state and the pad domain tag are absorbed
    once; each block absorbs only its 24 B frame record.  ``frames`` lets
    a caller that also MACs the same batch reuse one
    :func:`repro.crypto.arena.frame_buffer` pass.
    """
    frame_view = _frame_view(frames, addresses, counters)
    base = hashlib.blake2b(key=key, digest_size=CACHE_LINE_SIZE)
    base.update(PAD_DOMAIN)
    fork = base.copy
    chunks: list[bytes] = []
    step = FRAME_SIZE * CHUNK_BLOCKS
    for start in range(0, len(frame_view), step):
        pads: list[bytes] = []
        append = pads.append
        for frame in records(frame_view[start:start + step], FRAME_SIZE):
            h = fork()
            h.update(frame)
            append(h.digest())
        chunks.append(b"".join(pads))
    return b"".join(chunks)


def encrypt_blocks(key: bytes, addresses: Sequence[int],
                   counters: Sequence[int],
                   plaintext: bytes | bytearray | memoryview,
                   frames: Frames = None) -> bytes:
    """Counter-mode encrypt a contiguous buffer of 64 B blocks.

    ``plaintext`` is the concatenation of ``len(addresses)`` blocks; the
    result is the concatenation of ``encrypt_block(key, a, c, block)`` for
    each.  Encryption and decryption are the same operation, as in the
    scalar form.
    """
    if len(plaintext) != CACHE_LINE_SIZE * len(addresses):
        raise ValueError(
            f"plaintext must be {CACHE_LINE_SIZE} B per address, got "
            f"{len(plaintext)} B for {len(addresses)} addresses")
    if not addresses:
        return b""
    return xor_bytes(plaintext,
                     generate_pads(key, addresses, counters, frames))


decrypt_blocks = encrypt_blocks
"""Counter-mode decryption is identical to encryption by construction."""


def compute_digest_macs(key: bytes, contents: Iterable[Buffer],
                        domain: MacDomain) -> list[bytes]:
    """Keyed MACs over a batch of raw contents, one MAC per content.

    Element ``i`` equals ``compute_mac(key, contents[i], domain=domain)``:
    the keyed state and both domain tags are absorbed once, and each
    content (a DLM group of 8 first-level MACs, as a 64 B record) in one
    ``update``.
    """
    fork = keyed_mac_state(key, domain).copy
    macs: list[bytes] = []
    append = macs.append
    for content in contents:
        h = fork()
        h.update(content)
        append(h.digest())
    return macs


def compute_block_macs(key: bytes, buffer: Buffer,
                       addresses: Sequence[int],
                       counters: Sequence[int], domain: MacDomain,
                       frames: Frames = None) -> list[bytes]:
    """Batched (ciphertext, address, counter) MACs — the CHV/data-MAC shape.

    ``buffer`` is the concatenation of ``len(addresses)`` 64 B blocks;
    element ``i`` equals ``compute_mac(key, block_i, int_field(addr),
    int_field(ctr, 16), domain=domain)``.  Each block and its frame arrive
    as one 88 B record, absorbed in one ``update``.  ``frames`` reuses a
    frame pass shared with pad generation.
    """
    count = len(addresses)
    if len(buffer) != CACHE_LINE_SIZE * count:
        raise ValueError(
            f"buffer must be {CACHE_LINE_SIZE} B per address, got "
            f"{len(buffer)} B for {count} addresses")
    frame_view = _frame_view(frames, addresses, counters)
    block_view = memoryview(buffer)
    fork = keyed_mac_state(key, domain).copy
    macs: list[bytes] = []
    append = macs.append
    for start in range(0, count, CHUNK_BLOCKS):
        stop = start + CHUNK_BLOCKS
        for record in block_frame_records(
                block_view[start * CACHE_LINE_SIZE:stop * CACHE_LINE_SIZE],
                frame_view[start * FRAME_SIZE:stop * FRAME_SIZE]):
            h = fork()
            h.update(record)
            append(h.digest())
    return macs


def split_blocks(buffer: Buffer) -> list[bytes]:
    """Cut a contiguous buffer into 64 B ``bytes`` records.

    A length that is not a whole number of blocks ends in one shorter
    record: a DLM episode whose block count is not a multiple of 8 ends in
    a second-level group of fewer than 8 first-level MACs.
    """
    whole = len(buffer) - len(buffer) % CACHE_LINE_SIZE
    blocks = records(memoryview(buffer)[:whole], CACHE_LINE_SIZE)
    if whole < len(buffer):
        blocks.append(bytes(buffer[whole:]))
    return blocks
