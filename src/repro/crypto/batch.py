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
* the counter-mode XOR runs once over the episode's contiguous buffer as a
  single arbitrary-precision operation instead of per block;
* per-item framing (address/counter fields) is assembled in one pass.

Nothing here changes any value the simulator produces: the scalar
primitives remain the specification, and the differential oracle
(:mod:`repro.core.oracle`) holds the batched engines to it end to end.
"""

import hashlib
from collections.abc import Iterable, Sequence

from repro.common.constants import CACHE_LINE_SIZE
from repro.crypto.arena import frame_buffer, frame_views, xor_bytes
from repro.crypto.primitives import PAD_DOMAIN, MacDomain, keyed_mac_state

Frames = bytes | bytearray | memoryview | None
"""A batch's (address, counter) hash frames: the contiguous
:func:`repro.crypto.arena.frame_buffer` form (24 B per block), or None to
assemble them on the spot."""


def _resolve_frames(frames: Frames, addresses: Sequence[int],
                    counters: Sequence[int]) -> Iterable[memoryview]:
    """Iterate a batch's frames as 24 B zero-copy windows.

    ``None`` assembles them (contiguously, via the arena kernel); element
    ``i`` is ``int_field(addresses[i]) + int_field(counters[i], 16)`` —
    the exact bytes both the pad and the block-MAC absorb after their
    domain tags.
    """
    if frames is None:
        frames = frame_buffer(addresses, counters)
    return frame_views(frames, len(addresses))


def generate_pads(key: bytes, addresses: Sequence[int],
                  counters: Sequence[int],
                  frames: Frames = None) -> bytes:
    """Counter-mode pads for a batch of blocks, as one contiguous buffer.

    Byte ``64*i .. 64*i+63`` equals ``generate_pad(key, addresses[i],
    counters[i])``.  The keyed state and the pad domain tag are absorbed
    once; each block only pays for its own (address, counter) frame.
    ``frames`` lets a caller that also MACs the same batch reuse one
    :func:`repro.crypto.arena.frame_buffer` pass.
    """
    frame_iter = _resolve_frames(frames, addresses, counters)
    base = hashlib.blake2b(key=key, digest_size=CACHE_LINE_SIZE)
    base.update(PAD_DOMAIN)
    fork = base.copy
    pads: list[bytes] = []
    append = pads.append
    for frame in frame_iter:
        h = fork()
        h.update(frame)
        append(h.digest())
    return b"".join(pads)


def xor_buffers(a: bytes, b: bytes) -> bytes:
    """XOR two equal-length buffers in one bulk operation.

    With 64 B inputs this is exactly ``xor_block``; over a whole episode's
    concatenated blocks it replaces N int conversions with one pass (u64
    lanes when the arena is accelerated, one big-int op otherwise).
    """
    return xor_bytes(a, b)


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
    return xor_buffers(plaintext,
                       generate_pads(key, addresses, counters, frames))


decrypt_blocks = encrypt_blocks
"""Counter-mode decryption is identical to encryption by construction."""


def compute_macs(key: bytes,
                 items: Iterable[tuple[bytes | memoryview, ...]],
                 domain: MacDomain = MacDomain.NODE) -> list[bytes]:
    """Keyed MACs over a batch of pre-framed inputs.

    ``items[i]`` is the ``parts`` tuple the scalar ``compute_mac`` would
    receive; the result matches it byte for byte under the same ``domain``.
    The keyed state and both domain tags are absorbed once for the batch.
    """
    fork = keyed_mac_state(key, domain).copy
    macs: list[bytes] = []
    append = macs.append
    for parts in items:
        h = fork()
        for part in parts:
            h.update(part)
        append(h.digest())
    return macs


def compute_block_macs(key: bytes, buffer: bytes | bytearray | memoryview,
                       addresses: Sequence[int],
                       counters: Sequence[int], domain: MacDomain,
                       frames: Frames = None) -> list[bytes]:
    """Batched (ciphertext, address, counter) MACs — the CHV/data-MAC shape.

    ``buffer`` is the concatenation of ``len(addresses)`` 64 B blocks;
    element ``i`` equals ``compute_mac(key, block_i, int_field(addr),
    int_field(ctr, 16), domain=domain)``.  ``frames`` reuses a frame
    pass shared with pad generation.
    """
    if len(buffer) != CACHE_LINE_SIZE * len(addresses):
        raise ValueError(
            f"buffer must be {CACHE_LINE_SIZE} B per address, got "
            f"{len(buffer)} B for {len(addresses)} addresses")
    frame_iter = _resolve_frames(frames, addresses, counters)
    view = memoryview(buffer)
    fork = keyed_mac_state(key, domain).copy
    macs: list[bytes] = []
    append = macs.append
    offset = 0
    for frame in frame_iter:
        h = fork()
        h.update(view[offset:offset + CACHE_LINE_SIZE])
        h.update(frame)
        append(h.digest())
        offset += CACHE_LINE_SIZE
    return macs


def split_blocks(buffer: bytes | bytearray | memoryview,
                 size: int = CACHE_LINE_SIZE) -> list[bytes]:
    """Cut a contiguous buffer back into ``size``-byte ``bytes`` blocks."""
    if len(buffer) % size:
        raise ValueError(f"buffer length {len(buffer)} not a multiple "
                         f"of {size}")
    if not isinstance(buffer, bytes):
        buffer = bytes(buffer)
    return [buffer[i:i + size] for i in range(0, len(buffer), size)]
