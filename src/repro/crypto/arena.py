"""Contiguous buffer kernels for the epoch hot paths.

The batched engines in :mod:`repro.crypto.batch` removed the per-block
*crypto* overhead, but the surrounding plumbing still marshalled every
episode through lists of 64 B ``bytes`` objects: counter frames were built
one ``to_bytes`` concatenation at a time, address/MAC payload blocks were
``b"".join``-ed group by group, and ciphertext was split back into N
fresh objects just to be re-joined by the memory layer.  This module is
the shared substrate that removes those round-trips:

* ``pack_u64``/``unpack_u64``/``tile_u64`` convert between integer lanes
  and little-endian byte buffers in bulk (numpy u64 lanes);
* ``frame_buffer`` assembles all 24 B (address, counter) hash frames of a
  batch as one contiguous buffer;
* ``records`` cuts a buffer into fixed-size ``bytes`` records, and
  ``block_frame_records`` joins each 64 B block to its frame as the one
  88 B record a block MAC absorbs: every batched hash in
  :mod:`repro.crypto.batch` takes its per-block input from these, built in
  C (one numpy void-dtype pass) rather than by a per-block slice;
* ``xor_bytes`` is the counter-mode XOR kernel over whole buffers.

Every kernel is *value-transparent*: its output is byte-identical to the
scalar spelling it replaces (property-tested against the scalar primitives
in ``tests/test_prop_arena.py``).  Inputs too small to repay numpy's
per-call cost take a Python path, and inputs that the u64 lanes cannot
represent (counters at or above 2**64) transparently fall back to the
arbitrary-precision path; both give the same bytes.
"""

from collections.abc import Sequence
from operator import add

import numpy as np

from repro.common.constants import CACHE_LINE_SIZE

FRAME_SIZE = 24
"""One (address, counter) hash frame: 8 B address + 16 B counter."""

BLOCK_RECORD_SIZE = CACHE_LINE_SIZE + FRAME_SIZE
"""One block-MAC input: a 64 B block followed by its 24 B frame."""

_MIN_RECORD_LANES = 8
"""Below this many records a slice comprehension is cheaper than numpy's
fixed per-call cost (about 1.6 us per call against 0.2 us per slice on a
2-vCPU x86 host)."""

_U64_MAX = (1 << 64) - 1


def pack_u64(values: Sequence[int]) -> bytes:
    """``values`` as consecutive little-endian u64 lanes.

    Equals ``b"".join(v.to_bytes(8, "little") for v in values)``; values
    outside the u64 range fall back to the arbitrary-precision path
    (where they raise ``OverflowError`` exactly as ``to_bytes`` would).
    """
    if len(values) > 1:
        try:
            return bytes(np.asarray(values, dtype="<u8").tobytes())
        except (OverflowError, TypeError, ValueError):
            pass  # value outside u64 — the scalar path raises precisely
    return b"".join(value.to_bytes(8, "little") for value in values)


def unpack_u64(buffer: bytes | bytearray | memoryview) -> list[int]:
    """Little-endian u64 lanes back to a list of ints (pack_u64 inverse)."""
    if len(buffer) % 8:
        raise ValueError(f"buffer length {len(buffer)} not a multiple of 8")
    if len(buffer) > 8:
        lanes: list[int] = np.frombuffer(buffer, dtype="<u8").tolist()
        return lanes
    return [int.from_bytes(buffer[i:i + 8], "little")
            for i in range(0, len(buffer), 8)]


def tile_u64(values: Sequence[int], lanes: int) -> bytes:
    """Each value's 8 B little-endian form repeated ``lanes`` times.

    ``tile_u64([a], 8)`` is one 64 B pattern block; over a whole fill's
    address list it assembles every pattern payload in one pass.
    """
    if len(values) > 1:
        try:
            return bytes(np.repeat(
                np.asarray(values, dtype="<u8"), lanes).tobytes())
        except (OverflowError, TypeError, ValueError):
            pass
    return b"".join(value.to_bytes(8, "little") * lanes for value in values)


def frame_buffer(addresses: Sequence[int], counters: Sequence[int]) -> bytes:
    """All 24 B (address, counter) frames of a batch, contiguously.

    Byte ``24*i .. 24*i+23`` equals ``addresses[i].to_bytes(8, "little")
    + counters[i].to_bytes(16, "little")``, the framing both the pad and
    the block MAC absorb after their domain tags.  Counters at or
    above 2**64 (or any non-u64 input) take the arbitrary-precision
    path, so the output never depends on which kernel ran.
    """
    count = len(addresses)
    if count != len(counters):
        raise ValueError("addresses and counters must have equal length")
    if count > 1:
        try:
            frames = np.zeros((count, 3), dtype="<u8")
            frames[:, 0] = np.asarray(addresses, dtype="<u8")
            if isinstance(counters, range):
                if not (0 <= counters.start
                        and counters[-1] <= _U64_MAX
                        and counters[0] <= _U64_MAX):
                    raise OverflowError
                frames[:, 1] = np.arange(
                    counters.start, counters.stop, counters.step,
                    dtype="<u8")
            else:
                frames[:, 1] = np.asarray(counters, dtype="<u8")
            return bytes(frames.tobytes())
        except (OverflowError, TypeError, ValueError):
            pass  # counter/address outside u64 lanes
    return b"".join(
        address.to_bytes(8, "little") + counter.to_bytes(16, "little")
        for address, counter in zip(addresses, counters))


def records(buffer: bytes | bytearray | memoryview,
            size: int) -> list[bytes]:
    """Cut ``buffer`` into consecutive ``size``-byte ``bytes`` records.

    Element ``i`` equals ``bytes(buffer[size*i:size*i+size])``; a length
    that is not a whole number of records raises ``ValueError``.  The
    lanes build every record in one void-dtype pass, without a Python
    slice per record.
    """
    if len(buffer) % size:
        raise ValueError(
            f"buffer length {len(buffer)} not a multiple of {size}")
    if len(buffer) >= size * _MIN_RECORD_LANES:
        cut: list[bytes] = np.frombuffer(buffer, dtype=f"V{size}").tolist()
        return cut
    if not isinstance(buffer, bytes):
        buffer = bytes(buffer)
    return [buffer[i:i + size] for i in range(0, len(buffer), size)]


def block_frame_records(blocks: bytes | bytearray | memoryview,
                        frames: bytes | bytearray | memoryview
                        ) -> list[bytes]:
    """Each 64 B block joined to its 24 B frame: one 88 B record per block.

    Element ``i`` equals ``blocks[64*i:64*i+64] + frames[24*i:24*i+24]``,
    the whole input of block ``i``'s MAC after the domain tags, so the MAC
    kernel absorbs it in one ``update``.  The lanes lay the blocks and the
    frames side by side in one 2-D array and cut its rows.
    """
    count = len(blocks) // CACHE_LINE_SIZE
    if len(blocks) % CACHE_LINE_SIZE or len(frames) != FRAME_SIZE * count:
        raise ValueError(
            f"need {CACHE_LINE_SIZE} B of blocks and {FRAME_SIZE} B of "
            f"frames per record, got {len(blocks)} B and {len(frames)} B")
    if count >= _MIN_RECORD_LANES:
        joined = np.empty((count, BLOCK_RECORD_SIZE), dtype="u1")
        joined[:, :CACHE_LINE_SIZE] = np.frombuffer(
            blocks, dtype="u1").reshape(count, CACHE_LINE_SIZE)
        joined[:, CACHE_LINE_SIZE:] = np.frombuffer(
            frames, dtype="u1").reshape(count, FRAME_SIZE)
        cut: list[bytes] = joined.view(
            f"V{BLOCK_RECORD_SIZE}").ravel().tolist()
        return cut
    return list(map(add, records(blocks, CACHE_LINE_SIZE),
                    records(frames, FRAME_SIZE)))


def xor_bytes(a: bytes | bytearray | memoryview,
              b: bytes | bytearray | memoryview) -> bytes:
    """XOR two equal-length buffers (u64 lanes, or one big-int op).

    The counter-mode kernel: over a whole episode's concatenated blocks
    this is one vectorized pass instead of N per-block conversions.
    """
    if len(a) != len(b):
        raise ValueError(f"buffer lengths differ: {len(a)} != {len(b)}")
    if len(a) > 8 and len(a) % 8 == 0:
        return bytes((np.frombuffer(a, dtype="<u8")
                      ^ np.frombuffer(b, dtype="<u8")).tobytes())
    return (int.from_bytes(a, "little")
            ^ int.from_bytes(b, "little")).to_bytes(len(a), "little")
