"""Contiguous buffer kernels for the epoch hot paths.

The batched engines in :mod:`repro.crypto.batch` removed the per-block
*crypto* overhead, but the surrounding plumbing still marshalled every
episode through lists of 64 B ``bytes`` objects: counter frames were built
one ``to_bytes`` concatenation at a time, address/MAC payload blocks were
``b"".join``-ed group by group, and ciphertext was split back into N
fresh objects just to be re-joined by the memory layer.  This module is
the shared substrate that removes those round-trips:

* ``pack_u64``/``unpack_u64``/``tile_u64`` convert between integer lanes
  and little-endian byte buffers in bulk (numpy u64 lanes where
  available, pure Python otherwise);
* ``frame_buffer`` assembles all 24 B (address, counter) hash frames of a
  batch as one contiguous buffer;
* ``xor_bytes`` is the counter-mode XOR kernel over whole buffers.

Every kernel is *value-transparent*: the numpy path and the pure-Python
path produce byte-identical output (property-tested against the scalar
primitives in ``tests/test_prop_arena.py``).  This is the only module
that imports numpy; :mod:`repro.cache.fill` and :mod:`repro.cache.cache`
reach it through :data:`_np` and :func:`arena_accelerated`, so a
numpy-less install takes the pure path everywhere.  Inputs that the u64
lanes cannot represent (counters at or above 2**64) transparently fall
back to the arbitrary-precision path.
"""

from collections.abc import Iterator, Sequence
from typing import Any

_np: Any
try:
    import numpy
except ImportError:  # pragma: no cover - numpy is an optional extra
    _np = None
else:
    _np = numpy

FRAME_SIZE = 24
"""One (address, counter) hash frame: 8 B address + 16 B counter."""

_U64_MAX = (1 << 64) - 1


def arena_accelerated() -> bool:
    """Whether the numpy u64 lanes are in use (numpy is importable)."""
    return _np is not None


def pack_u64(values: Sequence[int]) -> bytes:
    """``values`` as consecutive little-endian u64 lanes.

    Equals ``b"".join(v.to_bytes(8, "little") for v in values)``; values
    outside the u64 range fall back to the arbitrary-precision path
    (where they raise ``OverflowError`` exactly as ``to_bytes`` would).
    """
    if arena_accelerated() and len(values) > 1:
        try:
            return bytes(_np.asarray(values, dtype="<u8").tobytes())
        except (OverflowError, TypeError, ValueError):
            pass  # value outside u64 — the scalar path raises precisely
    return b"".join(value.to_bytes(8, "little") for value in values)


def unpack_u64(buffer: bytes | bytearray | memoryview) -> list[int]:
    """Little-endian u64 lanes back to a list of ints (pack_u64 inverse)."""
    if len(buffer) % 8:
        raise ValueError(f"buffer length {len(buffer)} not a multiple of 8")
    if arena_accelerated() and len(buffer) > 8:
        lanes: list[int] = _np.frombuffer(buffer, dtype="<u8").tolist()
        return lanes
    return [int.from_bytes(buffer[i:i + 8], "little")
            for i in range(0, len(buffer), 8)]


def tile_u64(values: Sequence[int], lanes: int) -> bytes:
    """Each value's 8 B little-endian form repeated ``lanes`` times.

    ``tile_u64([a], 8)`` is one 64 B pattern block; over a whole fill's
    address list it assembles every pattern payload in one pass.
    """
    if arena_accelerated() and len(values) > 1:
        try:
            return bytes(_np.repeat(
                _np.asarray(values, dtype="<u8"), lanes).tobytes())
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
    if arena_accelerated() and count > 1:
        try:
            frames = _np.zeros((count, 3), dtype="<u8")
            frames[:, 0] = _np.asarray(addresses, dtype="<u8")
            if isinstance(counters, range):
                if not (0 <= counters.start
                        and counters[-1] <= _U64_MAX
                        and counters[0] <= _U64_MAX):
                    raise OverflowError
                frames[:, 1] = _np.arange(
                    counters.start, counters.stop, counters.step,
                    dtype="<u8")
            else:
                frames[:, 1] = _np.asarray(counters, dtype="<u8")
            return bytes(frames.tobytes())
        except (OverflowError, TypeError, ValueError):
            pass  # counter/address outside u64 lanes
    return b"".join(
        address.to_bytes(8, "little") + counter.to_bytes(16, "little")
        for address, counter in zip(addresses, counters))


def frame_views(frames: bytes | memoryview,
                count: int) -> Iterator[memoryview]:
    """Zero-copy 24 B frame slices of a :func:`frame_buffer` result."""
    if len(frames) != FRAME_SIZE * count:
        raise ValueError(
            f"frame buffer must be {FRAME_SIZE} B per block, got "
            f"{len(frames)} B for {count} blocks")
    view = memoryview(frames)
    return (view[offset:offset + FRAME_SIZE]
            for offset in range(0, FRAME_SIZE * count, FRAME_SIZE))


def xor_bytes(a: bytes | bytearray | memoryview,
              b: bytes | bytearray | memoryview) -> bytes:
    """XOR two equal-length buffers (u64 lanes, or one big-int op).

    The counter-mode kernel: over a whole episode's concatenated blocks
    this is one vectorized pass instead of N per-block conversions.
    """
    if len(a) != len(b):
        raise ValueError(f"buffer lengths differ: {len(a)} != {len(b)}")
    if arena_accelerated() and len(a) > 8 and len(a) % 8 == 0:
        return bytes((_np.frombuffer(a, dtype="<u8")
                      ^ _np.frombuffer(b, dtype="<u8")).tobytes())
    return (int.from_bytes(a, "little")
            ^ int.from_bytes(b, "little")).to_bytes(len(a), "little")
