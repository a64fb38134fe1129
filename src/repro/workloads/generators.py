"""Trace generators for the workload classes the paper motivates.

The paper's introduction names key-value stores, in-memory analytics,
transactional databases, and graph algorithms as the persistent-memory
applications EPD systems serve.  These generators synthesize block-granular
traces with the corresponding access shapes; they drive the run-time examples
and the crash-consistency integration tests.
"""

import random
from typing import Any, cast

from repro.common.constants import CACHE_LINE_SIZE
from repro.common.errors import ConfigError
from repro.common.rng import make_rng
from repro.workloads.trace import MemoryOp, OpKind


def _payload(rng: random.Random, tag: int) -> bytes:
    """A recognizable 64 B payload: an 8 B tag repeated, then noise."""
    head = tag.to_bytes(8, "little") * 4
    noise = rng.getrandbits(8 * 32).to_bytes(32, "little")
    return head + noise


def _check(footprint_blocks: int, num_ops: int) -> None:
    if footprint_blocks <= 0:
        raise ConfigError("footprint must be positive")
    if num_ops < 0:
        raise ConfigError("op count cannot be negative")


def kvstore_trace(num_ops: int, footprint_blocks: int,
                  write_fraction: float = 0.5, base: int = 0,
                  seed: int | None = None) -> list[MemoryOp]:
    """Key-value store: uniform point reads/updates over a keyspace.

    Each key occupies one line; updates rewrite the whole value (the common
    small-value KV pattern).
    """
    _check(footprint_blocks, num_ops)
    rng = make_rng(seed)
    trace: list[MemoryOp] = []
    for i in range(num_ops):
        key = rng.randrange(footprint_blocks)
        address = base + key * CACHE_LINE_SIZE
        if rng.random() < write_fraction:
            trace.append(MemoryOp(OpKind.WRITE, address, _payload(rng, key)))
        else:
            trace.append(MemoryOp(OpKind.READ, address))
    return trace


def analytics_scan_trace(num_passes: int, footprint_blocks: int,
                         base: int = 0,
                         update_every: int = 0,
                         seed: int | None = None) -> list[MemoryOp]:
    """In-memory analytics: sequential full-table scans, optionally with a
    sparse update sprinkled in every ``update_every`` blocks."""
    _check(footprint_blocks, num_passes)
    rng = make_rng(seed)
    trace: list[MemoryOp] = []
    for _ in range(num_passes):
        for block in range(footprint_blocks):
            address = base + block * CACHE_LINE_SIZE
            trace.append(MemoryOp(OpKind.READ, address))
            if update_every and block % update_every == update_every - 1:
                trace.append(MemoryOp(OpKind.WRITE, address,
                                      _payload(rng, block)))
    return trace


def graph_walk_trace(num_steps: int, footprint_blocks: int,
                     base: int = 0, locality: float = 0.8,
                     write_fraction: float = 0.2,
                     seed: int | None = None) -> list[MemoryOp]:
    """Graph traversal: a random walk where each step stays near the current
    vertex with probability ``locality`` and teleports otherwise (the
    power-law-ish mix of graph workloads)."""
    _check(footprint_blocks, num_steps)
    if not 0.0 <= locality <= 1.0:
        raise ConfigError("locality must be in [0, 1]")
    rng = make_rng(seed)
    current = 0
    trace: list[MemoryOp] = []
    for _ in range(num_steps):
        if rng.random() < locality:
            current = (current + rng.randrange(-8, 9)) % footprint_blocks
        else:
            current = rng.randrange(footprint_blocks)
        address = base + current * CACHE_LINE_SIZE
        if rng.random() < write_fraction:
            trace.append(MemoryOp(OpKind.WRITE, address,
                                  _payload(rng, current)))
        else:
            trace.append(MemoryOp(OpKind.READ, address))
    return trace


def transactional_trace(num_txns: int, footprint_blocks: int,
                        txn_size: int = 4, base: int = 0,
                        seed: int | None = None) -> list[MemoryOp]:
    """Transactional database: read-modify-write groups of ``txn_size``
    lines (each transaction reads its working set, then writes it)."""
    _check(footprint_blocks, num_txns)
    if txn_size <= 0:
        raise ConfigError("transaction size must be positive")
    rng = make_rng(seed)
    trace: list[MemoryOp] = []
    for _ in range(num_txns):
        blocks = [rng.randrange(footprint_blocks) for _ in range(txn_size)]
        for block in blocks:
            trace.append(MemoryOp(OpKind.READ,
                                  base + block * CACHE_LINE_SIZE))
        for block in blocks:
            trace.append(MemoryOp(OpKind.WRITE,
                                  base + block * CACHE_LINE_SIZE,
                                  _payload(rng, block)))
    return trace


def replay(system: Any, trace: list[MemoryOp], *,
           base: int = 0) -> dict[int, bytes]:
    """Run a trace against a :class:`~repro.core.system.SecureEpdSystem`.

    Returns the expected final content per written address — the oracle the
    crash-recovery integration tests compare against after recovery.  Each
    op is issued (and so validated by the system) at ``address - base``;
    the returned map keeps the trace's own addresses.
    """
    expected: dict[int, bytes] = {}
    for op in trace:
        if op.kind is OpKind.WRITE:
            system.write(op.address - base, op.data)
            expected[op.address] = cast(bytes, op.data)
        else:
            system.read(op.address - base)
    return expected
