"""Epoch-batched trace replay.

:func:`replay` is a drop-in for :func:`repro.workloads.generators.replay`
(same ``expected`` return value, same observable system state afterwards)
that slices the trace into epochs and executes each epoch in three fused
steps instead of two Python calls per op:

1. :meth:`~repro.cache.hierarchy.CacheHierarchy.replay_epoch` runs the whole
   epoch through the caches in one pass, deferring the memory side into an
   op-ordered ``mem_ops`` stream with :class:`~repro.cache.hierarchy.PendingFill`
   markers standing in for fetched payloads;
2. the memory side executes the stream batched —
   :meth:`~repro.secure.controller.SecureMemoryController.run_ops_batch`
   amortizes pad generation and MAC computation across the epoch (non-secure
   systems group the stream into :class:`~repro.mem.nvm.NvmDevice` batch
   calls);
3. :meth:`~repro.cache.hierarchy.CacheHierarchy.resolve_pending` swaps each
   marker for its fetched payload.

Because the memory-side stream is issued in exactly the order the scalar
replay would issue it, every observable — NVM image, SimStats counters,
cache hit/miss/LRU state, metadata caches, lost writes — is byte-identical
to scalar replay; ``REPRO_ORACLE`` episodes run both and compare
(:func:`repro.core.oracle.run_replay_differential`).

Accounting side channels the grouped paths cannot reproduce exactly
(request traces, fault plans) force the scalar path, as do
non-inclusive hierarchies and systems that lack the batch hooks entirely
(:class:`~repro.stats.runtime.RuntimePerfModel` accepts bare test doubles).
"""

import time
from typing import Any, cast

from repro.common.errors import ConfigError
from repro.common.gcpause import collector_paused
from repro.stats.events import ReadKind, WriteKind
from repro.workloads.generators import replay as scalar_replay
from repro.workloads.trace import MemoryOp, OpKind

DEFAULT_EPOCH_OPS = 4096
"""Trace ops per fused epoch: big enough to amortize the batched crypto
kernels, small enough that an epoch's deferred fills stay cache-resident."""


def _eligible(system: Any, batched: bool | None) -> bool:
    """Whether ``system`` can take the epoch-batched path."""
    if batched is None:
        batched = getattr(system, "batched", False)
    if not batched:
        return False
    hierarchy = getattr(system, "hierarchy", None)
    if hierarchy is None or not getattr(hierarchy, "inclusive", False) \
            or not hasattr(hierarchy, "replay_epoch"):
        return False
    if getattr(system, "layout", None) is None:
        return False
    nvm = getattr(system, "nvm", None)
    return nvm is not None and nvm.grouped_io


def _run_plain(nvm: Any, mem_ops: "list[tuple[str, int, bytes | None]]") \
        -> "list[bytes | None]":
    """Non-secure memory side: the grouped-NVM equivalent of the per-line
    fetch/writeback pair a nosec ``SecureEpdSystem`` attaches to its
    hierarchy.

    Returns the epoch's fetch results only, in op order — the
    fill-aligned stream ``resolve_pending`` consumes directly (writes
    produce no result, so there is nothing to filter out afterwards).
    """
    fetched: list[bytes | None] = []
    pos = 0
    total = len(mem_ops)
    while pos < total:
        kind = mem_ops[pos][0]
        stop = pos
        while stop < total and mem_ops[stop][0] == kind:
            stop += 1
        if kind == "r":
            addresses = [mem_ops[i][1] for i in range(pos, stop)]
            fetched.extend(nvm.read_batch(addresses, ReadKind.DATA))
        else:
            # Eligibility guarantees grouped_io (no trace or fault plan),
            # so the run lands as one arena write: same image, same folded
            # stats and wear, no per-op tuple stream.
            addresses = [mem_ops[i][1] for i in range(pos, stop)]
            buffer = b"".join(cast(bytes, mem_ops[i][2])
                              for i in range(pos, stop))
            nvm.write_arena(addresses, buffer, WriteKind.DATA)
        pos = stop
    return fetched


@collector_paused()
def replay(system: Any, trace: "list[MemoryOp]", *,
           epoch_ops: int = DEFAULT_EPOCH_OPS,
           batched: bool | None = None) -> dict[int, bytes]:
    """Run a trace against a system, epoch-batched when possible.

    Returns the expected final content per written address, exactly as
    :func:`repro.workloads.generators.replay` does.  ``batched`` defaults to
    the system's own ``batched`` setting (the differential oracle passes an
    explicit value per side); ineligible systems fall back to the scalar
    loop.  Each unique address is validated once — validation carries no
    accounting, so the per-op re-validation of the scalar path is not an
    observable.
    """
    if epoch_ops <= 0:
        raise ConfigError("epoch_ops must be positive")
    if not _eligible(system, batched):
        return scalar_replay(system, trace)

    hierarchy = system.hierarchy
    controller = getattr(system, "controller", None)
    nvm = system.nvm
    require = system.layout.require_data_address
    write_kind = OpKind.WRITE
    for address in {op.address for op in trace}:
        require(address)
    ops_buf: list[tuple[str, int, bytes | None]] = [
        ("w", op.address, op.data) if op.kind is write_kind
        else ("r", op.address, None)
        for op in trace]
    expected: dict[int, bytes] = {
        op.address: cast(bytes, op.data)
        for op in trace if op.kind is write_kind}

    # Sub-phase spans for --profile timelines: the cache-model, memory-side,
    # and marker-resolution shares of the replay wall, accumulated across
    # epochs and recorded as three aggregate spans (placed back to back from
    # the loop's start).  Timer reads are skipped entirely when no capture
    # is active.
    from repro.experiments.profile import capturing, record_span
    profiled = capturing()
    cache_s = mem_s = resolve_s = 0.0
    loop_start = time.perf_counter() if profiled else 0.0
    t0 = t1 = 0.0

    for start in range(0, len(ops_buf), epoch_ops):
        if profiled:
            t0 = time.perf_counter()
        mem_ops, fills = hierarchy.replay_epoch(
            ops_buf[start:start + epoch_ops])
        if profiled:
            t1 = time.perf_counter()
            cache_s += t1 - t0
        if controller is not None:
            fetched = controller.run_ops_batch(mem_ops, fetches=True)
        else:
            fetched = _run_plain(nvm, mem_ops)
        if profiled:
            t0 = time.perf_counter()
            mem_s += t0 - t1
        hierarchy.resolve_pending(fills, fetched)
        if profiled:
            resolve_s += time.perf_counter() - t0
    if profiled:
        record_span("cache:replay", cache_s, loop_start)
        record_span("mem:replay", mem_s, loop_start + cache_s)
        record_span("resolve:replay", resolve_s,
                    loop_start + cache_s + mem_s)
    return expected
