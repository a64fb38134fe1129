"""Timed, accounted NVM device.

Every read and write goes through :class:`NvmDevice`, which records the
request in a :class:`~repro.stats.counters.SimStats` under the caller-supplied
kind.  The device itself has no notion of security — it is the untrusted side
of the paper's threat model, which is why the adversary in
:mod:`repro.attacks` manipulates the underlying backend directly, and why
fault injection (:mod:`repro.faults`) sits between the accounting and the
medium: the controller's view of a write and the cells' view can disagree,
and that disagreement is exactly what recovery must survive.
"""

from repro.common.constants import CACHE_LINE_SIZE
from repro.common.errors import AddressError
from repro.faults.plan import FaultPlan, PowerCut
from repro.mem.backend import SparseMemory
from repro.stats.counters import SimStats
from repro.stats.events import ReadKind, WriteKind


class NvmDevice:
    """A PCM DIMM: sparse backing store + request accounting."""

    def __init__(self, size: int, stats: SimStats | None = None):
        self._backend = SparseMemory(size)
        self.stats = stats if stats is not None else SimStats()
        self.wear = None
        """Optional :class:`~repro.mem.wear.WearTracker`; when attached,
        every accounted write also bumps the block's wear counter."""
        self.trace: list[tuple[int, bool]] | None = None
        """Optional request trace of (address, is_write) pairs; enable by
        assigning a list.  Consumed by the banked-memory queueing model.
        The trace records *requests*, so writes a fault plan loses still
        appear here — their indices are in :attr:`lost_writes`."""
        self.fault_plan: FaultPlan | None = None
        """Optional :class:`~repro.faults.plan.FaultPlan` filtering what the
        medium persists.  Accounting (stats, wear, trace) always records the
        attempt — the controller issued it; whether the cells saw it is the
        fault plan's business."""
        self.lost_writes: list[tuple[int, WriteKind]] = []
        """(address, kind) of every write a fault plan lost in flight."""

    @property
    def attacked_blocks(self) -> frozenset:
        """Addresses the adversary rewrote behind the controller's back
        (:meth:`~repro.mem.backend.SparseMemory.corrupt_block` ledger).
        Disjoint from :attr:`lost_writes` by construction: an attack is a
        write the controller never issued, a lost write is one it did."""
        return self._backend.attacked_blocks

    @property
    def size(self) -> int:
        return self._backend.size

    @property
    def backend(self) -> SparseMemory:
        """The raw store — used by recovery checks and by the adversary."""
        return self._backend

    @property
    def write_budget(self) -> int | None:
        """Fault injection shorthand: when set, only this many further
        writes reach the medium — later writes are lost in flight,
        modelling a hold-up source that dies mid-drain.  Backed by a
        :class:`~repro.faults.plan.PowerCut` fault plan; assign a plan to
        :attr:`fault_plan` directly for richer fault classes."""
        if self.fault_plan is None:
            return None
        return self.fault_plan.remaining_budget()

    @write_budget.setter
    def write_budget(self, budget: int | None) -> None:
        if budget is None:
            self.fault_plan = None
        else:
            self.fault_plan = FaultPlan([PowerCut(after_writes=budget)])

    def restore_power(self) -> FaultPlan | None:
        """Detach the fault plan (power restored / fault window over),
        giving unfired off-power faults their shot at the medium first.
        Returns the detached plan so callers can inspect its events."""
        plan, self.fault_plan = self.fault_plan, None
        if plan is not None:
            plan.finish(self._backend)
        return plan

    def read(self, address: int, kind: ReadKind) -> bytes:
        """Read one 64 B block, accounted under ``kind``."""
        if not isinstance(kind, ReadKind):
            raise AddressError(f"read kind must be a ReadKind, got {kind!r}")
        data = self._backend.read_block(address)
        self.stats.record_read(kind)
        if self.trace is not None:
            self.trace.append((address, False))
        return data

    def read_batch(self, addresses, kind: ReadKind) -> list[bytes]:
        """Read a batch of 64 B blocks, accounted under ``kind``.

        Identical to :meth:`read` per element; when a trace is attached the
        batch falls back to scalar issue so the request log keeps its
        per-request granularity, otherwise the stats update is folded into
        one counter bump.
        """
        if not isinstance(kind, ReadKind):
            raise AddressError(f"read kind must be a ReadKind, got {kind!r}")
        if self.trace is not None:
            return [self.read(address, kind) for address in addresses]
        data = self._backend.read_blocks(addresses)
        self.stats.record_read(kind, len(data))
        return data

    def write(self, address: int, data: bytes, kind: WriteKind) -> None:
        """Write one 64 B block, accounted under ``kind``.

        The accounting channels (stats, wear, trace) record every attempt
        identically whether or not a fault plan loses or corrupts it: the
        controller issued the request and the DIMM drew the energy, so the
        scheduler/banking views must agree with the counters.  Lost writes
        are additionally flagged in :attr:`lost_writes`.
        """
        if not isinstance(kind, WriteKind):
            raise AddressError(f"write kind must be a WriteKind, got {kind!r}")
        persisted: bytes | None = data
        if self.fault_plan is not None:
            old = self._backend.read_block(address)
            if not isinstance(data, bytes):
                data = bytes(data)  # fault events splice bytes, not views
            persisted = self.fault_plan.filter_write(address, data, old)
        if persisted is not None:
            self._backend.write_block(address, persisted)
        else:
            self.lost_writes.append((address, kind))
        self.stats.record_write(kind)
        if self.wear is not None:
            self.wear.record_write(address)
        if self.trace is not None:
            self.trace.append((address, True))

    def write_batch(self, items) -> None:
        """Write a batch of ``(address, data, kind)`` blocks in list order.

        Exactly :meth:`write` per item: stats, wear and trace see every
        request in order, and an attached fault plan filters each write
        individually (so a power cut mid-batch loses exactly the tail it
        would have lost under scalar issue).  The simulator's engines issue
        through :meth:`write` and :meth:`write_arena`; this entry point
        stays public because ``bench_e2e``'s per-layer tracer wraps it by
        name (``mem.batch_s``).
        """
        for address, data, kind in items:
            self.write(address, data, kind)

    @property
    def grouped_io(self) -> bool:
        """Whether arena-grouped issue is observationally equivalent.

        A fault plan or request trace needs to see every write
        individually and in program order; when either is attached the
        callers must fall back to per-request issue so those channels
        record exactly what scalar issue would have recorded.  Wear does not: a per-block write count
        is the same whatever order the writes land in, so
        :meth:`write_arena` records it per block on the grouped path too.
        """
        return self.fault_plan is None and self.trace is None

    def write_arena(self, addresses, buffer, kinds,
                    kind_counts=None) -> None:
        """Write blocks from one contiguous buffer (``buffer[64*i:]`` to
        ``addresses[i]``), accounted like :meth:`write` per element.

        ``kinds`` is either one :class:`WriteKind` for the whole batch or a
        per-element sequence; ``kind_counts`` (a ``{WriteKind: count}``
        mapping summing to ``len(addresses)``) optionally skips the
        counting pass.  When :attr:`grouped_io` is false the batch degrades
        to scalar issue in list order, so fault plans and traces observe
        the same per-request stream the scalar path would produce; an
        attached wear tracker counts every block either way.
        Callers whose scalar order interleaves this batch with other
        writes must check :attr:`grouped_io` themselves and take their
        scalar path when it is false.
        """
        count = len(addresses)
        single = isinstance(kinds, WriteKind)
        if not self.grouped_io:
            view = memoryview(buffer)
            for index, address in enumerate(addresses):
                offset = index * CACHE_LINE_SIZE
                self.write(address,
                           bytes(view[offset:offset + CACHE_LINE_SIZE]),
                           kinds if single else kinds[index])
            return
        if kind_counts is None:
            if single:
                kind_counts = {kinds: count}
            else:
                kind_counts = {}
                for kind in kinds:
                    kind_counts[kind] = kind_counts.get(kind, 0) + 1
        for kind in kind_counts:
            if not isinstance(kind, WriteKind):
                raise AddressError(
                    f"write kind must be a WriteKind, got {kind!r}")
        self._backend.write_arena(addresses, buffer)
        record = self.stats.record_write
        for kind, kind_count in kind_counts.items():
            record(kind, kind_count)
        if self.wear is not None:
            for address in addresses:
                self.wear.record_write(address)

    def read_arena(self, addresses, kind: ReadKind) -> bytes:
        """Read a batch into one contiguous buffer, accounted under ``kind``.

        Byte ``64*i .. 64*i+63`` is :meth:`read` of ``addresses[i]``; with
        a trace attached the batch falls back to scalar issue (the request
        log keeps per-request granularity), otherwise stats fold into one
        counter update.
        """
        if not isinstance(kind, ReadKind):
            raise AddressError(f"read kind must be a ReadKind, got {kind!r}")
        if self.trace is not None:
            return b"".join([self.read(address, kind)
                             for address in addresses])
        data = self._backend.read_arena(addresses)
        self.stats.record_read(kind, len(addresses))
        return data

    def account_reads(self, kind: ReadKind, count: int) -> None:
        """Account ``count`` reads served from a controller-held copy.

        A batched controller may satisfy a read from data it wrote earlier
        in the same grouped batch (the backend already persisted identical
        bytes); the device still counts the request.  Refused when a trace
        is attached — those reads must be issued individually so the
        request log stays complete.
        """
        if not isinstance(kind, ReadKind):
            raise AddressError(f"read kind must be a ReadKind, got {kind!r}")
        if self.trace is not None:
            raise AddressError(
                "account_reads cannot stand in for traced requests")
        self.stats.record_read(kind, count)

    def peek(self, address: int) -> bytes:
        """Read without accounting (simulator-internal inspection only)."""
        return self._backend.read_block(address)

    def poke(self, address: int, data: bytes) -> None:
        """Write without accounting (initialization / adversary)."""
        self._backend.write_block(address, data)
