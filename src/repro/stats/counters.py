"""Operation counters.

:class:`SimStats` accumulates every event the simulator performs, broken down
by kind.  It is deliberately dumb — pure counting — so that the timing and
energy models (which interpret the counts) stay separate and testable.
"""

from collections import Counter
from collections.abc import Iterable
from dataclasses import dataclass, field

from repro.stats.events import AesKind, MacKind, ReadKind, WriteKind


@dataclass
class SimStats:
    """Counts of memory requests and crypto operations, by kind."""

    reads: Counter[ReadKind] = field(default_factory=Counter)
    writes: Counter[WriteKind] = field(default_factory=Counter)
    macs: Counter[MacKind] = field(default_factory=Counter)
    aes: Counter[AesKind] = field(default_factory=Counter)

    # -- recording ------------------------------------------------------------

    # Zero counts are skipped, not added: ``Counter({k: 0}) != Counter()``,
    # and a batched caller recording an empty batch must stay
    # indistinguishable from a scalar caller that never called at all.

    def record_read(self, kind: ReadKind, count: int = 1) -> None:
        if count:
            self.reads[kind] += count

    def record_write(self, kind: WriteKind, count: int = 1) -> None:
        if count:
            self.writes[kind] += count

    def record_mac(self, kind: MacKind, count: int = 1) -> None:
        if count:
            self.macs[kind] += count

    def record_aes(self, kind: AesKind, count: int = 1) -> None:
        if count:
            self.aes[kind] += count

    # -- totals ---------------------------------------------------------------

    @property
    def total_reads(self) -> int:
        return sum(self.reads.values())

    @property
    def total_writes(self) -> int:
        return sum(self.writes.values())

    @property
    def total_memory_requests(self) -> int:
        """Reads + writes: the quantity Fig. 6 / Fig. 14 report."""
        return self.total_reads + self.total_writes

    @property
    def total_macs(self) -> int:
        """MAC computations: the quantity Fig. 13 / Fig. 15 report."""
        return sum(self.macs.values())

    @property
    def total_aes(self) -> int:
        return sum(self.aes.values())

    # -- composition ----------------------------------------------------------

    def merge(self, other: "SimStats") -> None:
        """Fold another stats object into this one in place."""
        self.reads.update(other.reads)
        self.writes.update(other.writes)
        self.macs.update(other.macs)
        self.aes.update(other.aes)

    def copy(self) -> "SimStats":
        out = SimStats()
        out.merge(self)
        return out

    def rewind(self, earlier: "SimStats") -> None:
        """Put the counts back to ``earlier`` (a :meth:`copy` taken before),
        in place: the engines and devices that record here keep this
        object."""
        self.reads.clear()
        self.writes.clear()
        self.macs.clear()
        self.aes.clear()
        self.merge(earlier)

    @classmethod
    def aggregate(cls, parts: Iterable["SimStats"]) -> "SimStats":
        """Fold many per-shard/per-episode stats into one fleet total.

        Pure composition of :meth:`merge` — order-independent, leaves the
        inputs untouched — so the aggregate of N shard runs equals the
        stats a single fused run would have recorded.
        """
        out = cls()
        for part in parts:
            out.merge(part)
        return out

    def diff(self, earlier: "SimStats") -> "SimStats":
        """Counts accumulated since ``earlier`` (an episode delta)."""
        out = SimStats()
        out.reads = self.reads - earlier.reads
        out.writes = self.writes - earlier.writes
        out.macs = self.macs - earlier.macs
        out.aes = self.aes - earlier.aes
        return out

    def snapshot(self) -> dict[str, object]:
        """Plain-dict view (stable keys) for reports and JSON dumps."""
        return {
            "reads": {str(k): v for k, v in sorted(self.reads.items(), key=lambda kv: kv[0].value)},
            "writes": {str(k): v for k, v in sorted(self.writes.items(), key=lambda kv: kv[0].value)},
            "macs": {str(k): v for k, v in sorted(self.macs.items(), key=lambda kv: kv[0].value)},
            "aes": {str(k): v for k, v in sorted(self.aes.items(), key=lambda kv: kv[0].value)},
            "total_memory_requests": self.total_memory_requests,
            "total_macs": self.total_macs,
        }
