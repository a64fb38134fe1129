"""Memory traces: the unit of run-time workload replay.

A trace is a sequence of block-granular reads and writes against the data
region.  The generators in :mod:`repro.workloads.generators` produce traces
mimicking the application classes the paper's introduction motivates
(key-value stores, in-memory analytics, graph algorithms).
"""

from dataclasses import dataclass
from enum import Enum

from repro.common.constants import CACHE_LINE_SIZE
from repro.common.errors import AlignmentError


class OpKind(Enum):
    READ = "read"
    WRITE = "write"


@dataclass(frozen=True, slots=True)
class MemoryOp:
    """One trace record.

    Slotted: traces run to hundreds of thousands of ops, and slots keep
    each one a single small object with no ``__dict__`` to build.
    """

    kind: OpKind
    address: int
    data: bytes | None = None

    def __post_init__(self) -> None:
        if self.address % CACHE_LINE_SIZE:
            raise AlignmentError(
                f"trace address {self.address:#x} not line aligned")
        if self.kind is OpKind.WRITE and (
                self.data is None or len(self.data) != CACHE_LINE_SIZE):
            raise AlignmentError("trace write payload must be one full line")


@dataclass(frozen=True)
class TraceSummary:
    """Aggregate shape of a trace (used by tests and example output)."""

    num_ops: int
    num_reads: int
    num_writes: int
    footprint_blocks: int

    @property
    def write_fraction(self) -> float:
        return self.num_writes / self.num_ops if self.num_ops else 0.0


def summarize(trace: list[MemoryOp]) -> TraceSummary:
    """Compute the summary of a trace held as a list."""
    writes = sum(1 for op in trace if op.kind is OpKind.WRITE)
    return TraceSummary(
        num_ops=len(trace),
        num_reads=len(trace) - writes,
        num_writes=writes,
        footprint_blocks=len({op.address for op in trace}),
    )
