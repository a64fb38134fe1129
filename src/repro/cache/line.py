"""Cache line representation."""

from dataclasses import dataclass

from repro.common.constants import CACHE_LINE_SIZE


@dataclass(slots=True)
class CacheLine:
    """One 64 B line: tag address, payload, and dirty state.

    ``data`` may be ``None`` when the simulation runs in counting-only
    (non-functional) mode; all bookkeeping still works.
    """

    address: int
    data: bytes | None = None
    dirty: bool = False

    def __post_init__(self) -> None:
        if self.data is not None and len(self.data) != CACHE_LINE_SIZE:
            raise ValueError(
                f"cache line payload must be {CACHE_LINE_SIZE} B, "
                f"got {len(self.data)}")
