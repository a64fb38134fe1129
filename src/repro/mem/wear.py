"""NVM write-endurance (wear) accounting.

PCM cells endure a bounded number of writes; the paper notes that security
metadata updates "can lead to significant increase in the number of memory
writes (and hence premature wear-out)" (Section II-D).  The tracker records
per-block write counts so experiments can compare how the drain schemes
distribute wear: baselines hammer the counter/tree/MAC regions, Horus
rewrites the CHV every episode.
"""

from collections import Counter
from dataclasses import dataclass

from repro.mem.regions import MemoryLayout


@dataclass(frozen=True)
class RegionWear:
    """Wear summary for one region."""

    region: str
    blocks_written: int
    total_writes: int
    max_writes_per_block: int

    @property
    def mean_writes_per_block(self) -> float:
        if self.blocks_written == 0:
            return 0.0
        return self.total_writes / self.blocks_written


class WearTracker:
    """Per-block write counters with region-level reporting."""

    def __init__(self, layout: MemoryLayout):
        self._layout = layout
        self._writes: Counter = Counter()

    def record_write(self, address: int) -> None:
        self._writes[address] += 1

    def counts(self) -> Counter:
        """A copy of the per-block write counts, for :meth:`rewind`."""
        return self._writes.copy()

    def rewind(self, counts: Counter) -> None:
        """Put the per-block write counts back to a :meth:`counts` copy."""
        self._writes = counts

    @property
    def total_writes(self) -> int:
        return sum(self._writes.values())

    def region_wear(self) -> list[RegionWear]:
        """Wear summary per layout region, ordered as the layout is."""
        per_region: dict[str, list[int]] = {
            region.name: [] for region in self._layout.regions}
        for address, count in self._writes.items():
            per_region[self._layout.classify(address)].append(count)
        return [
            RegionWear(
                region=name,
                blocks_written=len(counts),
                total_writes=sum(counts),
                max_writes_per_block=max(counts, default=0),
            )
            for name, counts in per_region.items()
        ]

    def wear_of(self, region_name: str) -> RegionWear:
        for wear in self.region_wear():
            if wear.region == region_name:
                return wear
        raise KeyError(region_name)
