"""Operation counters."""

from repro.stats.counters import SimStats
from repro.stats.events import AesKind, MacKind, ReadKind, WriteKind


class TestRecording:
    def test_starts_empty(self):
        stats = SimStats()
        assert stats.total_reads == 0
        assert stats.total_writes == 0
        assert stats.total_macs == 0
        assert stats.total_aes == 0

    def test_record_read_by_kind(self):
        stats = SimStats()
        stats.record_read(ReadKind.COUNTER)
        stats.record_read(ReadKind.COUNTER)
        stats.record_read(ReadKind.TREE_NODE)
        assert stats.reads[ReadKind.COUNTER] == 2
        assert stats.reads[ReadKind.TREE_NODE] == 1
        assert stats.total_reads == 3

    def test_record_with_count(self):
        stats = SimStats()
        stats.record_write(WriteKind.CHV_DATA, 100)
        assert stats.total_writes == 100

    def test_total_memory_requests_sums_reads_and_writes(self):
        stats = SimStats()
        stats.record_read(ReadKind.DATA, 3)
        stats.record_write(WriteKind.DATA, 5)
        assert stats.total_memory_requests == 8

    def test_macs_and_aes_are_not_memory_requests(self):
        stats = SimStats()
        stats.record_mac(MacKind.VERIFY, 10)
        stats.record_aes(AesKind.ENCRYPT, 10)
        assert stats.total_memory_requests == 0
        assert stats.total_macs == 10
        assert stats.total_aes == 10


class TestComposition:
    def _sample(self) -> SimStats:
        stats = SimStats()
        stats.record_read(ReadKind.COUNTER, 2)
        stats.record_write(WriteKind.DATA, 3)
        stats.record_mac(MacKind.DATA_PROTECT, 4)
        stats.record_aes(AesKind.DECRYPT, 5)
        return stats

    def test_merge_accumulates(self):
        a, b = self._sample(), self._sample()
        a.merge(b)
        assert a.total_reads == 4
        assert a.total_writes == 6
        assert b.total_reads == 2  # b untouched

    def test_copy_is_independent(self):
        a = self._sample()
        b = a.copy()
        b.record_read(ReadKind.DATA)
        assert a.total_reads == 2
        assert b.total_reads == 3

    def test_diff_isolates_an_episode(self):
        stats = self._sample()
        before = stats.copy()
        stats.record_write(WriteKind.CHV_DATA, 7)
        stats.record_mac(MacKind.CHV_DATA, 7)
        episode = stats.diff(before)
        assert episode.total_writes == 7
        assert episode.writes[WriteKind.CHV_DATA] == 7
        assert episode.writes[WriteKind.DATA] == 0
        assert episode.total_macs == 7

    def test_diff_of_identical_stats_is_empty(self):
        stats = self._sample()
        episode = stats.diff(stats.copy())
        assert episode.total_memory_requests == 0
        assert episode.total_macs == 0

    def test_aggregate_equals_sequential_merge(self):
        parts = [self._sample(), SimStats(), self._sample()]
        parts[1].record_write(WriteKind.CHV_MAC, 9)
        merged = SimStats()
        for part in parts:
            merged.merge(part)
        total = SimStats.aggregate(parts)
        assert total.snapshot() == merged.snapshot()
        assert SimStats.aggregate(reversed(parts)).snapshot() == \
            merged.snapshot()
        assert parts[0].snapshot() == self._sample().snapshot()

    def test_aggregate_of_nothing_is_empty(self):
        assert SimStats.aggregate([]).snapshot() == SimStats().snapshot()


class TestSnapshot:
    def test_snapshot_has_stable_string_keys(self):
        stats = SimStats()
        stats.record_read(ReadKind.CHV, 2)
        stats.record_write(WriteKind.CHV_MAC, 1)
        snap = stats.snapshot()
        assert snap["reads"] == {"chv": 2}
        assert snap["writes"] == {"chv_mac": 1}
        assert snap["total_memory_requests"] == 3
