"""Configuration dataclasses for the simulated system.

``SystemConfig.paper()`` reproduces Table I of the Horus paper exactly; tests
and benchmarks use ``SystemConfig.scaled()`` which shrinks memory and caches by
the same factor so that the memory-size / cache-size ratio — and therefore the
worst-case sparse-fill behaviour of the security metadata caches — is
preserved.
"""

from dataclasses import dataclass, field, replace

from repro.common.constants import (
    AES_LATENCY_CYCLES,
    CACHE_LINE_SIZE,
    CORE_FREQUENCY_HZ,
    HASH_LATENCY_CYCLES,
    MACS_PER_BLOCK,
    MERKLE_TREE_ARITY,
    NVM_READ_LATENCY_NS,
    NVM_WRITE_LATENCY_NS,
)
from repro.common.errors import ConfigError
from repro.common.units import gib, kib, mib


def _require_power_of_two(value: int, what: str) -> None:
    if value <= 0 or value & (value - 1):
        raise ConfigError(f"{what} must be a positive power of two, got {value}")


@dataclass(frozen=True)
class CacheConfig:
    """Geometry and latency of one set-associative cache."""

    name: str
    size: int
    ways: int
    latency_cycles: int
    line_size: int = CACHE_LINE_SIZE

    def __post_init__(self) -> None:
        _require_power_of_two(self.line_size, f"{self.name} line size")
        if self.size % (self.ways * self.line_size) != 0:
            raise ConfigError(
                f"{self.name}: size {self.size} not divisible by "
                f"ways*line ({self.ways}*{self.line_size})"
            )
        _require_power_of_two(self.num_sets, f"{self.name} set count")

    @property
    def num_lines(self) -> int:
        """Total number of lines the cache can hold."""
        return self.size // self.line_size

    @property
    def num_sets(self) -> int:
        """Number of sets (lines / associativity)."""
        return self.num_lines // self.ways


@dataclass(frozen=True)
class MemoryConfig:
    """NVM device geometry and timing."""

    size: int = gib(32)
    read_latency_ns: float = NVM_READ_LATENCY_NS
    write_latency_ns: float = NVM_WRITE_LATENCY_NS

    def __post_init__(self) -> None:
        if self.size <= 0 or self.size % CACHE_LINE_SIZE:
            raise ConfigError(f"memory size {self.size} must be a positive "
                              f"multiple of {CACHE_LINE_SIZE}")


@dataclass(frozen=True)
class SecurityConfig:
    """Secure-memory engine parameters (Table I, bottom section)."""

    aes_latency_cycles: int = AES_LATENCY_CYCLES
    hash_latency_cycles: int = HASH_LATENCY_CYCLES
    tree_arity: int = MERKLE_TREE_ARITY
    counter_cache_size: int = kib(256)
    counter_cache_ways: int = 8
    mac_cache_size: int = kib(512)
    mac_cache_ways: int = 8
    tree_cache_size: int = kib(256)
    tree_cache_ways: int = 8

    def __post_init__(self) -> None:
        if not 2 <= self.tree_arity <= MACS_PER_BLOCK:
            # A tree node is one 64 B block of MACS_PER_BLOCK child MACs.
            raise ConfigError(
                f"tree arity must be in 2..{MACS_PER_BLOCK}, got "
                f"{self.tree_arity}")


@dataclass(frozen=True)
class SystemConfig:
    """Complete simulated-system configuration."""

    l1: CacheConfig = field(
        default_factory=lambda: CacheConfig("L1", kib(64), 2, 2))
    l2: CacheConfig = field(
        default_factory=lambda: CacheConfig("L2", mib(2), 8, 20))
    llc: CacheConfig = field(
        default_factory=lambda: CacheConfig("LLC", mib(16), 16, 32))
    memory: MemoryConfig = field(default_factory=MemoryConfig)
    security: SecurityConfig = field(default_factory=SecurityConfig)
    frequency_hz: int = CORE_FREQUENCY_HZ

    def __post_init__(self) -> None:
        if not (self.l1.size <= self.l2.size <= self.llc.size):
            raise ConfigError("cache sizes must be monotone L1 <= L2 <= LLC")
        if self.llc.size * 4 > self.memory.size:
            raise ConfigError("memory must be at least 4x the LLC size")

    # -- canonical configurations -------------------------------------------

    @classmethod
    def paper(cls, llc_size: int = mib(16)) -> "SystemConfig":
        """Table I configuration; ``llc_size`` supports the Fig. 14-16 sweeps."""
        return cls(llc=CacheConfig("LLC", llc_size, 16, 32))

    @classmethod
    def scaled(cls, factor: int = 32,
               llc_size: int = mib(16)) -> "SystemConfig":
        """Paper configuration shrunk by ``factor`` (a power of two).

        Memory, caches, and metadata caches shrink together, preserving the
        sparse-fill stride ratio that drives the paper's worst case.
        ``llc_size`` is the pre-scaling LLC size (for the Fig. 14-16 sweeps).
        ``factor=1`` returns the paper configuration itself.
        """
        _require_power_of_two(factor, "scale factor")
        base = cls.paper(llc_size)
        security = replace(
            base.security,
            counter_cache_size=max(kib(4), base.security.counter_cache_size // factor),
            mac_cache_size=max(kib(4), base.security.mac_cache_size // factor),
            tree_cache_size=max(kib(4), base.security.tree_cache_size // factor),
        )
        return cls(
            l1=replace(base.l1, size=max(kib(1), base.l1.size // factor)),
            l2=replace(base.l2, size=max(kib(4), base.l2.size // factor)),
            llc=replace(base.llc, size=max(kib(8), base.llc.size // factor)),
            memory=replace(base.memory, size=base.memory.size // factor),
            security=security,
        )

    # -- derived quantities ---------------------------------------------------

    @property
    def cache_levels(self) -> tuple[CacheConfig, CacheConfig, CacheConfig]:
        return (self.l1, self.l2, self.llc)

    @property
    def total_cache_lines(self) -> int:
        """Worst-case number of dirty lines flushed on a crash.

        The paper's flushed-block total (295,936 for Table I) is the sum of
        line counts over all three levels — i.e. every line of every level is
        assumed dirty and individually flushed.
        """
        return sum(c.num_lines for c in self.cache_levels)

    @property
    def total_cache_size(self) -> int:
        return sum(c.size for c in self.cache_levels)

    @property
    def metadata_cache_size(self) -> int:
        sec = self.security
        return (sec.counter_cache_size + sec.mac_cache_size
                + sec.tree_cache_size)

    @property
    def worst_case_stride(self) -> int:
        """Fill stride for the paper's worst case (Section V-A: 16 KiB).

        Cache lines at a 16 KiB physical stride land in distinct 4 KiB
        counter-block regions, so every flushed line misses in the counter
        cache.  For configurations whose memory is too small to hold the
        whole hierarchy at 16 KiB spacing, we use the largest power-of-two
        stride that fits in half the memory (still >= the counter coverage
        whenever possible, preserving the worst-case behaviour).
        """
        target = kib(16)
        while target > CACHE_LINE_SIZE and target * self.total_cache_lines > self.memory.size // 2:
            target //= 2
        return target
