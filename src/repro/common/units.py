"""Unit helpers: binary sizes and cycle/time conversions.

Keeping unit arithmetic in one place avoids the classic KB-vs-KiB and
cycles-vs-seconds mistakes in the timing model.
"""

from repro.common.constants import CORE_FREQUENCY_HZ

KiB = 1024
MiB = 1024 * KiB
GiB = 1024 * MiB


def kib(n: float) -> int:
    """Return ``n`` kibibytes in bytes."""
    return int(n * KiB)


def mib(n: float) -> int:
    """Return ``n`` mebibytes in bytes."""
    return int(n * MiB)


def gib(n: float) -> int:
    """Return ``n`` gibibytes in bytes."""
    return int(n * GiB)


def ns_to_cycles(ns: float, frequency_hz: int = CORE_FREQUENCY_HZ) -> int:
    """Convert nanoseconds to (rounded) core cycles at ``frequency_hz``."""
    return round(ns * 1e-9 * frequency_hz)


def cycles_to_seconds(cycles: float, frequency_hz: int = CORE_FREQUENCY_HZ) -> float:
    """Convert a cycle count to wall-clock seconds at ``frequency_hz``."""
    return cycles / frequency_hz


def format_bytes(n: int) -> str:
    """Render a byte count using the largest fitting binary unit."""
    if n % GiB == 0 and n >= GiB:
        return f"{n // GiB}GiB"
    if n % MiB == 0 and n >= MiB:
        return f"{n // MiB}MiB"
    if n % KiB == 0 and n >= KiB:
        return f"{n // KiB}KiB"
    return f"{n}B"
