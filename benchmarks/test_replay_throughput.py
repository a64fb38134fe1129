"""Honest wall-clock benchmark of epoch-batched trace replay.

The acceptance gate for the batched runtime engine: replaying a 100k-op
YCSB-A trace (working set twice the LLC) on horus-dlm at 1/128 scale must
be at least 2.75x faster epoch-batched than scalar — while producing a
byte-identical NVM image and identical SimStats counters, cache hit rates,
and access mix.

The floor is the noise-safe edge of the measured speedup (2.9x with the
lane cache model driving the replay core; interleaved min/min
wobbles by roughly 5% between runs on a loaded machine).  Raise it when
the measured ratio moves, never ahead of it.  The remaining wall splits
roughly 0.13s cache / 0.10s mem / 0.03s other per 100k ops on the
reference machine: the mem share is semantic crypto (BLAKE2b digests and
the arena pad/MAC kernels) and the cache share is ~850k intrinsic C-dict
operations, which bounds the pure-Python ratio near 3x — the original 10x
target needs a compiled cache core, not more Python.

Scalar and batched rounds are interleaved (each round times both back to
back) and compared min/min, so transient background load lands on both
sides and cancels out of the ratio.

``REPRO_BENCH_GATE=0`` downgrades the speedup assertion to a report-only
print — the CI pure-python job (no numpy installed) uses it to publish the
pure-Python ratio without gating on it (the fallback trades the numpy
decomposition for per-op divmods and is expected to sit below the
accelerated floor).
Byte-identity is asserted unconditionally; the knob only relaxes speed.
"""

import os
import time

from repro.common.config import SystemConfig
from repro.core.system import SecureEpdSystem
from repro.workloads.replay import replay
from benchmarks.bench_runner import REPLAY_ROUNDS, replay_trace

CONFIG = SystemConfig.scaled(128)
SCHEME = "horus-dlm"
REPLAY_SPEEDUP_FLOOR = 2.75


def _observe(system: SecureEpdSystem) -> dict:
    return {
        "image": system.nvm.backend.image(),
        "stats": system.stats.snapshot(),
        "access": dict(system.hierarchy.access_counts),
        "levels": [(level.name, level.hits, level.misses)
                   for level in system.hierarchy.levels],
        "lost": list(system.nvm.lost_writes),
    }


def test_batched_replay_speedup_and_byte_identity():
    trace = replay_trace(CONFIG)
    walls = {False: float("inf"), True: float("inf")}
    observed = {}
    for _ in range(REPLAY_ROUNDS):
        for batched in (False, True):
            system = SecureEpdSystem(CONFIG, scheme=SCHEME,
                                     batched=batched)
            start = time.perf_counter()
            expected = replay(system, trace, batched=batched)
            walls[batched] = min(walls[batched],
                                 time.perf_counter() - start)
            observed[batched] = (len(expected), _observe(system))

    for field in observed[False][1]:
        assert observed[True][1][field] == observed[False][1][field], (
            f"batched replay diverged from scalar on {field!r}")
    assert observed[True][0] == observed[False][0]

    speedup = walls[False] / walls[True]
    message = (
        f"{SCHEME}: batched replay {speedup:.2f}x faster than scalar "
        f"(scalar {walls[False] * 1e3:.0f} ms, "
        f"batched {walls[True] * 1e3:.0f} ms)")
    if os.environ.get("REPRO_BENCH_GATE", "1") == "0":
        print(f"\n[report-only] {message}")
        return
    assert speedup >= REPLAY_SPEEDUP_FLOOR, message
