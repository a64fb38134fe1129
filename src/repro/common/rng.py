"""Deterministic randomness helpers.

Every stochastic component (fill patterns, workload generators, adversaries)
takes an explicit seed and derives a private :class:`random.Random`, so whole
experiments are reproducible bit-for-bit.
"""

import hashlib
import random

DEFAULT_SEED = 0xC0FFEE

#: Annotation alias so simulator-core modules can type an RNG parameter
#: without importing :mod:`random` themselves (reprolint R1 bans the
#: import there; the instances always come from :func:`make_rng`).
Rng = random.Random

_SPREAD_SEPARATOR = b"\x1f"


def make_rng(seed: int | None = None) -> random.Random:
    """Return an isolated RNG; ``None`` selects the library default seed."""
    return random.Random(DEFAULT_SEED if seed is None else seed)


def spread_seed(master_seed: int | None, *labels: int | str) -> int:
    """Derive an independent stream seed from ``master_seed`` and labels.

    Naive derivations like ``master_seed + i`` collide across streams:
    ``(master=5, tenant=0)`` and ``(master=4, tenant=1)`` select the same
    RNG, so two "independent" tenants replay each other's traffic.  Hashing
    the whole ``(master_seed, *labels)`` tuple spreads every labelled
    stream to an unrelated 63-bit seed; equal inputs always map to the same
    seed, so derived streams stay reproducible.

    ``None`` selects :data:`DEFAULT_SEED`, mirroring :func:`make_rng`.
    Labels may be ints or strings; the framing is injective (a separator
    byte that cannot appear inside the decimal/utf-8 encodings).
    """
    if master_seed is None:
        master_seed = DEFAULT_SEED
    digest = hashlib.blake2b(digest_size=8)
    digest.update(str(int(master_seed)).encode("ascii"))
    for label in labels:
        digest.update(_SPREAD_SEPARATOR)
        digest.update(str(label).encode("utf-8"))
    return int.from_bytes(digest.digest(), "little") >> 1
