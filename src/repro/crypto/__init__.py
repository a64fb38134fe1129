"""Crypto substrate: CME primitives, timed engines, split-counter functions
on counter-block ints, and the drain counter."""

from repro.crypto.counters import (
    DrainCounter,
    counter_for,
    increment,
    major,
    minor,
)
from repro.crypto.engine import AesEngine, MacEngine
from repro.crypto.primitives import (
    compute_mac,
    decrypt_block,
    encrypt_block,
    generate_pad,
    xor_block,
)

__all__ = [
    "DrainCounter",
    "counter_for",
    "increment",
    "major",
    "minor",
    "AesEngine",
    "MacEngine",
    "compute_mac",
    "decrypt_block",
    "encrypt_block",
    "generate_pad",
    "xor_block",
]
