"""Golden drain operation counts, pinned and cross-checked.

Drain episodes are deterministic in their operation counters (reads,
writes, MACs, AES ops are seed-independent; only write *order* varies with
the drain seed), so the exact per-scheme counters at three hierarchy
scales are committed as ``tests/golden/drain_op_counts.json``.  Any change
— a batching rewrite, a scheme tweak, a stats-accounting slip — shows up
as a byte-level fixture diff that has to be reviewed and regenerated
deliberately:

    REPRO_REGOLDEN=1 PYTHONPATH=src python -m pytest tests/test_golden_opcounts.py

Each entry also pins the sha256 of the NVM image the drain leaves
(``nvm_image_sha256``), and the two baseline entries at 1/128 pin the
request trace of the same episode run with a trace attached
(``request_trace_sha256``), which forces the controller's scalar path.
Counts and result text alone cannot catch a change that the scalar and
batched paths share: what the drain writes, and in which order, can.

Every episode then recovers, and where the scheme has a recovery (Base-LU's
shadow dump, Horus's vault) its operation counts are pinned as
``recovery_stats``.  ``base-lu-osiris`` is Base-LU with Osiris stop-loss
counter recovery (``osiris_stop_loss=8``, as ``ablation-availability`` runs
it), so a recovery that skips or doubles a counter read shows up here too.

The fixture is additionally cross-checked against the closed forms in
:mod:`repro.core.analytic`: Horus episodes must match ``horus_drain_cost``
exactly, baseline episodes must satisfy its hard invariants — so a
regeneration can never silently commit numbers the paper's model rejects.
"""

import hashlib
import json
import os
from pathlib import Path

import pytest

from repro.common.config import SystemConfig
from repro.core.analytic import horus_drain_cost
from repro.core.system import SCHEMES, SecureEpdSystem
from repro.experiments.suite import DRAIN_SEED, FILL_SEED
from repro.sharding.system import nvm_image_sha256

GOLDEN_PATH = Path(__file__).parent / "golden" / "drain_op_counts.json"
SCALES = (512, 256, 128)
OSIRIS = "base-lu-osiris"
EPISODES = SCHEMES + (OSIRIS,)
TRACED = ((128, "base-lu"), (128, "base-eu"))
"""Episodes whose request trace is pinned too: the baseline drains, whose
metadata walk the scalar spec and the batched segment share."""


def episode_counts(scale: int, scheme: str, *, traced: bool = False) -> dict:
    if scheme == OSIRIS:
        system = SecureEpdSystem(SystemConfig.scaled(scale), scheme="base-lu",
                                 osiris_stop_loss=8)
    else:
        system = SecureEpdSystem(SystemConfig.scaled(scale), scheme=scheme)
    system.fill_worst_case(seed=FILL_SEED)
    if traced:
        system.nvm.trace = []
    report = system.crash(seed=DRAIN_SEED)
    counts = {
        "flushed_blocks": report.flushed_blocks,
        "metadata_blocks": report.metadata_blocks,
        "cycles": report.cycles,
        "stats": report.stats.snapshot(),
        "nvm_image_sha256": nvm_image_sha256(system),
    }
    if traced:
        counts["request_trace_sha256"] = trace_sha256(system.nvm.trace)
    recovery = system.recover()
    if recovery is not None:
        counts["recovery_stats"] = recovery.stats.snapshot()
    return counts


def trace_sha256(trace: list[tuple[int, bool]]) -> str:
    """Hash of a request trace: per request, its 8-byte little-endian
    address and one byte for read (0) or write (1)."""
    digest = hashlib.sha256()
    for address, is_write in trace:
        digest.update(address.to_bytes(8, "little"))
        digest.update(b"\1" if is_write else b"\0")
    return digest.hexdigest()


def current_counts() -> dict:
    counts = {str(scale): {scheme: episode_counts(scale, scheme)
                           for scheme in EPISODES}
              for scale in SCALES}
    for scale, scheme in TRACED:
        counts[str(scale)][scheme]["request_trace_sha256"] = episode_counts(
            scale, scheme, traced=True)["request_trace_sha256"]
    return counts


@pytest.fixture(scope="module")
def golden() -> dict:
    if os.environ.get("REPRO_REGOLDEN") == "1":
        counts = current_counts()
        GOLDEN_PATH.parent.mkdir(exist_ok=True)
        GOLDEN_PATH.write_text(
            json.dumps(counts, indent=2, sort_keys=True) + "\n")
    return json.loads(GOLDEN_PATH.read_text())


class TestGoldenOpCounts:
    @pytest.mark.parametrize("scale", SCALES)
    @pytest.mark.parametrize("scheme", EPISODES)
    def test_simulator_matches_fixture(self, golden, scale, scheme):
        expected = dict(golden[str(scale)][scheme])
        expected.pop("request_trace_sha256", None)
        assert episode_counts(scale, scheme) == expected, (
            f"{scheme}@1/{scale} drifted from the committed counters; "
            f"if intentional, regenerate with REPRO_REGOLDEN=1")

    @pytest.mark.parametrize(("scale", "scheme"), TRACED)
    def test_traced_drain_matches_fixture(self, golden, scale, scheme):
        """The scalar path (a trace forces it) leaves the pinned counters
        and image, and issues the pinned requests in the pinned order."""
        assert episode_counts(scale, scheme, traced=True) == \
            golden[str(scale)][scheme], (
            f"traced {scheme}@1/{scale} drifted from the fixture; "
            f"if intentional, regenerate with REPRO_REGOLDEN=1")

    @pytest.mark.parametrize("scale", SCALES)
    @pytest.mark.parametrize("scheme", ["horus-slm", "horus-dlm"])
    def test_fixture_matches_closed_form(self, golden, scale, scheme):
        """The committed Horus counters satisfy the Section IV formula."""
        entry = golden[str(scale)][scheme]
        blocks = entry["flushed_blocks"] + entry["metadata_blocks"]
        cost = horus_drain_cost(blocks, double_level_mac="dlm" in scheme)
        stats = entry["stats"]
        assert sum(stats["writes"].values()) == cost.total_writes
        assert sum(stats["macs"].values()) == cost.mac_computations
        assert sum(stats["aes"].values()) == cost.aes_operations
        assert stats["reads"] == {}

    @pytest.mark.parametrize("scale", SCALES)
    @pytest.mark.parametrize("scheme", ["base-lu", "base-eu"])
    def test_fixture_satisfies_baseline_invariants(self, golden, scale,
                                                   scheme):
        entry = golden[str(scale)][scheme]
        flushed = entry["flushed_blocks"]
        stats = entry["stats"]
        assert stats["writes"].get("data", 0) == flushed
        assert sum(stats["writes"].values()) >= flushed
        assert sum(stats["macs"].values()) >= flushed
        assert stats["aes"].get("encrypt", 0) >= flushed

    def test_scales_are_monotonic(self, golden):
        """Sanity: a larger hierarchy never drains with fewer operations."""
        for scheme in SCHEMES:
            totals = [sum(golden[str(scale)][scheme]["stats"]
                          ["writes"].values())
                      for scale in SCALES]  # SCALES is largest divisor first
            assert totals == sorted(totals)
