"""Differential tests: the closed-form cost models vs the simulator.

For every scheme and several scales, the simulated drain episode must agree
with ``core/analytic.py`` — exactly for the Horus schemes (whose drain cost
is a pure function of the block count) and within the hard baseline bounds
for the rest.  This is the invariant the persistent result cache relies on:
a drain report is fully determined by (config, scheme, seeds), so caching
one can never change a downstream number.
"""

import pytest

from repro.core.analytic import (
    horus_drain_cost,
    validate_baseline_report,
    validate_horus_report,
)
from repro.experiments.suite import DrainSuite
from repro.stats.events import WriteKind

SCALES = (8, 16, 32)


@pytest.fixture(scope="module", params=SCALES, ids=lambda s: f"scale{s}")
def suite(request) -> DrainSuite:
    return DrainSuite(scale=request.param)


class TestHorusMatchesClosedForm:
    @pytest.mark.parametrize("scheme", ["horus-slm", "horus-dlm"])
    def test_operation_counts_match_exactly(self, suite, scheme):
        report = suite.drain(scheme)
        validate_horus_report(report)

    @pytest.mark.parametrize("scheme", ["horus-slm", "horus-dlm"])
    def test_write_breakdown_matches_exactly(self, suite, scheme):
        report = suite.drain(scheme)
        blocks = report.flushed_blocks + report.metadata_blocks
        cost = horus_drain_cost(blocks, double_level_mac=scheme == "horus-dlm")
        assert report.stats.writes[WriteKind.CHV_DATA] == cost.data_writes
        assert report.stats.writes[WriteKind.CHV_ADDRESS] == cost.address_writes
        assert report.stats.writes[WriteKind.CHV_MAC] == cost.mac_writes
        assert report.total_macs == cost.mac_computations
        assert report.stats.total_aes == cost.aes_operations
        assert report.total_reads == 0

    def test_dlm_pays_the_paper_mac_premium(self, suite):
        """DLM computes ceil(N/8) extra MACs over SLM for 8x fewer writes."""
        slm = suite.drain("horus-slm")
        dlm = suite.drain("horus-dlm")
        blocks = slm.flushed_blocks + slm.metadata_blocks
        assert dlm.total_macs - slm.total_macs == -(-blocks // 8)
        assert slm.stats.writes[WriteKind.CHV_MAC] \
            == -(-blocks // 8)
        assert dlm.stats.writes[WriteKind.CHV_MAC] \
            == -(-blocks // 64)


class TestBaselinesSatisfyBounds:
    @pytest.mark.parametrize("scheme", ["base-lu", "base-eu"])
    def test_baseline_invariants(self, suite, scheme):
        validate_baseline_report(suite.drain(scheme))


class TestNonSecureReference:
    def test_nosec_is_one_write_per_line_and_nothing_else(self, suite):
        report = suite.drain("nosec")
        assert report.total_writes == report.flushed_blocks
        assert report.metadata_blocks == 0
        assert report.total_reads == 0
        assert report.total_macs == 0
        assert report.stats.total_aes == 0
