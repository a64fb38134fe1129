"""The crash matrix: every scheme × every fault class, classified.

For each scheme variant (the five paper schemes, plus the Horus schemes with
the rotated vault) and each fault class, one cell runs
fill → drain-under-fault → power restore → recover and classifies what the
system ends up believing (``recovered-exact`` / ``detected`` /
``lost-unprotected`` / ``silent-corruption`` — see
:mod:`repro.campaigns.classify` for the taxonomy; the matrix exists to keep
the silent column empty).

The episode machinery (patterned fill, clean-twin profiling, effective-write
fault targeting) and the classification path live in
:mod:`repro.campaigns.engine` now — the crash matrix is the campaign grid's
drain-stream fault column, restricted to the bare fill → drain episode
(``runtime=False``: no replay epoch between fill and crash).  This module
keeps the matrix-shaped API and re-exports the shared pieces so existing
callers and the fault-matrix tests see identical names and byte-identical
results.
"""

from dataclasses import dataclass

from repro.campaigns.classify import (
    DETECTED,
    LOST_UNPROTECTED,
    RECOVERED,
    SILENT,
)
from repro.campaigns.engine import (
    DRAIN_SEED,
    FILL_SEED,
    TORN_PREFIX,
    EpisodeProfile,
    fault_plan_for,
    fill_lines,
    profile_episode,
    run_fault_episode,
)
from repro.campaigns.scenarios import (
    FAULT_CLASSES,
    SCHEME_VARIANTS,
    variant_name,
)
from repro.common.config import SystemConfig

__all__ = [
    "DETECTED",
    "DRAIN_SEED",
    "FAULT_CLASSES",
    "FILL_SEED",
    "LOST_UNPROTECTED",
    "RECOVERED",
    "SCHEME_VARIANTS",
    "SILENT",
    "TORN_PREFIX",
    "EpisodeProfile",
    "MatrixCell",
    "fault_plan_for",
    "fill_lines",
    "profile_episode",
    "run_cell",
    "run_matrix",
    "variant_name",
]


@dataclass(frozen=True)
class MatrixCell:
    """One scheme-variant × fault-class outcome."""

    scheme: str
    fault: str
    outcome: str
    detail: str

    @property
    def silent(self) -> bool:
        return self.outcome == SILENT


def run_cell(config: SystemConfig, scheme: str, rotate_vault: bool,
             fault: str, lines: int) -> MatrixCell:
    """One matrix cell: fill → drain under the fault → recover → classify."""
    profile = profile_episode(config, scheme, rotate_vault, lines)
    outcome, detail = run_fault_episode(config, scheme, rotate_vault,
                                        fault, lines, profile)
    return MatrixCell(variant_name(scheme, rotate_vault), fault,
                      outcome, detail)


def run_matrix(config: SystemConfig, lines: int = 48,
               faults: tuple[str, ...] = FAULT_CLASSES,
               variants: tuple[tuple[str, bool], ...] = SCHEME_VARIANTS,
               ) -> list[MatrixCell]:
    """The full scheme-variant × fault-class matrix."""
    cells = []
    for scheme, rotate in variants:
        profile = profile_episode(config, scheme, rotate, lines)
        for fault in faults:
            outcome, detail = run_fault_episode(config, scheme, rotate,
                                                fault, lines, profile)
            cells.append(MatrixCell(variant_name(scheme, rotate), fault,
                                    outcome, detail))
    return cells
