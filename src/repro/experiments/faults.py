"""The crash matrix: every scheme × every fault class, classified.

For every scheme variant (the five paper schemes, plus the Horus schemes
with the rotated vault) × every fault class (power cut, torn write, dropped
write, bit flip), one matrix cell runs fill → drain-under-fault → power
restore → recover and classifies what the system ends up believing
(``recovered-exact`` / ``detected`` / ``lost-unprotected`` /
``silent-corruption`` — see :mod:`repro.campaigns.classify` for the
taxonomy; the matrix exists to keep the silent column empty).  The table is
the robustness counterpart to the performance figures: the paper's claim
that Horus "survives the worst moment" is only meaningful if an interrupted
episode is *detected*, never silently wrong.

The episode machinery (patterned fill, clean-twin profiling, effective-write
fault targeting) and the classification path are the campaign engine's
(:mod:`repro.campaigns.engine`): the crash matrix is the campaign grid's
drain-stream fault column, restricted to the bare fill → drain episode (no
replay epoch between fill and crash).

The episode is deliberately small (a few dozen dirty lines spanning several
CHV coalescing groups) so the 28-cell matrix stays fast at any ``--scale``;
the classification is scale-invariant — it only depends on where a fault
lands relative to the drain's write stream, which the matrix derives from a
clean twin run of the same seeds.
"""

from dataclasses import dataclass

from repro.campaigns.classify import (DETECTED, LOST_UNPROTECTED, RECOVERED,
                                      SILENT)
from repro.campaigns.engine import profile_episode, run_fault_episode
from repro.campaigns.scenarios import (FAULT_CLASSES, SCHEME_VARIANTS,
                                       variant_name)
from repro.common.config import SystemConfig
from repro.experiments.result import ExperimentResult, ShapeCheck
from repro.experiments.suite import DrainSuite

MATRIX_LINES = 48
"""Dirty lines per matrix episode: six full CHV address groups spanning a
partial DLM group, enough for every write class (data, address block, MAC
block, shadow, metadata) to appear mid-episode."""


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


def run_matrix(config: SystemConfig, lines: int = MATRIX_LINES,
               faults: tuple[str, ...] = FAULT_CLASSES,
               variants: tuple[tuple[str, bool], ...] = SCHEME_VARIANTS,
               ) -> list[MatrixCell]:
    """The scheme-variant × fault-class matrix (all of it by default)."""
    cells = []
    for scheme, rotate in variants:
        profile = profile_episode(config, scheme, rotate, lines)
        for fault in faults:
            outcome, detail = run_fault_episode(config, scheme, rotate,
                                                fault, lines, profile)
            cells.append(MatrixCell(variant_name(scheme, rotate), fault,
                                    outcome, detail))
    return cells


def run(suite: DrainSuite) -> ExperimentResult:
    """Crash matrix: scheme × fault class → outcome classification."""
    cells = run_matrix(suite.config())

    rows = [[cell.scheme, cell.fault, cell.outcome, cell.detail]
            for cell in cells]

    silent = [cell for cell in cells if cell.silent]
    secure = [cell for cell in cells if not cell.scheme.startswith("nosec")]
    nosec = [cell for cell in cells if cell.scheme.startswith("nosec")]
    horus = [cell for cell in cells if cell.scheme.startswith("horus")]
    checks = [
        ShapeCheck(
            "no scheme ever returns wrong data silently "
            "(zero silent-corruption cells)",
            not silent,
            f"{len(silent)} silent cells of {len(cells)}"),
        ShapeCheck(
            "every secure scheme detects or exactly recovers every "
            "fault class",
            all(c.outcome in (DETECTED, RECOVERED) for c in secure),
            f"{sum(c.outcome == DETECTED for c in secure)} detected / "
            f"{sum(c.outcome == RECOVERED for c in secure)} recovered "
            f"of {len(secure)} secure cells"),
        ShapeCheck(
            "non-secure EPD loses interrupted episodes unprotected "
            "(the Fig. 6 motivation)",
            all(c.outcome == LOST_UNPROTECTED for c in nosec),
            f"{sum(c.outcome == LOST_UNPROTECTED for c in nosec)} "
            f"of {len(nosec)} nosec cells"),
        ShapeCheck(
            "Horus detects every fault at recover(), before any state "
            "is trusted",
            all(c.outcome == DETECTED and c.detail.startswith("recover:")
                for c in horus),
            f"{sum(c.detail.startswith('recover:') for c in horus)} "
            f"of {len(horus)} Horus cells detected at recover()"),
    ]
    return ExperimentResult(
        experiment_id="ablation-faults",
        title="Crash/fault-injection matrix: scheme x fault class",
        headers=["scheme", "fault", "outcome", "detail"],
        rows=rows,
        paper_expectation="Section IV-C3 / Table on threat handling: an "
                          "interrupted drain episode is detected by MAC or "
                          "tree verification; only non-secure EPD loses "
                          "state silently",
        checks=checks,
    )
