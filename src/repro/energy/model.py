"""Drain-episode energy model (Section V-G).

Energy during draining has four contributors in the paper: processor energy,
NVM writes, NVM reads, and secure operations; the paper measures the last to
be negligible and excludes it, which we mirror.  Processor energy is power x
drain time with the constant drain-mode power derived from the paper's own
Table II (see DESIGN.md).
"""

from dataclasses import dataclass

from repro.common.constants import (
    NVM_READ_ENERGY_J,
    NVM_WRITE_ENERGY_J,
    PROCESSOR_DRAIN_POWER_W,
)
from repro.epd.drain import DrainReport


@dataclass(frozen=True)
class EnergyBreakdown:
    """Joules per contributor for one drain episode (Table II rows)."""

    scheme: str
    processor_j: float
    nvm_write_j: float
    nvm_read_j: float

    @property
    def total_j(self) -> float:
        return self.processor_j + self.nvm_write_j + self.nvm_read_j


class EnergyModel:
    """Maps a drain report to its energy breakdown."""

    def __init__(self,
                 processor_power_w: float = PROCESSOR_DRAIN_POWER_W,
                 write_energy_j: float = NVM_WRITE_ENERGY_J,
                 read_energy_j: float = NVM_READ_ENERGY_J) -> None:
        if min(processor_power_w, write_energy_j, read_energy_j) < 0:
            raise ValueError("energy parameters must be non-negative")
        self.processor_power_w = processor_power_w
        self.write_energy_j = write_energy_j
        self.read_energy_j = read_energy_j

    def breakdown(self, report: DrainReport) -> EnergyBreakdown:
        return EnergyBreakdown(
            scheme=report.scheme,
            processor_j=self.processor_power_w * report.seconds,
            nvm_write_j=self.write_energy_j * report.total_writes,
            nvm_read_j=self.read_energy_j * report.total_reads,
        )
