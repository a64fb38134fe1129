"""Fault injection and crash-consistency harness.

:mod:`repro.faults.plan` defines the fault classes (power cut, torn write,
dropped write, bit flip) and the :class:`~repro.faults.plan.FaultPlan` that
applies them to the NVM write path.  The campaign engine
(:mod:`repro.campaigns`) injects them, and the ``ablation-faults``
experiment (:mod:`repro.experiments.faults`) runs the scheme × fault crash
matrix, classifying each cell as recovered-exact, detected,
lost-unprotected, or silent-corruption.
"""

from repro.faults.plan import (BitFlip, DroppedWrite, Fault, FaultEvent,
                               FaultPlan, PowerCut, TornWrite)

__all__ = [
    "BitFlip",
    "DroppedWrite",
    "Fault",
    "FaultEvent",
    "FaultPlan",
    "PowerCut",
    "TornWrite",
]
