"""Adversarial campaign engine: attacks × faults × recovery, classified.

The crash matrix (:mod:`repro.experiments.faults`) answers "does every scheme
survive every drain-stream *fault*?".  The campaign engine generalizes the
question to the full threat model of Section IV-A: an active adversary who
can tamper with, spoof, splice, replay, or roll back NVM blocks — data, MAC,
counter, CHV, or shadow-dump blocks — at any point of an episode's life
(mid replay epoch, mid drain, between crash and recovery, *during* recovery
via a nested power cut, or after recovery), against every scheme variant.

Every cell of the lattice runs a complete
fill → replay epoch → fault/attack → crash → restore → recover → read sweep
episode and classifies the end state with the same single classification
path the crash matrix uses (:mod:`repro.campaigns.classify`).  The hard
invariant the whole package exists to enforce: **no cell is ever
``silent-corruption``** — a scheme either returns bit-exact data or raises a
typed error; the only scheme allowed to lose data quietly is ``nosec``,
whose cells are pinned to ``lost-unprotected``.
"""

from repro.campaigns.classify import (
    DETECTED,
    LOST_UNPROTECTED,
    RECOVERED,
    SILENT,
    run_recovery_and_sweep,
)
from repro.campaigns.engine import (
    CAMPAIGN_LINES,
    DRAIN_SEED,
    FILL_SEED,
    CampaignCell,
    CampaignResult,
    CampaignSkip,
    EpisodeProfile,
    TORN_PREFIX,
    fault_plan_for,
    fill_lines,
    profile_episode,
    render_markdown,
    run_campaign,
    run_campaign_cell,
    run_fault_episode,
)
from repro.campaigns.scenarios import (
    DEFAULT_SCENARIOS,
    FAULT_CLASSES,
    MID_DRAIN,
    MID_RECOVERY,
    MID_REPLAY,
    POST_RECOVERY,
    PRE_RECOVERY,
    SCHEME_VARIANTS,
    WINDOWS,
    Scenario,
    applicability,
    variant_name,
)

__all__ = [
    "CAMPAIGN_LINES",
    "DEFAULT_SCENARIOS",
    "DETECTED",
    "DRAIN_SEED",
    "FAULT_CLASSES",
    "FILL_SEED",
    "LOST_UNPROTECTED",
    "MID_DRAIN",
    "MID_RECOVERY",
    "MID_REPLAY",
    "POST_RECOVERY",
    "PRE_RECOVERY",
    "RECOVERED",
    "SCHEME_VARIANTS",
    "SILENT",
    "TORN_PREFIX",
    "WINDOWS",
    "CampaignCell",
    "CampaignResult",
    "CampaignSkip",
    "EpisodeProfile",
    "Scenario",
    "applicability",
    "fault_plan_for",
    "fill_lines",
    "profile_episode",
    "render_markdown",
    "run_campaign",
    "run_campaign_cell",
    "run_fault_episode",
    "run_recovery_and_sweep",
    "variant_name",
]
