"""The campaign engine: run one adversarial cell end to end, or the grid.

Every cell runs a complete episode —

    fill → replay epoch → [injection] → crash/drain → [injection]
         → power restore → [injection] → recover → [injection] → read sweep

— with exactly one scenario injected at exactly one window, then classifies
the end state through :mod:`repro.campaigns.classify`.  The crash matrix's
machinery (patterned fill, clean-twin episode profiling, fault plans) lives
here too; the crash matrix (:mod:`repro.experiments.faults`) runs on it, so
there is a single classification path for both suites.

Injection mechanics per window:

* **mid-replay** — the attack fires at the midpoint of the replay epoch's
  op stream.  At EPD scale the epoch's stores all land in the hierarchy
  (persistent-by-cache: no controller traffic), so the engine issues one
  probe read of a never-written line and arms the controller's ``op_hook``
  to fire the attack exactly when that read reaches the memory side.
* **mid-drain** — an :class:`~repro.faults.plan.AdversaryAt` timing hook
  pinned to the ``lines // 2``-th write of the drain's NVM stream (every
  drain persists at least ``lines`` blocks, so the hook always fires).
  Fault scenarios instead use the crash matrix's effective-write targeting
  from a clean twin profile.
* **pre-recovery** — between ``restore_power()`` and ``recover()``: the
  classic crash-to-recovery exposure the paper's Section IV-A calls out.
* **mid-recovery** — a recovery step hook performs the attack mid-restore
  and then raises :class:`~repro.faults.plan.PowerInterrupt` (a nested
  power cut); the engine drops volatile state and re-runs recovery, which
  must be idempotent from the persistent registers.
* **post-recovery** — after ``recover()`` returns, before the sweep.

``replay`` scenarios run a *double* episode: a first fill/crash/recover
round captures authentic vault or data blocks, which the attack later
re-injects into the second episode — the stale-but-authentic freshness
attack the persistent drain counters exist to defeat.
"""

from collections.abc import Callable, Sequence
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

from repro.attacks.adversary import Adversary
from repro.campaigns.classify import DETECTED, run_recovery_and_sweep
from repro.campaigns.scenarios import (
    DEFAULT_SCENARIOS,
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
from repro.common.config import SystemConfig
from repro.common.constants import CACHE_LINE_SIZE, MAC_SIZE
from repro.common.errors import ConfigError, IntegrityError, RecoveryError
from repro.core.chv import MAC_GROUP_DLM, MAC_GROUP_SLM, ChvLayout, VaultRotation
from repro.core.system import SecureEpdSystem
from repro.sharding.keys import TenantExtent, TenantKeyring, TenantKeySchedule
from repro.experiments.cache import ResultCache, campaign_cell_key
from repro.faults.plan import (
    AdversaryAt,
    BitFlip,
    DroppedWrite,
    Fault,
    FaultPlan,
    PowerCut,
    PowerInterrupt,
    TornWrite,
)

FILL_SEED = 11
DRAIN_SEED = 23

CAMPAIGN_LINES = 24
"""Default lines per campaign cell — spans several CHV coalescing groups
(including a partial SLM group) while keeping the 300+-cell grid fast."""

TORN_PREFIX = CACHE_LINE_SIZE // 2
"""Bytes a torn write persists (the first half-block)."""

_FILL_STRIDE = CACHE_LINE_SIZE * 64
_TAMPER_OFFSET = 7
_TAMPER_MASK = 0x40
_SPOOF_PAYLOAD = bytes((0xA5 ^ (i * 29)) & 0xFF for i in range(CACHE_LINE_SIZE))


# ---------------------------------------------------------------------------
# Fill / episode machinery (shared with the crash matrix)
# ---------------------------------------------------------------------------

def _build(config: SystemConfig, scheme: str, rotate_vault: bool,
           tenants: "tuple[TenantExtent, ...] | None" = None
           ) -> SecureEpdSystem:
    """One campaign system; ``tenants`` installs per-tenant key domains."""
    key_schedule = None
    if tenants is not None and scheme != "nosec":
        key_schedule = TenantKeySchedule(TenantKeyring(tenants))
    return SecureEpdSystem(config, scheme=scheme, rotate_vault=rotate_vault,
                           key_schedule=key_schedule)


def campaign_tenants(lines: int) -> tuple[TenantExtent, ...]:
    """The tenant-splice cells' two-tenant split of the filled range."""
    half = (lines // 2) * _FILL_STRIDE
    return (TenantExtent(0, 0, half),
            TenantExtent(1, half, (lines - lines // 2) * _FILL_STRIDE))


def _tenant_splice_attack(system: SecureEpdSystem, adversary: Adversary,
                          victim: int, pair: int) -> Callable[[], None]:
    """Transplant tenant A's block into tenant B's range (and vice versa).

    Swaps the two data blocks *and* their 8-byte MAC slots, so what lands
    in each range is an internally-consistent (ciphertext, MAC) pair that
    authentically belongs to the other tenant — the strongest relocation an
    off-chip attacker can stage without breaking a MAC.  Per-tenant keys
    (and the MAC's address binding) are what must reject it.
    """

    def attack() -> None:
        layout = system.layout
        adversary.splice(victim, pair)
        mac_victim = layout.mac_block_address(victim)
        mac_pair = layout.mac_block_address(pair)
        offset_victim = layout.mac_slot(victim) * MAC_SIZE
        offset_pair = layout.mac_slot(pair) * MAC_SIZE
        slot_victim = adversary.observe(mac_victim)[
            offset_victim:offset_victim + MAC_SIZE]
        slot_pair = adversary.observe(mac_pair)[
            offset_pair:offset_pair + MAC_SIZE]
        adversary.graft(mac_victim, slot_pair, offset_victim)
        adversary.graft(mac_pair, slot_victim, offset_pair)

    return attack


def _pattern(address: int) -> bytes:
    seed = (address * 2654435761) & 0xFFFFFFFF
    return bytes((seed >> (8 * (i % 4))) & 0xFF ^ (i * 37) & 0xFF
                 for i in range(CACHE_LINE_SIZE))


def _pattern2(address: int) -> bytes:
    """The replay epoch's second-generation content (distinct per line and
    distinct from :func:`_pattern`, so stale-version attacks are visible)."""
    seed = (address * 2246822519 + 0x61) & 0xFFFFFFFF
    return bytes((seed >> (8 * (i % 4))) & 0xFF ^ (i * 53) & 0xFF
                 for i in range(CACHE_LINE_SIZE))


def fill_lines(system: SecureEpdSystem, lines: int) -> dict[int, bytes]:
    """Write ``lines`` patterned cache lines; returns the crash oracle.

    The stride keeps the lines in distinct counter blocks so the episode
    carries a realistic amount of metadata, and the count is chosen by
    callers to span several CHV coalescing groups (including a partial one).
    """
    expected: dict[int, bytes] = {}
    for i in range(lines):
        address = i * _FILL_STRIDE
        data = _pattern(address)
        system.write(address, data)
        expected[address] = data
    return expected


class _EffectProbe(Fault):
    """Passive fault that records which writes actually change the medium.

    A drain can rewrite a block with the bytes it already holds (e.g. an
    in-place flush of a line an eviction persisted earlier); tearing or
    dropping such a write is a physical no-op.  The probe's twin run tells
    the matrix which write indices are *effective*, so every injected fault
    is guaranteed to matter.
    """

    name = "probe"

    def __init__(self, split: int):
        self.split = split
        self.changed: list[int] = []
        self.tail_changed: list[int] = []

    def apply(self, index: int, address: int, data: bytes,
              old: bytes) -> tuple[bytes | None, bool]:
        if data != old:
            self.changed.append(index)
        if data[self.split:] != old[self.split:]:
            self.tail_changed.append(index)
        return data, False


@dataclass(frozen=True)
class EpisodeProfile:
    """What the clean twin run of an episode looked like."""

    total_writes: int
    changed: tuple[int, ...]
    """Write indices whose data differed from the medium's old content."""
    tail_changed: tuple[int, ...]
    """Write indices whose *second half* differed (a half-block tear of
    these writes changes the persisted outcome)."""


def profile_episode(config: SystemConfig, scheme: str, rotate_vault: bool,
                    lines: int, runtime: bool = False) -> EpisodeProfile:
    """Run the clean twin episode and profile its NVM write stream.

    ``runtime=True`` includes the campaign's replay-epoch phase between
    fill and crash (campaign fault cells); the crash matrix profiles the
    bare fill → crash episode.
    """
    twin = _build(config, scheme, rotate_vault)
    expected = fill_lines(twin, lines)
    if runtime:
        _run_replay_epoch(twin, expected)
    probe = _EffectProbe(TORN_PREFIX)
    twin.nvm.fault_plan = FaultPlan([probe])
    twin.crash(seed=DRAIN_SEED)
    plan = twin.nvm.restore_power()
    assert plan is not None
    return EpisodeProfile(plan.writes_seen, tuple(probe.changed),
                          tuple(probe.tail_changed))


def _nearest(indices: tuple[int, ...], target: int, label: str) -> int:
    if not indices:
        raise RecoveryError(f"episode has no {label} writes to fault")
    return min(indices, key=lambda i: (abs(i - target), i))


def fault_plan_for(fault: str, profile: EpisodeProfile) -> FaultPlan:
    """A representative, guaranteed-effective mid-drain ``fault`` instance."""
    mid = profile.total_writes // 2
    if fault == "power-cut":
        # Cut just before an effective write, so at least one write that
        # mattered is lost along with the rest of the episode.
        return FaultPlan([PowerCut(
            after_writes=_nearest(profile.changed, mid, "effective"))])
    if fault == "torn-write":
        return FaultPlan([TornWrite(
            at_write=_nearest(profile.tail_changed, mid, "tail-effective"),
            persisted_bytes=TORN_PREFIX)])
    if fault == "dropped-write":
        return FaultPlan([DroppedWrite(
            at_write=_nearest(profile.changed, mid, "effective"))])
    if fault == "bit-flip":
        return FaultPlan([BitFlip(
            at_write=_nearest(profile.changed, mid, "effective"),
            byte_offset=_TAMPER_OFFSET, xor_mask=_TAMPER_MASK)])
    raise ValueError(f"unknown fault class {fault!r}")


# ---------------------------------------------------------------------------
# Cell / result records
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CampaignCell:
    """One (scheme variant, scenario, window) outcome."""

    scheme: str
    scenario: str
    window: str
    outcome: str
    detail: str

    @property
    def silent(self) -> bool:
        return self.outcome == "silent-corruption"


@dataclass(frozen=True)
class CampaignSkip:
    """One lattice combination that cannot physically run, and why."""

    scheme: str
    scenario: str
    window: str
    reason: str


@dataclass(frozen=True)
class CampaignResult:
    """The whole grid: every runnable cell plus every accounted skip."""

    cells: tuple[CampaignCell, ...]
    skips: tuple[CampaignSkip, ...]
    lines: int

    @property
    def lattice(self) -> int:
        """Total combinations enumerated (cells + skips)."""
        return len(self.cells) + len(self.skips)

    def silent_cells(self) -> tuple[CampaignCell, ...]:
        """The cells violating the zero-silent-corruption invariant."""
        return tuple(cell for cell in self.cells if cell.silent)

    def outcome_counts(self) -> dict[str, int]:
        counts: dict[str, int] = {}
        for cell in self.cells:
            counts[cell.outcome] = counts.get(cell.outcome, 0) + 1
        return counts


def render_markdown(result: CampaignResult) -> str:
    """Detection-coverage table, one row per cell."""
    rows = ["| scheme | scenario | window | outcome | detail |",
            "|---|---|---|---|---|"]
    for cell in result.cells:
        rows.append(f"| {cell.scheme} | {cell.scenario} | {cell.window} "
                    f"| {cell.outcome} | {cell.detail} |")
    return "\n".join(rows)


# ---------------------------------------------------------------------------
# Replay epoch (run-time phase) and the mid-replay injection
# ---------------------------------------------------------------------------

def _run_replay_epoch(system: SecureEpdSystem, expected: dict[int, bytes],
                      inject: Callable[[], None] | None = None) -> None:
    """Rewrite every filled line with second-generation content.

    Models the trace-replay epoch between two drains: stores land in the
    (persistent) hierarchy, interleaved with loads.  ``inject`` fires once
    at the stream's midpoint (the mid-replay window); ``expected`` is
    updated in place to the new oracle.
    """
    ops: list[tuple[str, int]] = []
    for i, address in enumerate(sorted(expected)):
        ops.append(("w", address))
        if i % 3 == 0:
            ops.append(("r", address))
    mid = len(ops) // 2
    lines = len(expected)
    for index, (kind, address) in enumerate(ops):
        if inject is not None and index == mid:
            _inject_mid_replay(system, inject, lines)
            inject = None
        if kind == "w":
            data = _pattern2(address)
            system.write(address, data)
            expected[address] = data
        else:
            system.read(address)
    if inject is not None:
        _inject_mid_replay(system, inject, lines)


def _probe_address(system: SecureEpdSystem, lines: int) -> int:
    """A data address the episode never wrote (guaranteed LLC miss)."""
    data = system.layout.data
    address = data.block_at((data.size // CACHE_LINE_SIZE) // 2)
    if address <= (lines - 1) * _FILL_STRIDE:
        raise ConfigError(
            "data region too small for a mid-replay probe read")
    return address


def _inject_mid_replay(system: SecureEpdSystem, attack: Callable[[], None],
                       lines: int) -> None:
    """Fire ``attack`` at the memory side, mid replay epoch.

    EPD means the epoch's stores persist in the cache — the controller sees
    no traffic — so the engine issues a probe read of a never-written line
    and uses the controller's ``op_hook`` to land the attack exactly when
    that read reaches the memory side.  For ``nosec`` (no controller) the
    attack fires directly; the medium is reachable at any time anyway.
    """
    controller = system.controller
    probe = _probe_address(system, lines)
    if controller is None:
        attack()
        system.read(probe)
        return
    fired: list[str] = []

    def hook(kind: str, address: int) -> None:
        if not fired:
            fired.append(kind)
            attack()

    controller.op_hook = hook
    try:
        system.read(probe)
    finally:
        controller.op_hook = None
    if not fired:
        attack()


# ---------------------------------------------------------------------------
# Attack construction
# ---------------------------------------------------------------------------

def _chv_slot_address(system: SecureEpdSystem, rotate_vault: bool,
                      position: int) -> int:
    """NVM address of the current episode's vault slot for ``position``.

    Derives the rotation exactly like the drain engine does — from the
    episode-start drain counter (``DC - eDC``) and the scheme's MAC
    coalescing group — so the attack lands on the block recovery will read.
    """
    dc = system.drain_counter
    if dc is None:
        raise ConfigError("CHV attacks require a Horus scheme")
    chv = ChvLayout.for_layout(system.layout)
    group = MAC_GROUP_DLM if system.scheme == "horus-dlm" else MAC_GROUP_SLM
    rotation = VaultRotation.for_episode(
        chv, dc.value - dc.ephemeral, rotate_vault, group_align=group)
    return chv.data_address(rotation.data_slot(position))


def _attack_targets(system: SecureEpdSystem, target: str, victim: int,
                    pair: int) -> tuple[int, int]:
    """The (primary, secondary) NVM addresses a non-CHV attack aims at."""
    layout = system.layout
    if target == "data":
        return victim, pair
    if target == "mac":
        address = layout.mac_block_address(victim)
        return address, address
    if target == "counter":
        address = layout.counter_block_address(victim)
        return address, address
    if target == "shadow":
        return layout.shadow.block_at(0), layout.shadow.block_at(1)
    raise ConfigError(f"unknown attack target {target!r}")


def _make_attack(system: SecureEpdSystem, adversary: Adversary,
                 scenario: Scenario, rotate_vault: bool,
                 targets: tuple[int, int], stale: bytes | None,
                 during_drain: bool) -> Callable[[], None]:
    """Bind one scenario to concrete block addresses as a zero-arg action.

    CHV slots are resolved lazily at fire time: during the drain the stream
    itself is advancing the counters, and between crash and recovery the
    persistent DC/eDC registers pin the episode's rotation — both exactly
    what a physical attacker watching the bus would reconstruct.
    """
    action = scenario.action

    def resolve() -> tuple[int, int]:
        if scenario.target == "chv":
            dc = system.drain_counter
            if dc is None:
                raise ConfigError("CHV attacks require a Horus scheme")
            # Position 0 is persisted first, so a mid-drain attack on it
            # always lands on already-vaulted state; after the crash the
            # episode's middle position is known from eDC.
            position = 0 if during_drain else dc.ephemeral // 2
            return (_chv_slot_address(system, rotate_vault, position),
                    _chv_slot_address(system, rotate_vault, position + 1))
        return targets

    def attack() -> None:
        primary, secondary = resolve()
        if action == "tamper":
            adversary.tamper(primary, byte_offset=_TAMPER_OFFSET,
                             xor_mask=_TAMPER_MASK)
        elif action == "spoof":
            adversary.spoof(primary, _SPOOF_PAYLOAD)
        elif action == "splice":
            adversary.splice(primary, secondary)
        elif action == "replay":
            if stale is None:
                raise ConfigError("replay attack without a captured block")
            adversary.replay(primary, stale)
        elif action == "rollback":
            adversary.rollback(primary)
        else:
            raise ConfigError(f"unknown attack action {action!r}")

    return attack


def _recovery_steps(system: SecureEpdSystem) -> int:
    """How many step-hook firings the pending recovery will produce."""
    dc = system.drain_counter
    if dc is not None:
        return dc.ephemeral
    controller = system.controller
    if controller is None:
        raise ConfigError("scheme has no recovery phase")
    return int(controller.shadow_count)


def _nested_cut_recover(system: SecureEpdSystem,
                        attack: Callable[[], None]) -> Callable[[], object]:
    """Recovery drive for the mid-recovery window.

    Halfway through the restore the attack runs against the medium and the
    power fails again (:class:`PowerInterrupt`).  The engine then drops the
    half-restored volatile state (:meth:`SecureEpdSystem.power_cycle`) and
    re-runs recovery from the persistent registers — which re-reads the now
    tampered NVM image, so re-recovery is where detection must happen.
    """

    def run() -> object:
        engine = system.recovery_engine
        if engine is None:
            raise ConfigError("mid-recovery window needs a recovery engine")
        step = _recovery_steps(system) // 2
        fired: list[int] = []

        def hook(position: int) -> None:
            if position == step and not fired:
                fired.append(position)
                attack()
                raise PowerInterrupt(
                    f"nested power cut at recovery step {position}")

        engine.step_hook = hook
        try:
            try:
                system.recover()
            except PowerInterrupt:
                pass
        finally:
            engine.step_hook = None
        if not fired:
            raise RecoveryError(
                f"recovery finished before step {step}; the nested power "
                f"cut never fired")
        system.power_cycle()
        return system.recover()

    return run


# ---------------------------------------------------------------------------
# Episode runners
# ---------------------------------------------------------------------------

def run_fault_episode(config: SystemConfig, scheme: str, rotate_vault: bool,
                      fault: str, lines: int, profile: EpisodeProfile,
                      runtime: bool = False) -> tuple[str, str]:
    """One drain-stream fault cell: the crash matrix's episode, classified.

    ``runtime=True`` is the campaign flavour (fill → replay epoch → faulted
    drain); the matrix runs the bare fill → faulted drain.  The profile
    must come from a twin with the same ``runtime`` setting.
    """
    system = _build(config, scheme, rotate_vault)
    expected = fill_lines(system, lines)
    if runtime:
        _run_replay_epoch(system, expected)
    system.nvm.fault_plan = fault_plan_for(fault, profile)
    system.crash(seed=DRAIN_SEED)
    plan = system.nvm.restore_power()
    assert plan is not None
    if not plan.events:
        raise RecoveryError(
            f"fault {fault!r} never fired for "
            f"{variant_name(scheme, rotate_vault)} "
            f"({plan.writes_seen} writes seen)")
    return run_recovery_and_sweep(system, expected)


def _run_attack_episode(config: SystemConfig, scheme: str,
                        rotate_vault: bool, scenario: Scenario, window: str,
                        lines: int) -> tuple[str, str]:
    """One adversarial cell: the full episode with the attack at ``window``."""
    if lines < 4:
        raise ConfigError("attack cells need at least 4 lines")
    tenant_cell = scenario.target == "tenant"
    system = _build(config, scheme, rotate_vault,
                    tenants=campaign_tenants(lines) if tenant_cell else None)
    adversary = Adversary(system.nvm)
    if tenant_cell:
        # Victim in tenant 0's half, pair in tenant 1's half.
        victim = (lines // 4) * _FILL_STRIDE
        pair = (lines // 2 + lines // 4) * _FILL_STRIDE
        targets = (victim, pair)
    else:
        victim = (lines // 2) * _FILL_STRIDE
        pair = (lines // 2 + 1) * _FILL_STRIDE
        targets = ((0, 0) if scenario.target == "chv"
                   else _attack_targets(system, scenario.target or "data",
                                        victim, pair))
    # Rollback point: the pre-episode content of the primary target.
    adversary.mark(targets[0])

    expected = fill_lines(system, lines)

    stale: bytes | None = None
    if scenario.action == "replay":
        # Episode one: crash, capture authentic blocks, recover cleanly.
        # The capture is stale the moment episode two overwrites the state;
        # persistent drain counters are what must notice re-injection.
        system.crash(seed=DRAIN_SEED)
        system.nvm.restore_power()
        if scenario.target == "chv":
            stale = adversary.snapshot(
                _chv_slot_address(system, rotate_vault, 0))
        else:
            stale = adversary.snapshot(targets[0])
        system.recover()

    if tenant_cell:
        attack = _tenant_splice_attack(system, adversary, victim, pair)
    else:
        attack = _make_attack(system, adversary, scenario, rotate_vault,
                              targets, stale,
                              during_drain=window == MID_DRAIN)

    # A mid-replay attack can be caught *at run time*: once the tampered
    # block is re-fetched by a later op of the same epoch, the controller
    # raises.  That is the strongest possible detection (before the crash,
    # not after), so the typed errors are a classification, not a failure.
    try:
        _run_replay_epoch(system, expected,
                          inject=attack if window == MID_REPLAY else None)
    except (IntegrityError, RecoveryError) as exc:
        return DETECTED, f"runtime: {type(exc).__name__}: {exc}"

    if window == MID_DRAIN:
        # Every drain persists at least ``lines`` blocks, so the hook is
        # guaranteed to fire mid-stream for every scheme — including the
        # replay scenarios' second episode, whose stream a clean twin of
        # the first episode would not predict.
        plan = FaultPlan([AdversaryAt(at_write=max(1, lines // 2),
                                      action=attack)])
        system.nvm.fault_plan = plan
    # Likewise the drain itself re-reads state the attack may have touched
    # (page re-encryption, tree updates): detection during the drain ends
    # the episode with the power still on.
    try:
        system.crash(seed=DRAIN_SEED)
    except (IntegrityError, RecoveryError) as exc:
        return DETECTED, f"drain: {type(exc).__name__}: {exc}"
    plan_back = system.nvm.restore_power()
    if window == MID_DRAIN:
        assert plan_back is not None
        if not plan_back.events:
            raise RecoveryError(
                f"mid-drain attack never fired for "
                f"{variant_name(scheme, rotate_vault)} "
                f"({plan_back.writes_seen} writes seen)")

    if window == PRE_RECOVERY:
        attack()
    recover: Callable[[], object] | None = None
    after: Callable[[], None] | None = None
    if window == MID_RECOVERY:
        recover = _nested_cut_recover(system, attack)
    elif window == POST_RECOVERY:
        after = attack
    return run_recovery_and_sweep(system, expected, recover=recover,
                                  after_recover=after)


def run_campaign_cell(config: SystemConfig, scheme: str, rotate_vault: bool,
                      scenario: Scenario, window: str,
                      lines: int = CAMPAIGN_LINES,
                      profile: EpisodeProfile | None = None) -> CampaignCell:
    """Run one applicable cell of the grid and classify it."""
    reason = applicability(scheme, scenario, window)
    if reason is not None:
        raise ConfigError(
            f"cell ({variant_name(scheme, rotate_vault)}, {scenario.name}, "
            f"{window}) is not applicable: {reason}")
    if scenario.kind == "fault":
        if profile is None:
            profile = profile_episode(config, scheme, rotate_vault, lines,
                                      runtime=True)
        outcome, detail = run_fault_episode(config, scheme, rotate_vault,
                                            scenario.action, lines, profile,
                                            runtime=True)
    else:
        outcome, detail = _run_attack_episode(config, scheme, rotate_vault,
                                              scenario, window, lines)
    return CampaignCell(variant_name(scheme, rotate_vault), scenario.name,
                        window, outcome, detail)


# ---------------------------------------------------------------------------
# The grid
# ---------------------------------------------------------------------------

def _run_cached_cell(config: SystemConfig, scheme: str, rotate_vault: bool,
                     scenario: Scenario, window: str, lines: int,
                     profile: EpisodeProfile | None,
                     cache: ResultCache | None) -> CampaignCell:
    key: str | None = None
    if cache is not None:
        key = campaign_cell_key(config, variant_name(scheme, rotate_vault),
                                scenario.name, window, lines,
                                FILL_SEED, DRAIN_SEED)
        hit = cache.get(key)
        if isinstance(hit, CampaignCell):
            return hit
    cell = run_campaign_cell(config, scheme, rotate_vault, scenario, window,
                             lines, profile)
    if cache is not None and key is not None:
        cache.put(key, cell)
    return cell


def _cell_task(config: SystemConfig, scheme: str, rotate_vault: bool,
               scenario: Scenario, window: str, lines: int,
               profile: EpisodeProfile | None,
               cache_spec: tuple[str, bool, bool] | None,
               ) -> tuple[CampaignCell, dict[str, int] | None]:
    """Worker-process entry: rebuild the cache from its spec, run a cell."""
    cache: ResultCache | None = None
    if cache_spec is not None:
        root, enabled, refresh = cache_spec
        cache = ResultCache(root=root, enabled=enabled, refresh=refresh)
    cell = _run_cached_cell(config, scheme, rotate_vault, scenario, window,
                            lines, profile, cache)
    counters = cache.counters() if cache is not None else None
    return cell, counters


def run_campaign(config: SystemConfig,
                 variants: Sequence[tuple[str, bool]] = SCHEME_VARIANTS,
                 scenarios: Sequence[Scenario] = DEFAULT_SCENARIOS,
                 windows: Sequence[str] = WINDOWS,
                 lines: int = CAMPAIGN_LINES,
                 jobs: int = 1,
                 cache: ResultCache | None = None) -> CampaignResult:
    """Run the full variants × scenarios × windows grid.

    Inapplicable combinations become accounted :class:`CampaignSkip`
    records, never silent drops: ``result.lattice`` always equals
    ``len(variants) * len(scenarios) * len(windows)``.  With ``jobs > 1``
    cells fan out over a process pool; ``cache`` (a
    :class:`~repro.experiments.cache.ResultCache`) makes re-runs
    incremental per cell.
    """
    tasks: list[tuple[str, bool, Scenario, str]] = []
    skips: list[CampaignSkip] = []
    for scheme, rotate in variants:
        for scenario in scenarios:
            for window in windows:
                reason = applicability(scheme, scenario, window)
                if reason is None:
                    tasks.append((scheme, rotate, scenario, window))
                else:
                    skips.append(CampaignSkip(
                        variant_name(scheme, rotate), scenario.name,
                        window, reason))

    # Fault cells share one clean twin profile per variant (runtime twin).
    profiles: dict[tuple[str, bool], EpisodeProfile] = {}
    for scheme, rotate, scenario, _window in tasks:
        if scenario.kind == "fault" and (scheme, rotate) not in profiles:
            profiles[(scheme, rotate)] = profile_episode(
                config, scheme, rotate, lines, runtime=True)

    cells: list[CampaignCell] = []
    if jobs > 1 and len(tasks) > 1:
        spec = (None if cache is None
                else (str(cache.root), cache.enabled, cache.refresh))
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            futures = [
                pool.submit(_cell_task, config, scheme, rotate, scenario,
                            window, lines, profiles.get((scheme, rotate)),
                            spec)
                for scheme, rotate, scenario, window in tasks
            ]
            for future in futures:
                cell, counters = future.result()
                cells.append(cell)
                if cache is not None and counters is not None:
                    getattr(cache, "absorb_counters")(counters)
    else:
        for scheme, rotate, scenario, window in tasks:
            cells.append(_run_cached_cell(
                config, scheme, rotate, scenario, window, lines,
                profiles.get((scheme, rotate)), cache))
    return CampaignResult(tuple(cells), tuple(skips), lines)
