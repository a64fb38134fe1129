"""The single outcome-classification path for crash cells.

Both the crash matrix and the adversarial campaigns end every cell the same
way: recover (however the cell wants recovery driven), then sweep every line
the episode wrote and compare against the fill oracle.  Keeping one
implementation here is what makes the zero-silent-corruption invariant a
single predicate instead of several slightly different ones.

Outcomes (see :class:`repro.stats.events.CellOutcome`):

* ``recovered-exact`` — every line reads back bit-exact;
* ``detected`` — recovery or the sweep raised :class:`IntegrityError` /
  :class:`RecoveryError`: the system *knows* state was lost or tampered;
* ``lost-unprotected`` — data differs and the scheme is ``nosec`` (no
  integrity machinery; the paper's by-design non-goal);
* ``silent-corruption`` — a scheme that claims protection returned wrong
  bytes without raising.  Always a bug.
"""

from collections.abc import Callable

from repro.common.errors import IntegrityError, RecoveryError
from repro.core.system import SecureEpdSystem
from repro.stats.events import CellOutcome

RECOVERED = CellOutcome.RECOVERED.value
DETECTED = CellOutcome.DETECTED.value
LOST_UNPROTECTED = CellOutcome.LOST_UNPROTECTED.value
SILENT = CellOutcome.SILENT.value


def run_recovery_and_sweep(
    system: SecureEpdSystem,
    expected: dict[int, bytes],
    recover: Callable[[], object] | None = None,
    after_recover: Callable[[], None] | None = None,
) -> tuple[str, str]:
    """Drive recovery, sweep every expected line, classify; returns
    ``(outcome, detail)``.

    ``recover`` replaces the plain ``system.recover()`` call when the cell
    needs a richer recovery drive (the mid-recovery window's nested power
    cut); ``after_recover`` runs between a successful recovery and the read
    sweep (the post-recovery injection window).  The read sweep is a
    legitimate detection channel: Base-EU and nosec have no recovery step,
    so whatever they notice, they notice at first use.

    For ``nosec`` mismatches, the backend's ``attacked_blocks`` ledger (when
    non-empty) splits the detail into adversary-rewritten lines versus
    writes genuinely lost in flight — ``lost-unprotected`` covers both, but
    the forensics differ.
    """
    try:
        if recover is not None:
            recover()
        else:
            system.recover()
    except (IntegrityError, RecoveryError) as exc:
        return DETECTED, f"recover: {type(exc).__name__}: {exc}"

    if after_recover is not None:
        after_recover()

    mismatched: list[int] = []
    for address in sorted(expected):
        try:
            actual = system.read(address)
        except (IntegrityError, RecoveryError) as exc:
            return DETECTED, (f"read {address:#x}: "
                              f"{type(exc).__name__}: {exc}")
        if actual != expected[address]:
            mismatched.append(address)

    if mismatched:
        cells = ", ".join(f"{a:#x}" for a in mismatched[:4])
        detail = f"{len(mismatched)} wrong lines (first: {cells})"
        if system.scheme == "nosec":
            attacked = system.nvm.attacked_blocks
            if attacked:
                lost = {a for a, _ in system.nvm.lost_writes}
                n_attacked = sum(1 for a in mismatched if a in attacked)
                n_lost = sum(1 for a in mismatched
                             if a in lost and a not in attacked)
                detail += (f"; {n_attacked} attacked, "
                           f"{n_lost} lost in flight")
            return LOST_UNPROTECTED, detail
        return SILENT, detail
    return RECOVERED, "all lines bit-exact"
