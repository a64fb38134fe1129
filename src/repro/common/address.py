"""Address arithmetic helpers.

All simulator components deal in 64 B-aligned block addresses; these helpers
centralize alignment checks and block indexing so layout bugs surface as
:class:`~repro.common.errors.AlignmentError` rather than silent corruption.
"""

from repro.common.constants import CACHE_LINE_SIZE
from repro.common.errors import AlignmentError


def require_block_aligned(address: int, block_size: int = CACHE_LINE_SIZE) -> int:
    """Validate alignment, returning the address for fluent use."""
    if address < 0:
        raise AlignmentError(f"negative address {address:#x}")
    if address % block_size != 0:
        raise AlignmentError(
            f"address {address:#x} is not {block_size}-byte aligned"
        )
    return address


def block_index(address: int, block_size: int = CACHE_LINE_SIZE) -> int:
    """Return the block number containing ``address``."""
    return address // block_size
