"""Keep CPython's cyclic garbage collector off the simulator's bulk phases.

A fill, drain, recovery, epoch replay, or trace split allocates hundreds of
thousands of container objects (cache lines, trace ops, payload tuples).
Every 700 net allocations start a young collection, every tenth of those
an older one, and every tenth of *those* becomes a full collection once
the objects that survived since the last full pass exceed a quarter of
the long-lived heap — a threshold a bulk phase crosses again and again,
so it pays repeated traversals of the simulator's whole live heap.  Those
collections find nothing: the simulator creates no reference cycles on
these paths (``tests/test_gc_hygiene.py`` holds it to that), so reference
counting alone frees everything they allocate, and pausing the collector
changes host time only, never a simulated output.
"""

import gc
from collections.abc import Iterator
from contextlib import contextmanager


@contextmanager
def collector_paused() -> Iterator[None]:
    """Disable the cyclic collector for the duration of the block.

    The caller's state is restored on exit, normal or exceptional.  When
    the collector is already disabled (by the caller, or by an enclosing
    pause) this does nothing, so nested use keeps the outermost owner in
    charge of re-enabling it.  Being a :func:`contextlib.contextmanager`,
    ``@collector_paused()`` also works as a decorator.
    """
    if not gc.isenabled():
        yield
        return
    gc.disable()
    try:
        yield
    finally:
        gc.enable()
