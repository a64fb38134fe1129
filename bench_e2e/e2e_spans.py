"""In-memory span recorder for the end-to-end benchmark's traced passes.

A span is one call of a wrapped function: its name, start and end
(``time.perf_counter`` seconds) and the index of the span that was open
when it started (its parent; -1 for a root).  Spans are kept in flat
arrays so that a traced runner pass, which opens a few million of them,
costs tens of megabytes rather than hundreds.

The simulator carries no instrumentation: :meth:`SpanRecorder.installed`
patches wrappers onto classes, modules and registries from outside for
the duration of a ``with`` block and restores the originals afterwards.
Wrappers keep a strict call stack, so children never overlap and never
outlive their parent; a span's *self time* is its duration minus its
direct children's durations, and the self times of every span under a
root add up to the root's duration.
"""

import functools
import json
import time
from array import array
from collections.abc import Callable, Iterable, Iterator
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Any

_MISSING = object()


class SpanRecorder:
    """Records nested spans of wrapped calls; see the module docstring."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self._clock = clock
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_ids = array("l")
        self.parents = array("l")
        self.starts = array("d")
        self.ends = array("d")
        self._stack = [-1]

    def __len__(self) -> int:
        return len(self.starts)

    def clear(self) -> None:
        """Drop every recorded span (wrappers stay bound to this recorder)."""
        for column in (self.name_ids, self.parents, self.starts, self.ends):
            del column[:]

    def _intern(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _open(self, name_id: int) -> int:
        index = len(self.starts)
        self.name_ids.append(name_id)
        self.parents.append(self._stack[-1])
        self.ends.append(0.0)
        self._stack.append(index)
        self.starts.append(self._clock())
        return index

    def _close(self, index: int) -> None:
        self.ends[index] = self._clock()
        self._stack.pop()

    def wrap(self, fn: Callable[..., Any], name: str) -> Callable[..., Any]:
        """``fn`` with every call recorded as a span called ``name``.

        Do not wrap a function that returns a generator: its work runs
        when the caller consumes it, after the span has closed.
        """
        name_id = self._intern(name)
        open_span = self._open
        close_span = self._close

        @functools.wraps(fn)
        def spanned(*args: Any, **kwargs: Any) -> Any:
            index = open_span(name_id)
            try:
                return fn(*args, **kwargs)
            finally:
                close_span(index)

        return spanned

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        """Record the body of a ``with`` block as one span."""
        index = self._open(self._intern(name))
        try:
            yield
        finally:
            self._close(index)

    @contextmanager
    def installed(self, targets: Iterable[tuple[str, Any, str]]) \
            -> Iterator[None]:
        """Wrap each ``(span name, owner, attribute)`` for the block.

        ``owner`` is a class, a module, or a dict (a registry such as the
        runner's experiment table).  A class attribute the class only
        inherits is set on the class and deleted again afterwards, so the
        base class stays untouched.
        """
        undo: list[Callable[[], None]] = []
        try:
            for name, owner, attr in targets:
                undo.append(self._patch(name, owner, attr))
            yield
        finally:
            for restore in reversed(undo):
                restore()

    def _patch(self, name: str, owner: Any, attr: str) -> Callable[[], None]:
        if isinstance(owner, dict):
            original = owner[attr]
            owner[attr] = self.wrap(original, name)

            def restore_item() -> None:
                owner[attr] = original
            return restore_item
        own = vars(owner).get(attr, _MISSING)
        setattr(owner, attr, self.wrap(getattr(owner, attr), name))

        def restore_attr() -> None:
            if own is _MISSING:
                delattr(owner, attr)
            else:
                setattr(owner, attr, own)
        return restore_attr

    # -- reading spans ----------------------------------------------------

    def totals(self, root: str) -> "SpanTotals":
        """Per-name self and total seconds of the spans under ``root``
        spans (spans outside every ``root`` are ignored)."""
        names = self.names
        name_ids = self.name_ids
        parents = self.parents
        starts = self.starts
        ends = self.ends
        root_id = self._ids.get(root, -1)
        count = len(starts)
        inside = bytearray(count)
        own = array("d", bytes(8 * count))
        for index in range(count):
            parent = parents[index]
            if name_ids[index] == root_id:
                inside[index] = 1
            elif parent < 0 or not inside[parent]:
                continue
            inside[index] = 1
            duration = ends[index] - starts[index]
            own[index] += duration
            if parent >= 0 and inside[parent]:
                own[parent] -= duration
        self_s: dict[str, float] = {}
        total_s: dict[str, float] = {}
        for index in range(count):
            if inside[index]:
                name = names[name_ids[index]]
                self_s[name] = self_s.get(name, 0.0) + own[index]
                total_s[name] = (total_s.get(name, 0.0)
                                 + ends[index] - starts[index])
        return SpanTotals(self_s, total_s)

    def child_durations(self, parent_name: str, child_name: str) \
            -> list[float]:
        """Durations of ``child_name`` spans opened directly under a
        ``parent_name`` span, in call order."""
        parent_id = self._ids.get(parent_name, -1)
        child_id = self._ids.get(child_name, -1)
        name_ids = self.name_ids
        return [end - start
                for name_id, start, end, parent in zip(
                    name_ids, self.starts, self.ends, self.parents)
                if name_id == child_id and parent >= 0
                and name_ids[parent] == parent_id]

    def write_jsonl(self, path: str) -> None:
        """A header line ``{"names": [...]}``, then one line per span:
        ``[name index, start, end, parent index]`` (a traced runner pass
        has millions of spans, so names are not repeated per line)."""
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(json.dumps({"names": self.names}) + "\n")
            for name_id, start, end, parent in zip(
                    self.name_ids, self.starts, self.ends, self.parents):
                handle.write(f"[{name_id}, {start!r}, {end!r}, {parent}]\n")


@dataclass(frozen=True)
class SpanTotals:
    """Self and total (inclusive) seconds per span name."""

    self_s: dict[str, float]
    total_s: dict[str, float]

    def own(self, *names: str) -> float:
        """Summed self seconds of the named spans (0 for unseen names)."""
        return sum(self.self_s.get(name, 0.0) for name in names)

    def total(self, *names: str) -> float:
        """Summed inclusive seconds of the named spans."""
        return sum(self.total_s.get(name, 0.0) for name in names)
