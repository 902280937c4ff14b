"""Span recording around the program's public functions, and the ledger.

The benchmark measures every layer from outside: :class:`Recorder`
wraps public functions and methods of the program (module attributes
and class attributes, restored on :meth:`Recorder.uninstall`) so each
call becomes one span ``(id, parent, op, name, start, end, attrs)``.
No span API of the program is used.

Spans nest by call: a per-thread stack gives each span its parent.  A
thread with an empty stack falls back to the main thread's innermost
span, so work a pool thread does for a blocked caller nests under it.
A process forked while a span is open inherits the stack; its spans are
appended to a per-process file in ``spill_dir`` as each top-level call
in that process ends, and :meth:`Recorder.collect_spills` folds them in
once the workers have exited.
"""

from __future__ import annotations

import functools
import json
import os
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Iterable


@dataclass
class Span:
    id: int
    parent: int | None
    op: int | None
    name: str
    start: float
    end: float = 0.0
    attrs: dict[str, Any] = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start

    def to_dict(self) -> dict[str, Any]:
        return {
            "id": self.id,
            "parent": self.parent,
            "op": self.op,
            "name": self.name,
            "start": self.start,
            "end": self.end,
            "attrs": self.attrs,
        }

    @classmethod
    def from_dict(cls, data: dict[str, Any]) -> "Span":
        return cls(**data)


class Recorder:
    """In-memory span recorder plus the patches that feed it."""

    def __init__(self, spill_dir: Path):
        self.spans: list[Span] = []
        self.spill_dir = Path(spill_dir)
        self._next_id = 1
        self._local = threading.local()
        self._main_stack: list[Span] = []
        self._local.stack = self._main_stack
        self._child_base_depth: int | None = None
        self._spill_buffer: list[Span] = []
        self._patches: list[tuple[Any, str, Any]] = []
        self._lock = threading.Lock()
        os.register_at_fork(after_in_child=self._after_fork_in_child)

    # -- span lifecycle ---------------------------------------------------
    def _stack(self) -> list[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def open(self, name: str, **attrs: Any) -> Span:
        stack = self._stack()
        outer = stack[-1] if stack else (self._main_stack[-1] if self._main_stack else None)
        with self._lock:
            span_id = self._next_id
            self._next_id += 1
        span = Span(
            id=span_id,
            parent=outer.id if outer else None,
            op=outer.op if outer else span_id,
            name=name,
            start=time.perf_counter(),
            attrs=attrs,
        )
        stack.append(span)
        return span

    def close(self, span: Span) -> None:
        span.end = time.perf_counter()
        stack = self._stack()
        stack.pop()
        if self._child_base_depth is None:
            with self._lock:
                self.spans.append(span)
            return
        self._spill_buffer.append(span)
        if len(stack) <= self._child_base_depth:
            self._spill()

    # -- forked workers -----------------------------------------------------
    def _after_fork_in_child(self) -> None:
        self.spans = []
        self._lock = threading.Lock()
        # span ids stay unique across the processes forked from one recorder
        self._next_id = os.getpid() << 32
        self._child_base_depth = len(self._stack())
        self._spill_buffer = []

    def _spill(self) -> None:
        path = self.spill_dir / f"spans-{os.getpid()}.jsonl"
        with open(path, "a", encoding="utf-8") as handle:
            for span in self._spill_buffer:
                handle.write(json.dumps(span.to_dict()) + "\n")
        self._spill_buffer = []

    def collect_spills(self) -> None:
        """Fold spans written by exited worker processes into :attr:`spans`."""
        for path in sorted(self.spill_dir.glob("spans-*.jsonl")):
            with open(path, encoding="utf-8") as handle:
                self.spans += [Span.from_dict(json.loads(line)) for line in handle]
            path.unlink()

    # -- patching -------------------------------------------------------------
    def wrap(
        self,
        name: str,
        fn: Callable,
        *,
        before: Callable[..., Any] | None = None,
        after: Callable[..., None] | None = None,
    ) -> Callable:
        """A traced stand-in for ``fn``.

        ``before(*args, **kwargs)`` runs outside the span and its value is
        handed to ``after(span, before_value, result, *args, **kwargs)``,
        which also runs outside the timed interval and may set attrs.
        """
        recorder = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            token = before(*args, **kwargs) if before is not None else None
            span = recorder.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                recorder.close(span)
            if after is not None:
                after(span, token, result, *args, **kwargs)
            return result

        return traced

    def patch(self, owner: Any, attr: str, name: str, **hooks: Any) -> None:
        """Replace ``owner.attr`` by its traced version (classmethods too)."""
        original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        if isinstance(original, classmethod):
            replacement: Any = classmethod(self.wrap(name, original.__func__, **hooks))
        else:
            replacement = self.wrap(name, original, **hooks)
        self._patches.append((owner, attr, original))
        setattr(owner, attr, replacement)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)


# -- analysis ---------------------------------------------------------------


def covered_time(start: float, end: float, intervals: Iterable[tuple[float, float]]) -> float:
    """Length of the union of ``intervals`` clipped to ``[start, end]``."""
    clipped = sorted(
        (max(start, a), min(end, b)) for a, b in intervals if b > start and a < end
    )
    total = 0.0
    cursor = start
    for a, b in clipped:
        if b <= cursor:
            continue
        total += b - max(a, cursor)
        cursor = b
    return total


def self_times(spans: Iterable[Span]) -> dict[int, float]:
    """Each span's duration minus the part its child spans cover.

    Children may overlap each other (pool workers run side by side), so
    the covered part is the union of the child intervals, not their sum.
    """
    spans = list(spans)
    children: dict[int, list[tuple[float, float]]] = {}
    for span in spans:
        if span.parent is not None:
            children.setdefault(span.parent, []).append((span.start, span.end))
    return {
        span.id: span.duration - covered_time(span.start, span.end, children.get(span.id, ()))
        for span in spans
    }


def tail_percentile(values: Iterable[float], min_beyond: int = 10) -> tuple[float, float, int] | None:
    """The highest percentile with at least ``min_beyond`` samples above it.

    Returns ``(percentile, value, samples)`` where ``value`` is the
    sample at sorted position ``n - 1 - min_beyond`` (nearest rank), so
    exactly ``min_beyond`` samples lie beyond it; None when there are
    not enough samples for any sample to have that many beyond it.
    """
    ordered = sorted(values)
    n = len(ordered)
    index = n - 1 - min_beyond
    if index < 0:
        return None
    return 100.0 * (index + 1) / n, ordered[index], n


def classify_get(before: tuple[int, int, int], after: tuple[int, int, int]) -> str:
    """Tier that answered one store get, from ``(memory, disk, miss)`` counts.

    Exactly one counter must have moved by one; anything else means the
    call could not be attributed to a single tier.
    """
    moved = [name for name, b, a in zip(("memory", "disk", "miss"), before, after) if a != b]
    deltas = [a - b for b, a in zip(before, after)]
    if len(moved) != 1 or sorted(deltas) != [0, 0, 1]:
        raise ValueError(f"store get moved {dict(zip(('memory', 'disk', 'miss'), deltas))}")
    return moved[0]
