"""Tracing spans: where one compile spends its time, as a tree.

A :class:`Tracer` collects :class:`SpanRecord` values — name, parent,
monotonic start/end seconds, and a small attribute dict — forming one
span tree per traced request (``ingest → workload-build → route[stage…]
→ verify → store-write``).  Instrumentation sites call the module-level
:func:`span` helper, which is a shared no-op when no tracer is active:
disabled tracing costs one thread-local read per site, following the
same zero-overhead-when-off discipline as
:class:`~repro.utils.faults.FaultPlan` (pinned by the perf smoke).

Context propagation is explicit and picklable.  Within a process the
active tracer lives in a thread-local slot (:func:`activate`), so the
thread-pool farm backend can trace concurrent jobs without interleaving
their stacks.  Across the *process* boundary, a farm worker runs its
compile under its own throwaway tracer and ships the finished records
back on the result object (``FarmJobResult.spans`` /
``PointMetrics.spans`` — the same ride the ``job`` record takes); the
service side grafts them under its current span with :func:`adopt`,
re-assigning span ids so the merged tree stays consistent.

Determinism discipline: span *content* (names, topology, attributes) is
a pure function of the traced work, while start/end timestamps are
monotonic wall clock and therefore volatile.  Trace-equality assertions
must compare :meth:`Tracer.shape` (or names/attrs), never durations —
and span records never enter memo keys, digests, or canonical JSON.

:class:`Timer` is the single wall-clock timing primitive of the repo;
:func:`time_call` is the best-of-N micro-benchmark helper built on it.
"""

from __future__ import annotations

import math
import threading
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Iterator

__all__ = [
    "SpanRecord",
    "Span",
    "Timer",
    "Tracer",
    "activate",
    "adopt",
    "current_tracer",
    "format_trace",
    "span",
    "time_call",
    "tracing_enabled",
    "validate_spans",
]

#: Schema tag written by :meth:`Tracer.to_dict` (the ``--trace`` file).
TRACE_SCHEMA_VERSION = 1


class Timer:
    """Context manager measuring wall-clock seconds (``perf_counter``).

    >>> with Timer() as t:
    ...     do_work()
    >>> t.elapsed  # seconds

    The one timing implementation shared by spans, :func:`time_call` and
    the benchmark harnesses.
    """

    __slots__ = ("elapsed", "_start")

    def __init__(self) -> None:
        self.elapsed = 0.0
        self._start = 0.0

    def start(self) -> "Timer":
        self._start = time.perf_counter()
        return self

    def stop(self) -> float:
        self.elapsed = time.perf_counter() - self._start
        return self.elapsed

    def __enter__(self) -> "Timer":
        return self.start()

    def __exit__(self, *exc_info: object) -> None:
        self.stop()


def time_call(
    fn: Callable[..., Any],
    *args: Any,
    repeats: int = 1,
    warmup: int = 0,
    **kwargs: Any,
) -> tuple[Any, float]:
    """Time ``fn(*args, **kwargs)``, returning ``(result, best_seconds)``.

    ``warmup`` extra calls run first without being timed (they populate
    caches and trigger interpreter specialisation); the best of ``repeats``
    timed calls is reported, the standard way to suppress scheduler noise
    in micro-benchmarks.
    """
    if repeats < 1:
        raise ValueError("repeats must be >= 1")
    for _ in range(warmup):
        fn(*args, **kwargs)
    best = math.inf
    result: Any = None
    for _ in range(repeats):
        with Timer() as timer:
            result = fn(*args, **kwargs)
        best = min(best, timer.elapsed)
    return result, best


@dataclass
class SpanRecord:
    """One finished span: plain data, picklable, JSON-able.

    ``start_s``/``end_s`` are monotonic (``perf_counter``) seconds —
    meaningful as durations and orderings within one tracer, volatile
    across runs.  Everything else is deterministic content.
    """

    name: str
    span_id: int
    parent_id: int | None
    start_s: float
    end_s: float
    attrs: dict[str, Any] = field(default_factory=dict)

    @property
    def duration_s(self) -> float:
        return self.end_s - self.start_s

    def to_dict(self) -> dict[str, Any]:
        return {
            "name": self.name,
            "span_id": self.span_id,
            "parent_id": self.parent_id,
            "start_s": self.start_s,
            "end_s": self.end_s,
            "attrs": dict(self.attrs),
        }

    @classmethod
    def from_dict(cls, data: dict[str, Any]) -> "SpanRecord":
        return cls(
            name=str(data["name"]),
            span_id=int(data["span_id"]),
            parent_id=None if data.get("parent_id") is None else int(data["parent_id"]),
            start_s=float(data["start_s"]),
            end_s=float(data["end_s"]),
            attrs=dict(data.get("attrs") or {}),
        )


class Span:
    """A live, open span — context manager handed out by :func:`span`.

    ``set`` attaches an attribute (returns ``self`` for chaining); the
    no-op twin used when tracing is off has the same surface, so
    instrumentation sites never branch.
    """

    __slots__ = ("name", "span_id", "parent_id", "attrs", "_tracer", "_start")

    def __init__(
        self, tracer: "Tracer", name: str, span_id: int, parent_id: int | None, attrs: dict
    ) -> None:
        self.name = name
        self.span_id = span_id
        self.parent_id = parent_id
        self.attrs = attrs
        self._tracer = tracer
        self._start = 0.0

    def set(self, key: str, value: Any) -> "Span":
        self.attrs[key] = value
        return self

    def __enter__(self) -> "Span":
        self._tracer._push(self)
        self._start = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        end = time.perf_counter()
        if exc_type is not None:
            self.attrs.setdefault("error", exc_type.__name__)
        self._tracer._pop(self, end)


class _NoopSpan:
    """Shared do-nothing span returned by :func:`span` when tracing is off."""

    __slots__ = ()

    def set(self, key: str, value: Any) -> "_NoopSpan":
        return self

    def __enter__(self) -> "_NoopSpan":
        return self

    def __exit__(self, *exc_info: object) -> bool:
        return False


_NOOP_SPAN = _NoopSpan()

# The active tracer is thread-local so the thread-executor farm can run
# one tracer per worker thread without interleaving span stacks.
_STATE = threading.local()


class Tracer:
    """Collects one process-local forest of spans.

    Span ids are sequential per tracer — deterministic given execution
    order — and parentage follows the tracer's open-span stack.  Use
    :func:`activate` to make a tracer the current thread's target of the
    module-level :func:`span` helper.
    """

    def __init__(self) -> None:
        self._records: list[SpanRecord] = []
        self._stack: list[Span] = []
        self._next_id = 1

    # -- span lifecycle -------------------------------------------------
    def span(self, name: str, **attrs: Any) -> Span:
        parent = self._stack[-1].span_id if self._stack else None
        span_id = self._next_id
        self._next_id += 1
        return Span(self, name, span_id, parent, dict(attrs))

    def _push(self, live: Span) -> None:
        # re-derive the parent at entry time: the span may have been
        # created before siblings opened/closed
        live.parent_id = self._stack[-1].span_id if self._stack else None
        self._stack.append(live)

    def _pop(self, live: Span, end: float) -> None:
        if self._stack and self._stack[-1] is live:
            self._stack.pop()
        else:  # tolerate mis-nested exits rather than corrupt the stack
            self._stack = [s for s in self._stack if s is not live]
        self._records.append(
            SpanRecord(
                name=live.name,
                span_id=live.span_id,
                parent_id=live.parent_id,
                start_s=live._start,
                end_s=end,
                attrs=live.attrs,
            )
        )

    # -- adoption (the pickle boundary) ---------------------------------
    def adopt(
        self,
        records: "Iterator[SpanRecord | dict] | list[SpanRecord | dict] | tuple",
        parent_id: int | None = None,
    ) -> list[SpanRecord]:
        """Graft foreign span records (e.g. from a farm worker) in.

        Ids are re-assigned from this tracer's sequence (topology
        preserved); records without a parent — the worker's roots — are
        re-parented under ``parent_id`` (default: the currently open
        span).  Timestamps are kept verbatim: they are only meaningful
        as durations, which re-parenting does not change.
        """
        if parent_id is None and self._stack:
            parent_id = self._stack[-1].span_id
        incoming = [
            r if isinstance(r, SpanRecord) else SpanRecord.from_dict(r) for r in records
        ]
        id_map: dict[int, int] = {}
        for record in incoming:
            id_map[record.span_id] = self._next_id
            self._next_id += 1
        adopted: list[SpanRecord] = []
        for record in incoming:
            new_parent = (
                id_map.get(record.parent_id, parent_id)
                if record.parent_id is not None
                else parent_id
            )
            adopted.append(
                SpanRecord(
                    name=record.name,
                    span_id=id_map[record.span_id],
                    parent_id=new_parent,
                    start_s=record.start_s,
                    end_s=record.end_s,
                    attrs=dict(record.attrs),
                )
            )
        self._records.extend(adopted)
        return adopted

    # -- views -----------------------------------------------------------
    def records(self) -> list[SpanRecord]:
        return list(self._records)

    def roots(self) -> list[SpanRecord]:
        return [r for r in self._records if r.parent_id is None]

    def children(self, span_id: int) -> list[SpanRecord]:
        kids = [r for r in self._records if r.parent_id == span_id]
        kids.sort(key=lambda r: (r.start_s, r.span_id))
        return kids

    def find(self, name: str) -> list[SpanRecord]:
        return [r for r in self._records if r.name == name]

    def shape(self, span_id: int | None = None) -> list:
        """Deterministic tree view — names only, no ids or timestamps.

        The trace-equality currency: two runs of the same work produce
        equal shapes even though every timestamp differs.
        """
        if span_id is None:
            return [[r.name, self.shape(r.span_id)] for r in self.roots()]
        return [[r.name, self.shape(r.span_id)] for r in self.children(span_id)]

    def clear(self) -> None:
        self._records.clear()
        self._stack.clear()
        self._next_id = 1

    def to_dict(self) -> dict[str, Any]:
        """JSON document for ``--trace FILE`` (read back by ``trace show``)."""
        return {
            "schema_version": TRACE_SCHEMA_VERSION,
            "spans": [record.to_dict() for record in self._records],
        }


class _Activation:
    """Context manager binding a tracer to the current thread."""

    __slots__ = ("_tracer", "_previous")

    def __init__(self, tracer: Tracer | None) -> None:
        self._tracer = tracer
        self._previous: Tracer | None = None

    def __enter__(self) -> Tracer | None:
        self._previous = getattr(_STATE, "tracer", None)
        _STATE.tracer = self._tracer
        return self._tracer

    def __exit__(self, *exc_info: object) -> None:
        _STATE.tracer = self._previous


def activate(tracer: Tracer | None) -> _Activation:
    """``with activate(tracer):`` — route :func:`span` calls to ``tracer``.

    Pass ``None`` to suspend tracing within the block.  Bindings are
    per-thread and restore the previous tracer on exit.
    """
    return _Activation(tracer)


def current_tracer() -> Tracer | None:
    return getattr(_STATE, "tracer", None)


def tracing_enabled() -> bool:
    return getattr(_STATE, "tracer", None) is not None


def span(name: str, **attrs: Any) -> "Span | _NoopSpan":
    """Open a span on the current thread's tracer — shared no-op when off."""
    tracer = getattr(_STATE, "tracer", None)
    if tracer is None:
        return _NOOP_SPAN
    return tracer.span(name, **attrs)


def adopt(records, parent_id: int | None = None) -> list[SpanRecord]:
    """Adopt foreign span records into the current tracer (no-op when off)."""
    tracer = getattr(_STATE, "tracer", None)
    if tracer is None or not records:
        return []
    return tracer.adopt(records, parent_id=parent_id)


# ---------------------------------------------------------------------------
# Trace-document helpers (shared by tests, CI smoke, and ``trace show``).


def validate_spans(spans: "list[SpanRecord | dict]") -> list[str]:
    """Well-formedness problems of a span list (empty list = valid).

    Checks every span has ``start_s <= end_s`` and that every non-null
    parent id refers to a span in the list — the CI trace smoke's
    assertions.
    """
    records = [s if isinstance(s, SpanRecord) else SpanRecord.from_dict(s) for s in spans]
    ids = {record.span_id for record in records}
    problems: list[str] = []
    for record in records:
        if record.start_s > record.end_s:
            problems.append(f"span {record.span_id} ({record.name}) has start > end")
        if record.parent_id is not None and record.parent_id not in ids:
            problems.append(
                f"span {record.span_id} ({record.name}) has unknown parent {record.parent_id}"
            )
    return problems


def format_trace(document: dict[str, Any]) -> str:
    """Flame-style text rendering of a ``--trace`` document.

    One line per span, indented by depth, with duration, percentage of
    its root, and attributes::

        request                         41.2ms  100.0%
          ingest                         0.4ms    1.0%
          store-get                      0.1ms    0.2%  outcome=miss
          ...
    """
    records = [SpanRecord.from_dict(s) for s in document.get("spans", ())]
    problems = validate_spans(records)
    by_parent: dict[int | None, list[SpanRecord]] = {}
    for record in records:
        by_parent.setdefault(record.parent_id, []).append(record)
    for kids in by_parent.values():
        kids.sort(key=lambda r: (r.start_s, r.span_id))

    lines: list[str] = []

    def emit(record: SpanRecord, depth: int, root_duration: float) -> None:
        label = "  " * depth + record.name
        pct = (
            100.0 * record.duration_s / root_duration if root_duration > 0 else 100.0
        )
        attrs = " ".join(f"{k}={v}" for k, v in sorted(record.attrs.items()))
        lines.append(
            f"{label:<40} {record.duration_s * 1000.0:>9.2f}ms {pct:>6.1f}%"
            + (f"  {attrs}" if attrs else "")
        )
        for child in by_parent.get(record.span_id, ()):
            emit(child, depth + 1, root_duration)

    roots = by_parent.get(None, [])
    for root in roots:
        emit(root, 0, root.duration_s)
    summary = f"{len(records)} spans, {len(roots)} roots"
    if problems:
        summary += f", {len(problems)} problems: " + "; ".join(problems)
    lines.append(summary)
    return "\n".join(lines)
