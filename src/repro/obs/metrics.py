"""Counters, gauges and histograms behind one registry.

A :class:`MetricsRegistry` is the single source of truth for a
process's serving counters: :class:`~repro.service.service.ServiceStats`
and :class:`~repro.service.store.StoreStats` are *views* built from
registry instruments on access, never parallel hand-maintained fields,
and the farm folds its per-run ``last_stats`` counters into the same
registry.  Exposition is dependency-free: :meth:`MetricsRegistry.to_dict`
for JSON and :meth:`MetricsRegistry.to_prometheus` for the Prometheus
text format (``stats --metrics [json|prom]`` on the CLI).

:data:`REGISTRY` is the process-wide default for ad-hoc use.  Each
:class:`~repro.service.service.CompileService` creates (or is given) its
own registry so concurrent services — and tests — observe only their own
traffic; pass ``registry=REGISTRY`` to publish into the shared one.

:class:`TrajectoryRecorder` also lives here: the append-only JSON
trajectory files (``BENCH_compile.json`` …) are the repo's long-horizon
metrics surface.
"""

from __future__ import annotations

import json
import threading
import time
from pathlib import Path
from typing import Any, Iterable

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "REGISTRY",
    "TrajectoryRecorder",
    "get_registry",
]

#: Default histogram bucket upper bounds (seconds-flavoured, Prometheus style).
DEFAULT_BUCKETS = (0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0)


class Counter:
    """Monotonically increasing value (int or float increments)."""

    kind = "counter"
    __slots__ = ("name", "labels", "value", "_lock")

    def __init__(self, name: str, labels: tuple[tuple[str, str], ...] = ()) -> None:
        self.name = name
        self.labels = labels
        self.value: float = 0
        self._lock = threading.Lock()

    def inc(self, amount: float = 1) -> None:
        if amount < 0:
            raise ValueError("counters only go up; use a gauge for decrements")
        with self._lock:
            self.value += amount

    def snapshot(self) -> float:
        return self.value


class Gauge:
    """Point-in-time value that can move both ways."""

    kind = "gauge"
    __slots__ = ("name", "labels", "value", "_lock")

    def __init__(self, name: str, labels: tuple[tuple[str, str], ...] = ()) -> None:
        self.name = name
        self.labels = labels
        self.value: float = 0
        self._lock = threading.Lock()

    def set(self, value: float) -> None:
        self.value = value

    def inc(self, amount: float = 1) -> None:
        with self._lock:
            self.value += amount

    def dec(self, amount: float = 1) -> None:
        self.inc(-amount)

    def snapshot(self) -> float:
        return self.value


class Histogram:
    """Cumulative-bucket histogram (count / sum / per-bucket counts)."""

    kind = "histogram"
    __slots__ = ("name", "labels", "buckets", "bucket_counts", "count", "sum", "_lock")

    def __init__(
        self,
        name: str,
        labels: tuple[tuple[str, str], ...] = (),
        buckets: Iterable[float] = DEFAULT_BUCKETS,
    ) -> None:
        self.name = name
        self.labels = labels
        self.buckets = tuple(sorted(buckets))
        self.bucket_counts = [0] * len(self.buckets)
        self.count = 0
        self.sum = 0.0
        self._lock = threading.Lock()

    def observe(self, value: float) -> None:
        with self._lock:
            self.count += 1
            self.sum += value
            for index, bound in enumerate(self.buckets):
                if value <= bound:
                    self.bucket_counts[index] += 1

    def snapshot(self) -> dict[str, Any]:
        return {
            "count": self.count,
            "sum": self.sum,
            "buckets": {
                str(bound): cumulative
                for bound, cumulative in zip(self.buckets, self.bucket_counts)
            },
        }


def _label_key(labels: dict[str, Any]) -> tuple[tuple[str, str], ...]:
    return tuple(sorted((str(k), str(v)) for k, v in labels.items()))


def _prom_labels(labels: tuple[tuple[str, str], ...], extra: str = "") -> str:
    parts = [f'{k}="{v}"' for k, v in labels]
    if extra:
        parts.append(extra)
    return "{" + ",".join(parts) + "}" if parts else ""


class MetricsRegistry:
    """Get-or-create home of every instrument, with two exposition formats.

    Instruments are keyed by ``(name, sorted labels)``; asking twice for
    the same key returns the same object, so call sites never cache
    handles unless they are hot.  Names should be Prometheus-safe
    (``[a-z_][a-z0-9_]*``) — the registry does not rewrite them.
    """

    def __init__(self) -> None:
        self._instruments: "dict[tuple[str, tuple], Counter | Gauge | Histogram]" = {}
        self._lock = threading.Lock()

    def _get(self, factory, name: str, labels: dict[str, Any], **kwargs):
        key = (name, _label_key(labels))
        instrument = self._instruments.get(key)
        if instrument is None:
            with self._lock:
                instrument = self._instruments.get(key)
                if instrument is None:
                    instrument = factory(name, key[1], **kwargs)
                    self._instruments[key] = instrument
        return instrument

    def counter(self, name: str, **labels: Any) -> Counter:
        return self._get(Counter, name, labels)

    def gauge(self, name: str, **labels: Any) -> Gauge:
        return self._get(Gauge, name, labels)

    def histogram(
        self, name: str, *, buckets: Iterable[float] = DEFAULT_BUCKETS, **labels: Any
    ) -> Histogram:
        return self._get(Histogram, name, labels, buckets=buckets)

    def instruments(self) -> "list[Counter | Gauge | Histogram]":
        return [self._instruments[key] for key in sorted(self._instruments)]

    # -- exposition ------------------------------------------------------
    def to_dict(self) -> dict[str, Any]:
        """JSON exposition: ``{name{label=value}: snapshot}`` sorted by key."""
        data: dict[str, Any] = {}
        for instrument in self.instruments():
            suffix = _prom_labels(instrument.labels)
            data[instrument.name + suffix] = instrument.snapshot()
        return data

    def to_prometheus(self) -> str:
        """Prometheus text exposition (one ``# TYPE`` line per metric name)."""
        lines: list[str] = []
        typed: set[str] = set()
        for instrument in self.instruments():
            if instrument.name not in typed:
                typed.add(instrument.name)
                lines.append(f"# TYPE {instrument.name} {instrument.kind}")
            if isinstance(instrument, Histogram):
                for bound, bucket_count in zip(
                    instrument.buckets, instrument.bucket_counts
                ):
                    le = 'le="%s"' % bound
                    labels = _prom_labels(instrument.labels, le)
                    lines.append(f"{instrument.name}_bucket{labels} {bucket_count}")
                labels = _prom_labels(instrument.labels, 'le="+Inf"')
                lines.append(f"{instrument.name}_bucket{labels} {instrument.count}")
                labels = _prom_labels(instrument.labels)
                lines.append(f"{instrument.name}_sum{labels} {instrument.sum}")
                lines.append(f"{instrument.name}_count{labels} {instrument.count}")
            else:
                value = instrument.value
                rendered = str(int(value)) if float(value).is_integer() else repr(value)
                lines.append(
                    f"{instrument.name}{_prom_labels(instrument.labels)} {rendered}"
                )
        return "\n".join(lines) + ("\n" if lines else "")


#: Process-wide default registry (ad-hoc instrumentation; services make
#: their own unless handed this one explicitly).
REGISTRY = MetricsRegistry()


def get_registry() -> MetricsRegistry:
    return REGISTRY


class TrajectoryRecorder:
    """Append benchmark entries to a JSON trajectory file.

    The file holds ``{"benchmark": ..., "entries": [...]}``; every
    :meth:`record` call appends one entry with a timestamp, so the file
    grows by one entry per benchmark run and preserves the full history.
    """

    def __init__(self, path: str | Path, benchmark: str):
        self.path = Path(path)
        self.benchmark = benchmark

    def load(self) -> dict:
        if self.path.exists():
            try:
                document = json.loads(self.path.read_text())
            except (ValueError, OSError):
                document = None
            if isinstance(document, dict) and isinstance(document.get("entries"), list):
                return document
            # unreadable or malformed: move it aside so record() never
            # overwrites the accumulated trajectory history
            backup = self.path.with_name(self.path.name + ".corrupt")
            try:
                self.path.replace(backup)
            except OSError:
                pass
        return {"benchmark": self.benchmark, "entries": []}

    def record(self, entry: dict) -> dict:
        """Append ``entry`` (timestamped) and write the file back."""
        document = self.load()
        stamped = {"timestamp": time.strftime("%Y-%m-%dT%H:%M:%S"), **entry}
        document["entries"].append(stamped)
        self.path.write_text(json.dumps(document, indent=1, sort_keys=False) + "\n")
        return stamped
