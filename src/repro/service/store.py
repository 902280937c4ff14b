"""Content-addressed, multi-tier schedule store.

The compile service's persistence layer: every compiled schedule is
written to disk under the sha1 digest of its farm job key
(``(workload fingerprint, FPQAConfig, options)`` — see
:meth:`repro.core.farm.FarmJob.digest`), so a repeat of any grid cell the
farm would have memoised *in memory* is answered from disk instead —
across service restarts, processes and machines sharing the store root.

The store is two-tiered when ``memory_entries`` is set: an in-process
LRU dict of :class:`StoreEntry` objects fronts the disk tier, so the hot
head of a traffic distribution is served with **zero** disk I/O — no
``read_text``, no ``stat``, no ``utime`` (pinned by a test that
monkeypatches exactly those).  Entries are immutable once written (the
digest *is* the content), which is what makes the memory copy safe to
serve even after another daemon rewrote or evicted the disk entry.  The
trade-off is documented and deliberate: a memory-tier hit does not
refresh the disk entry's mtime, so disk LRU ranks entries by their last
*disk* access — an entry hot enough to live in memory can be evicted
from disk and still be served, and falls back to a recompile only after
it also ages out of memory.

Entries can optionally be gzip-compressed on disk (``compress=True``) —
reads sniff the two magic bytes, so compressed and uncompressed entries
coexist in one root.  The entry schema is versioned (v3, recording its
``codec``); an entry of any other version — the ``indent=2`` v1/v2
entries of older stores — is a recomputable miss like any other
wrong-schema entry, never migrated: the digest addresses the content,
so the next compile rewrites the same entry at v3.

Entries are sorted-key *compact* JSON (``canonical_json(data,
indent=None)``, encoded in one C pass) wrapping the schedule's canonical
dict, its compact :class:`~repro.core.farm.PointMetrics` and the router
name.  Only the on-disk layout is compact: golden files, archives and
:meth:`StoreEntry.schedule_json` keep the ``indent=2`` form, rendered
when a caller asks.  Because the schedule payload is the *canonical*
serialisation (volatile wall-clock metadata stripped, keys sorted), a
cached schedule re-renders byte-identical to a fresh compile of the
same job — the durability suite pins that.

Reads are corruption-safe: a missing, truncated, garbled or
wrong-schema entry is a *miss*, never a crash; the bad file is unlinked
(``missing_ok`` — a concurrent process repairing the same entry must not
turn the repair into a crash) so the next compile rewrites it.  Writes
are atomic (``tempfile`` + ``os.replace``), so a reader never observes a
torn entry.  ``max_entries`` bounds the store with least-recently-used
eviction (hits refresh the entry mtime); eviction scans are guarded by
an ``O_EXCL`` lockfile so multiple daemons sharing one store root never
race each other below the limit — the multiprocess hammer test in
``tests/test_faults.py`` pins both properties.

For chaos testing the store accepts a seeded
:class:`~repro.utils.faults.FaultPlan` (default ``None`` — injection
off): ``fail-store-write`` makes :meth:`put` raise
:class:`~repro.utils.faults.InjectedStoreWriteError` (exercising the
service's log-and-continue path) and ``corrupt-store-entry`` garbles the
entry's bytes after a successful write (exercising the
corruption-unlink repair on the next read).  Fault keys are the entry
digests, and per-digest write attempts are counted so bounded rules
(``max_fires``) stop firing once the fault has been exercised.
"""

from __future__ import annotations

import gzip
import json
import logging
import os
import tempfile
import time
import zlib
from collections import OrderedDict
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Iterator

from repro.core.farm import FarmJobResult, PointMetrics
from repro.core.schedule import FPQASchedule
from repro.exceptions import QPilotError
from repro.obs.events import log_event
from repro.obs.metrics import MetricsRegistry
from repro.utils.faults import (
    CORRUPT_STORE_ENTRY,
    FAIL_STORE_WRITE,
    SLOW_STORE_READ,
    FaultPlan,
    InjectedStoreWriteError,
)
from repro.utils.serialization import canonical_json, schedule_from_dict

logger = logging.getLogger(__name__)

_STORE_SCHEMA_VERSION = 3

_GZIP_MAGIC = b"\x1f\x8b"

#: Default age (seconds) past which another daemon's eviction lock is
#: presumed abandoned (crashed holder) and broken.  Eviction scans take
#: milliseconds, so this is orders of magnitude of headroom.  Tunable
#: per store via the ``evict_lock_stale_s`` constructor parameter.
_EVICT_LOCK_STALE_S = 30.0


@dataclass
class StoreStats:
    """Counters of one store's lifetime (since construction).

    ``hits`` is the total across tiers; ``memory_hits`` + ``disk_hits``
    always equals it, so per-tier hit rates are first-class (the load
    benchmark's headline numbers).  ``evictions`` counts disk-tier LRU
    evictions, ``memory_evictions`` the in-process tier's.

    Since the observability PR this dataclass is a *view*: the numbers
    live in the store's :class:`~repro.obs.metrics.MetricsRegistry`
    (``store_*`` instruments) and ``ScheduleStore.stats`` builds one of
    these on access — no parallel hand-maintained counters.
    """

    hits: int = 0
    memory_hits: int = 0
    disk_hits: int = 0
    misses: int = 0
    writes: int = 0
    evictions: int = 0
    memory_evictions: int = 0
    corrupt: int = 0

    @property
    def lookups(self) -> int:
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float | None:
        """Hits / lookups, or None before the first lookup."""
        return self.hits / self.lookups if self.lookups else None

    @property
    def memory_hit_rate(self) -> float | None:
        """Memory-tier hits / lookups, or None before the first lookup."""
        return self.memory_hits / self.lookups if self.lookups else None

    @property
    def disk_hit_rate(self) -> float | None:
        """Disk-tier hits / lookups, or None before the first lookup."""
        return self.disk_hits / self.lookups if self.lookups else None

    def to_dict(self) -> dict[str, Any]:
        return {
            "hits": self.hits,
            "memory_hits": self.memory_hits,
            "disk_hits": self.disk_hits,
            "misses": self.misses,
            "writes": self.writes,
            "evictions": self.evictions,
            "memory_evictions": self.memory_evictions,
            "corrupt": self.corrupt,
            "hit_rate": self.hit_rate,
            "memory_hit_rate": self.memory_hit_rate,
            "disk_hit_rate": self.disk_hit_rate,
        }


@dataclass(frozen=True)
class StoreEntry:
    """One cached compile: canonical schedule dict + metrics + router."""

    digest: str
    router: str
    metrics: PointMetrics
    schedule: dict[str, Any]

    def schedule_json(self) -> str:
        """The canonical schedule JSON — byte-identical to
        ``schedule_to_json(schedule, canonical=True)`` of a fresh compile."""
        return canonical_json(self.schedule)

    def load_schedule(self) -> FPQASchedule:
        """Rebuild the full :class:`FPQASchedule` object."""
        return schedule_from_dict(self.schedule)

    @classmethod
    def from_result(cls, digest: str, result: FarmJobResult) -> "StoreEntry":
        return cls(
            digest=digest,
            router=result.router,
            metrics=result.metrics,
            schedule=result.schedule,
        )

    def to_dict(self) -> dict[str, Any]:
        return {
            "schema_version": _STORE_SCHEMA_VERSION,
            "digest": self.digest,
            "router": self.router,
            "metrics": self.metrics.to_dict(),
            "schedule": self.schedule,
        }

    @classmethod
    def from_dict(cls, data: dict[str, Any]) -> "StoreEntry":
        """Parse an entry dict of the current schema version."""
        if data.get("schema_version") != _STORE_SCHEMA_VERSION:
            raise QPilotError(
                f"unsupported store entry schema version {data.get('schema_version')!r}"
            )
        return cls(
            digest=str(data["digest"]),
            router=str(data["router"]),
            metrics=PointMetrics.from_dict(data["metrics"]),
            schedule=dict(data["schedule"]),
        )


class ScheduleStore:
    """Multi-tier, content-addressed cache of compiled schedules.

    Disk entries live at ``root/<digest[:2]>/<digest>.json`` (two-level
    sharding keeps directories small on big stores).  The store is safe
    to share between service instances pointed at the same root — atomic
    writes mean concurrent writers of the *same* digest converge on
    identical bytes.  ``max_entries`` is enforced from each writer's own
    entry count (kept incrementally; eviction scans resync it from
    disk), so with several concurrent writers the bound is approximate
    between evictions, never corrupt.

    ``memory_entries`` turns on the in-process LRU front tier: the last N
    distinct entries read or written are kept as parsed
    :class:`StoreEntry` objects and served without touching the disk at
    all.  ``compress=True`` gzips entry files on write (reads always
    sniff, so mixed roots work); the compressed bytes are deterministic
    (``mtime=0``), preserving write-once convergence between concurrent
    writers of one digest.
    """

    def __init__(
        self,
        root: str | Path,
        *,
        max_entries: int | None = None,
        memory_entries: int | None = None,
        compress: bool = False,
        faults: FaultPlan | None = None,
        evict_lock_stale_s: float = _EVICT_LOCK_STALE_S,
        registry: MetricsRegistry | None = None,
    ):
        if max_entries is not None and max_entries < 1:
            raise QPilotError("max_entries must be at least 1")
        if memory_entries is not None and memory_entries < 1:
            raise QPilotError("memory_entries must be at least 1")
        if evict_lock_stale_s <= 0:
            raise QPilotError("evict_lock_stale_s must be positive")
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)
        self.max_entries = max_entries
        self.memory_entries = memory_entries
        self.compress = compress
        self.faults = faults
        self.evict_lock_stale_s = evict_lock_stale_s
        # counters live here; ``stats`` is a view built on access (a
        # service shares its registry with the store it constructs)
        self.registry = registry if registry is not None else MetricsRegistry()
        metric = self.registry.counter
        self._c_memory_hits = metric("store_memory_hits_total")
        self._c_disk_hits = metric("store_disk_hits_total")
        self._c_misses = metric("store_misses_total")
        self._c_writes = metric("store_writes_total")
        self._c_evictions = metric("store_evictions_total")
        self._c_memory_evictions = metric("store_memory_evictions_total")
        self._c_corrupt = metric("store_corrupt_total")
        # the memory tier: digest -> StoreEntry, most-recently-used last
        self._memory: "OrderedDict[str, StoreEntry]" = OrderedDict()
        # entry count, maintained incrementally so bounded-store writes
        # don't re-scan the whole tree; None until first needed
        self._count: int | None = None
        # per-digest write/read attempts, so bounded fault rules stop firing
        self._write_attempts: dict[str, int] = {}
        self._read_attempts: dict[str, int] = {}

    # -- stats ----------------------------------------------------------
    @property
    def stats(self) -> StoreStats:
        """Lifetime counters — a view over the metrics registry."""
        memory_hits = int(self._c_memory_hits.value)
        disk_hits = int(self._c_disk_hits.value)
        return StoreStats(
            hits=memory_hits + disk_hits,
            memory_hits=memory_hits,
            disk_hits=disk_hits,
            misses=int(self._c_misses.value),
            writes=int(self._c_writes.value),
            evictions=int(self._c_evictions.value),
            memory_evictions=int(self._c_memory_evictions.value),
            corrupt=int(self._c_corrupt.value),
        )

    # -- addressing -----------------------------------------------------
    def path_for(self, digest: str) -> Path:
        """Where an entry with this digest lives (existing or not)."""
        return self.root / digest[:2] / f"{digest}.json"

    def _entry_paths(self) -> Iterator[Path]:
        return self.root.glob("??/*.json")

    def __len__(self) -> int:
        if self._count is None:
            self._count = sum(1 for _ in self._entry_paths())
        return self._count

    def __contains__(self, digest: str) -> bool:
        """Whether a lookup of ``digest`` would be served (either tier)."""
        return digest in self._memory or self.path_for(digest).exists()

    def digests(self) -> list[str]:
        """Digests of all entries currently on disk (sorted)."""
        return sorted(path.stem for path in self._entry_paths())

    def disk_bytes(self) -> int:
        """Total on-disk size of all entry files, in bytes."""
        total = 0
        for path in self._entry_paths():
            try:
                total += path.stat().st_size
            except OSError:
                pass
        return total

    # -- memory tier ----------------------------------------------------
    def _memory_store(self, digest: str, entry: StoreEntry) -> None:
        """Insert/refresh an entry in the LRU front tier (bounded)."""
        if self.memory_entries is None:
            return
        self._memory[digest] = entry
        self._memory.move_to_end(digest)
        while len(self._memory) > self.memory_entries:
            self._memory.popitem(last=False)
            self._c_memory_evictions.inc()

    # -- lookup ---------------------------------------------------------
    def get(self, digest: str) -> StoreEntry | None:
        """Fetch an entry, or None on miss.

        The memory tier answers first — a memory hit performs zero disk
        I/O.  Corrupted disk entries (truncated writes, garbled bytes,
        wrong schema, digest mismatch) count as misses: the bad file is
        removed and the caller recompiles, which rewrites a good entry.
        Entries of an older schema version take the same path.

        A ``slow-store-read`` fault sleeps here before the lookup —
        *both* tiers — simulating a slow or contended disk so end-to-end
        deadlines can expire on the warm path (chaos testing only; with
        no plan attached this is a single ``is None`` check).
        """
        if self.faults is not None:
            attempt = self._read_attempts.get(digest, 0)
            self._read_attempts[digest] = attempt + 1
            duration = self.faults.fire_duration(SLOW_STORE_READ, digest, attempt)
            if duration > 0:
                time.sleep(duration)
        memory_entry = self._memory.get(digest)
        if memory_entry is not None:
            self._memory.move_to_end(digest)
            self._c_memory_hits.inc()
            return memory_entry
        path = self.path_for(digest)
        try:
            raw = path.read_bytes()
        except OSError:
            self._c_misses.inc()
            return None
        try:
            if raw[:2] == _GZIP_MAGIC:
                text = gzip.decompress(raw).decode("utf-8")
            else:
                text = raw.decode("utf-8")
            entry = StoreEntry.from_dict(json.loads(text))
            if entry.digest != digest:
                raise QPilotError(f"store entry {path} digest mismatch")
        except (
            ValueError,
            KeyError,
            TypeError,
            AttributeError,
            EOFError,
            OSError,  # gzip.BadGzipFile on garbled compressed entries
            zlib.error,
            QPilotError,
        ):
            self._c_corrupt.inc()
            self._c_misses.inc()
            log_event(logger, "corrupt-entry", digest=digest[:12], path=str(path))
            # a concurrent daemon may have repaired the same bad entry
            # first — its unlink must not crash us, and must not be
            # double-counted: only decrement for a file *we* removed
            # (otherwise the cached count drifts low and silently defers
            # eviction)
            try:
                path.unlink()
            except FileNotFoundError:
                pass  # already removed by the other daemon
            except OSError:
                pass
            else:
                if self._count is not None:
                    self._count -= 1
            return None
        self._c_disk_hits.inc()
        self._touch(path)
        self._memory_store(digest, entry)
        return entry

    # -- insert ---------------------------------------------------------
    def put(self, digest: str, result: FarmJobResult) -> StoreEntry:
        """Persist one compiled job under its digest (atomic write).

        Raises :class:`~repro.utils.faults.InjectedStoreWriteError` when
        a ``fail-store-write`` fault fires (chaos testing only; with no
        plan attached this is a single ``is None`` check).  Callers that
        must stay up across a failed write — the compile service — catch
        and log instead of propagating.
        """
        attempt = self._write_attempts.get(digest, 0)
        self._write_attempts[digest] = attempt + 1
        if self.faults is not None and self.faults.should_fire(
            FAIL_STORE_WRITE, digest, attempt
        ):
            raise InjectedStoreWriteError(
                f"injected store-write fault for {digest[:12]} (attempt {attempt})"
            )
        entry = StoreEntry.from_result(digest, result)
        path = self.path_for(digest)
        existed = path.exists()
        self._write_entry_file(path, entry)
        self._c_writes.inc()
        if not existed and self._count is not None:
            self._count += 1
        if self.faults is not None and self.faults.should_fire(
            CORRUPT_STORE_ENTRY, digest, attempt
        ):
            # garble the just-written entry: the next read must treat it
            # as a miss, unlink it, and let a recompile repair it — drop
            # the memory copy too, or the front tier would mask the
            # injected corruption from the very test exercising it
            path.write_text('{"schema_version": "corrupted-by-fault-injection"')
            self._memory.pop(digest, None)
        else:
            self._memory_store(digest, entry)
        if self.max_entries is not None:
            self._evict_over_limit(keep=path)
        return entry

    def _write_entry_file(self, path: Path, entry: StoreEntry) -> None:
        """Atomically write one entry file at the store's current codec."""
        data = entry.to_dict()
        data["codec"] = "gzip" if self.compress else "raw"
        payload = (canonical_json(data, indent=None) + "\n").encode("utf-8")
        if self.compress:
            # mtime=0 keeps the compressed bytes deterministic, so
            # concurrent writers of one digest still converge bit-for-bit
            payload = gzip.compress(payload, mtime=0)
        path.parent.mkdir(parents=True, exist_ok=True)
        handle, tmp_name = tempfile.mkstemp(
            dir=path.parent, prefix=f".{entry.digest[:8]}-", suffix=".tmp"
        )
        try:
            with os.fdopen(handle, "wb") as tmp:
                tmp.write(payload)
            os.replace(tmp_name, path)
        except BaseException:
            try:
                os.unlink(tmp_name)
            except OSError:
                pass
            raise

    # -- maintenance ----------------------------------------------------
    def clear(self) -> int:
        """Remove every entry (both tiers); returns how many files were removed."""
        removed = 0
        for path in list(self._entry_paths()):
            try:
                path.unlink()
            except OSError:
                continue  # incl. FileNotFoundError: another daemon removed it
            removed += 1
        self._memory.clear()
        self._count = None  # recount lazily (unlinks may have failed)
        # a long-lived daemon clearing its store starts a fresh fault
        # epoch too — per-digest attempt ledgers must not leak forever
        self._write_attempts.clear()
        self._read_attempts.clear()
        return removed

    def _touch(self, path: Path) -> None:
        """Refresh an entry's mtime so LRU eviction sees the hit."""
        try:
            os.utime(path)
        except OSError:
            pass

    def _acquire_evict_lock(self) -> int | None:
        """Try to take the store-wide eviction lock (``O_EXCL`` create).

        Returns an open fd on success, ``None`` when another daemon holds
        the lock (its scan covers our excess too — skipping is correct,
        the bound is approximate between evictions by design).  A lock
        older than ``evict_lock_stale_s`` belonged to a crashed holder
        and is broken.
        """
        lock = self.root / ".evict.lock"
        for _ in range(2):  # second pass only after breaking a stale lock
            try:
                fd = os.open(lock, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
            except FileExistsError:
                try:
                    age = time.time() - lock.stat().st_mtime
                except OSError:
                    continue  # holder just released it; retry the create
                if age <= self.evict_lock_stale_s:
                    return None
                try:
                    lock.unlink(missing_ok=True)
                except OSError:
                    return None
                continue
            except OSError:
                return None  # unwritable root: skip eviction, never crash
            try:
                os.write(fd, f"{os.getpid()}\n".encode())
            except OSError:
                pass
            return fd
        return None

    def _release_evict_lock(self, fd: int) -> None:
        try:
            os.close(fd)
        except OSError:
            pass
        try:
            (self.root / ".evict.lock").unlink(missing_ok=True)
        except OSError:
            pass

    def _evict_over_limit(self, *, keep: Path) -> None:
        """Drop least-recently-used entries until within ``max_entries``.

        The O(1) count check keeps the common (not-over-limit) write
        cheap; the full scan only happens when eviction looks due, and
        its result resyncs the count (healing drift from other writers
        sharing the root).  The scan runs under the store-wide lockfile:
        concurrent daemons sharing a root must not race each other's
        scans into evicting far below the limit (each sees the other's
        unlinks as its own excess).
        """
        if len(self) - self.max_entries <= 0:
            return
        lock_fd = self._acquire_evict_lock()
        if lock_fd is None:
            self._count = None  # another daemon is evicting; recount lazily
            return
        try:
            paths = list(self._entry_paths())
            self._count = len(paths)
            excess = self._count - self.max_entries
            if excess <= 0:
                return

            def lru_key(path: Path) -> tuple[float, str]:
                # mtime alone ties on coarse-granularity filesystems for
                # entries written within one quantum, making eviction
                # order depend on directory-scan order; the name breaks
                # the tie deterministically
                try:
                    return (path.stat().st_mtime, path.name)
                except OSError:
                    return (0.0, path.name)

            removed = 0
            for path in sorted(paths, key=lru_key):
                if excess <= 0:
                    break
                if path == keep:
                    continue
                try:
                    path.unlink()
                except FileNotFoundError:
                    # a concurrent daemon removed it since the scan: the
                    # excess shrank, but the removal is not ours to count,
                    # and it may be rewriting the entry — recount lazily
                    excess -= 1
                    self._count = None
                    continue
                except OSError:
                    continue
                if self._count is not None:
                    self._count -= 1
                self._c_evictions.inc()
                removed += 1
                excess -= 1
            if removed:
                log_event(
                    logger, "store-evicted", removed=removed, max_entries=self.max_entries
                )
        finally:
            self._release_evict_lock(lock_fd)
