"""The compile service: queue + content-addressed store + compile farm.

:class:`CompileService` turns the one-shot in-process compiler into a
long-lived serving layer.  Every request takes the same path:

1. **lookup** — an expired ticket fails fast, a warm key is answered
   straight from the :class:`ScheduleStore` (zero router invocations)
   and only a live miss goes on;
2. **dispatch** — the misses are compiled once each by one
   :class:`~repro.core.farm.CompileFarm` run; each result is settled as
   it is taken (failed and dead-lettered, or persisted and resolved).

The path has two delivery modes:

* **batch** — clients :meth:`~CompileService.submit`
  :class:`CompileRequest` tickets (identical in-flight requests coalesce
  in the :class:`JobQueue`) and :meth:`~CompileService.process_batch`
  drains the queue, settling farm results in slot order;
* **stream** — :meth:`~CompileService.stream` yields a response per
  request as each resolves (cache hits immediately, compiles in
  completion order), coalescing duplicates within a chunk, so
  arbitrarily large request sweeps flow through without materialising
  the grid.

A service built from a store *path* fronts the disk store with the
in-memory LRU tier (:data:`DEFAULT_MEMORY_ENTRIES`), so the hot head of
real traffic is served without any disk I/O; :meth:`~CompileService.warm_from`
pre-populates the store from an archived
:class:`~repro.core.dse.SweepResult` trajectory.

``ServiceStats`` aggregates the serving picture: request counts,
coalescing, cache hit rate, farm dispatches, queue depth and throughput.
The differential guarantees compose: the farm's executor oracle makes
every backend produce byte-identical canonical schedules, and the store
persists exactly those bytes — so a cache hit is indistinguishable from
a recompile, which is what makes caching *correct* and not just fast.

Overload robustness keeps that guarantee under pressure instead of
queueing unboundedly:

* **Admission control + priority lanes** — the :class:`JobQueue` runs
  under a :class:`~repro.service.queue.QueuePolicy`: over-depth and
  over-quota submissions are rejected with a typed
  :class:`~repro.exceptions.AdmissionError`, and admitted work drains by
  deterministic weighted round-robin over priority lanes.
* **End-to-end deadlines** — a request's ``deadline_s`` budget follows
  it through the queue (expired tickets fail fast with
  :class:`~repro.exceptions.DeadlineExceeded`, never dispatched) and
  into the farm (the remaining budget is the job's deadline; see
  ``CompileFarm.iter_results(deadlines=...)``).
* **Load shedding** — when depth crosses the policy's
  ``shed_high_water`` mark, the lowest-priority newest queued work is
  dropped with :class:`~repro.exceptions.LoadShedError`.
* **Circuit breaker** — :class:`CircuitBreaker` watches farm dispatch:
  after ``failure_threshold`` consecutive failures it opens, cold keys
  are rejected immediately with
  :class:`~repro.exceptions.CircuitOpenError` while warm keys keep
  serving from the store, and after a seeded deterministic timeout a
  single half-open probe decides whether to close again.

Every failure — farm error, expiry, breaker rejection, shed — leaves
through one exit that fails the ticket, dead-letters it, counts it and
logs it.  Shedding, expiry and breaking change *which* requests
complete, never *what* they return — every admitted-and-completed
request still returns canonical bytes identical to the fault-free
reference run, pinned by the overload chaos suite
(``tests/test_overload.py``).
"""

from __future__ import annotations

import logging
import time
from contextlib import closing
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import TYPE_CHECKING, Any, Callable, Iterable, Iterator

from repro.core.farm import (
    CompileFarm,
    FarmJobError,
    FarmJobResult,
    FarmOptions,
    FarmPolicy,
    PointMetrics,
    WorkloadSpec,
)

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.dse import SweepResult
from repro.core.schedule import FPQASchedule
from repro.exceptions import (
    AdmissionError,
    CircuitError,
    CircuitOpenError,
    DeadlineExceeded,
    InvalidCircuitError,
    LoadShedError,
    QPilotError,
)
from repro.hardware.fpqa import FPQAConfig
from repro.obs.events import log_event
from repro.obs.metrics import Counter, MetricsRegistry
from repro.obs.tracing import adopt, span, tracing_enabled
from repro.service.queue import (
    FAILED,
    CompileRequest,
    JobQueue,
    QueuedJob,
    QueuePolicy,
)
from repro.service.store import ScheduleStore, StoreEntry
from repro.utils.faults import deterministic_draw
from repro.utils.serialization import canonical_json, schedule_from_dict

logger = logging.getLogger(__name__)

#: Where a response came from.
SOURCE_CACHE = "cache"
SOURCE_COMPILED = "compiled"

#: Requests consumed per :meth:`CompileService.stream` chunk when neither
#: ``chunk_size`` nor the service ``batch_size`` is set.
DEFAULT_STREAM_CHUNK = 32

#: Memory-tier size the service gives a store it constructs itself (pass
#: ``memory_entries=None`` — or a ready-made :class:`ScheduleStore` — to
#: opt out).  A serving process wants its hot head answered without disk
#: I/O; 256 parsed entries is a few MB for typical schedules.
DEFAULT_MEMORY_ENTRIES = 256

#: Circuit-breaker states.
BREAKER_CLOSED = "closed"
BREAKER_OPEN = "open"
BREAKER_HALF_OPEN = "half-open"


@dataclass(frozen=True)
class BreakerPolicy:
    """Knobs of the farm-dispatch circuit breaker.

    ``failure_threshold`` consecutive dispatch failures trip the breaker
    open; it stays open for :meth:`open_duration` seconds, then admits a
    single half-open probe whose outcome closes it (success) or re-trips
    it (failure).  The open duration is ``reset_timeout_s`` stretched by
    up to ``jitter`` fraction of itself using a *seeded* draw keyed by
    the trip count (:func:`~repro.utils.faults.deterministic_draw`), so
    reopen timing is reproducible run to run — the same determinism
    discipline as the farm's retry backoff.
    """

    failure_threshold: int = 5
    reset_timeout_s: float = 30.0
    jitter: float = 0.1
    seed: int = 0

    def __post_init__(self) -> None:
        if self.failure_threshold < 1:
            raise QPilotError("failure_threshold must be at least 1")
        if self.reset_timeout_s <= 0:
            raise QPilotError("reset_timeout_s must be positive")
        if not 0.0 <= self.jitter <= 1.0:
            raise QPilotError("jitter must be in [0, 1]")

    def open_duration(self, trips: int) -> float:
        """Seconds the breaker stays open after trip number ``trips``."""
        return self.reset_timeout_s * (
            1.0 + self.jitter * deterministic_draw(self.seed, "breaker-reset", "trip", trips)
        )


class CircuitBreaker:
    """Closed → open → half-open state machine around farm dispatch.

    The service records one success/failure per dispatched unique job;
    ``failure_threshold`` *consecutive* failures open the breaker.  While
    open, :meth:`current_state` lazily transitions to half-open once the
    seeded open duration elapses (no timers — state is a pure function of
    the injected ``clock``), and :meth:`allow_probe` grants exactly one
    probe slot; the probe's outcome closes or re-trips the breaker.
    Warm-key serving never consults the breaker — only cold dispatch
    does, which is what "serve warm keys while open" means.
    """

    def __init__(
        self, policy: BreakerPolicy | None = None, *, clock: Callable[[], float] | None = None
    ) -> None:
        self.policy = policy or BreakerPolicy()
        self.clock = clock or time.monotonic
        self._state = BREAKER_CLOSED
        self.consecutive_failures = 0
        self.trips = 0
        self.opened_until = 0.0
        self._probe_claimed = False

    def current_state(self) -> str:
        """The live state (open lazily becomes half-open past its timeout)."""
        if self._state == BREAKER_OPEN and self.clock() >= self.opened_until:
            self._state = BREAKER_HALF_OPEN
            self._probe_claimed = False
            log_event(logger, "breaker-half-open", trips=self.trips)
        return self._state

    def allow_probe(self) -> bool:
        """Claim the single half-open probe slot (True exactly once)."""
        if self.current_state() != BREAKER_HALF_OPEN or self._probe_claimed:
            return False
        self._probe_claimed = True
        return True

    def record_success(self) -> None:
        """A dispatch succeeded: close and reset the consecutive count."""
        if self._state != BREAKER_CLOSED:
            log_event(logger, "breaker-closed", trips=self.trips)
        self._state = BREAKER_CLOSED
        self.consecutive_failures = 0
        self._probe_claimed = False

    def record_failure(self) -> None:
        """A dispatch failed: count it, tripping at the threshold.

        A half-open probe failure re-trips immediately; failures recorded
        while already open (stragglers from a batch dispatched before the
        trip) count but cannot re-trip.
        """
        state = self.current_state()
        self.consecutive_failures += 1
        if state == BREAKER_HALF_OPEN or (
            state == BREAKER_CLOSED
            and self.consecutive_failures >= self.policy.failure_threshold
        ):
            self._trip()

    def _trip(self) -> None:
        self.trips += 1
        self._state = BREAKER_OPEN
        self.opened_until = self.clock() + self.policy.open_duration(self.trips)
        self.consecutive_failures = 0
        self._probe_claimed = False
        log_event(logger, "breaker-open", trips=self.trips)


@dataclass(frozen=True)
class CompileResponse:
    """What the service hands back for one resolved request."""

    digest: str
    router: str
    metrics: PointMetrics
    schedule: dict[str, Any]
    source: str

    @property
    def cached(self) -> bool:
        return self.source == SOURCE_CACHE

    def schedule_json(self) -> str:
        """Canonical schedule JSON (byte-stable across cache and compile)."""
        return canonical_json(self.schedule)

    def load_schedule(self) -> FPQASchedule:
        return schedule_from_dict(self.schedule)

    @classmethod
    def from_store(cls, entry: StoreEntry) -> "CompileResponse":
        return cls(
            digest=entry.digest,
            router=entry.router,
            metrics=entry.metrics,
            schedule=entry.schedule,
            source=SOURCE_CACHE,
        )

    @classmethod
    def from_farm(cls, digest: str, result: FarmJobResult) -> "CompileResponse":
        return cls(
            digest=digest,
            router=result.router,
            metrics=result.metrics,
            schedule=result.schedule,
            source=SOURCE_COMPILED,
        )


@dataclass
class ServiceStats:
    """Aggregate serving statistics since service construction.

    Since the observability PR this dataclass is a *view*: the counters
    live in the service's :class:`~repro.obs.metrics.MetricsRegistry`
    (``service_*`` instruments) and ``CompileService.stats`` builds one
    of these from the registry on access — there is no second,
    hand-maintained copy of any number.

    The fault-tolerance counters mirror the farm's per-run stats,
    accumulated across every dispatch: ``retries`` (failed attempts that
    were retried), ``pool_respawns`` (broken process pools rebuilt),
    ``timeouts`` (jobs past their per-job budget), ``failed_jobs``
    (tickets that exhausted the retry budget and were dead-lettered),
    ``store_write_errors`` (results served despite a failed persist) and
    ``degraded`` (sticky: some run fell back to the in-process reference
    executor).

    The overload counters tally *submissions* (coalesced waiters each
    count — every one observed the outcome): ``rejected`` (admission
    refusals plus breaker-open cold rejections), ``shed`` (dropped past
    the high-water mark), ``expired`` (deadline ran out, in queue or in
    the farm) and ``dead_letters_dropped`` (failed tickets trimmed off
    the bounded dead-letter list).  ``breaker_state``/``breaker_trips``
    and the per-lane ``lane_depths`` snapshot complete the overload
    picture.

    ``rejected_invalid`` counts untrusted uploads refused at the
    ingestion boundary (:meth:`CompileService.submit_qasm`) — malformed
    or resource-guard-breaching QASM that never became a queue ticket,
    never reached the farm and never dead-lettered.
    """

    requests: int = 0
    coalesced: int = 0
    cache_hits: int = 0
    cache_misses: int = 0
    farm_dispatches: int = 0
    completed: int = 0
    busy_s: float = 0.0
    queue_depth: int = 0
    retries: int = 0
    pool_respawns: int = 0
    timeouts: int = 0
    failed_jobs: int = 0
    store_write_errors: int = 0
    degraded: bool = False
    rejected: int = 0
    rejected_invalid: int = 0
    shed: int = 0
    expired: int = 0
    dead_letters_dropped: int = 0
    breaker_state: str = BREAKER_CLOSED
    breaker_trips: int = 0
    lane_depths: dict[str, int] = field(default_factory=dict)

    @property
    def cache_hit_rate(self) -> float | None:
        lookups = self.cache_hits + self.cache_misses
        return self.cache_hits / lookups if lookups else None

    @property
    def throughput_rps(self) -> float | None:
        """Completed requests per second of service busy time."""
        return self.completed / self.busy_s if self.busy_s > 0 else None

    def to_dict(self) -> dict[str, Any]:
        return {
            "requests": self.requests,
            "coalesced": self.coalesced,
            "cache_hits": self.cache_hits,
            "cache_misses": self.cache_misses,
            "cache_hit_rate": self.cache_hit_rate,
            "farm_dispatches": self.farm_dispatches,
            "completed": self.completed,
            "busy_s": self.busy_s,
            "throughput_rps": self.throughput_rps,
            "queue_depth": self.queue_depth,
            "retries": self.retries,
            "pool_respawns": self.pool_respawns,
            "timeouts": self.timeouts,
            "failed_jobs": self.failed_jobs,
            "store_write_errors": self.store_write_errors,
            "degraded": self.degraded,
            "rejected": self.rejected,
            "rejected_invalid": self.rejected_invalid,
            "shed": self.shed,
            "expired": self.expired,
            "dead_letters_dropped": self.dead_letters_dropped,
            "breaker_state": self.breaker_state,
            "breaker_trips": self.breaker_trips,
            "lane_depths": dict(self.lane_depths),
        }


class CompileService:
    """Long-lived compile-as-a-service facade over farm + store + queue.

    Parameters
    ----------
    store:
        A :class:`ScheduleStore` or a path to (create and) use as one.
        When constructing from a path the service turns the in-memory
        LRU front tier on (:data:`DEFAULT_MEMORY_ENTRIES`; override with
        ``memory_entries``, gzip the disk tier with ``compress=True``).
        A ready-made store is used exactly as configured.
    executor:
        Farm backend for cache misses.  Defaults to ``"thread"`` — a
        serving process wants no spawn cost and its traffic is dominated
        by store lookups; use ``"process"`` for compile-heavy batches or
        ``"reference"`` for the deterministic serial oracle.
    max_workers, batch_size:
        Pool width for the farm, and the default number of unique
        requests drained per :meth:`process_batch` call (None = all).
    policy:
        The farm's :class:`~repro.core.farm.FarmPolicy` — retry budget,
        backoff, per-job timeout, pool respawns.  A job that exhausts it
        fails only its own ticket (typed, dead-lettered); the batch and
        the service survive.
    queue_policy:
        The :class:`~repro.service.queue.QueuePolicy` — admission limits
        (``max_depth``, ``max_pending_per_client``), priority lanes and
        the ``shed_high_water`` mark.  Defaults to unbounded with the
        standard lanes (the pre-overload-control behaviour).
    breaker:
        The :class:`BreakerPolicy` of the farm-dispatch circuit breaker
        (always on; the default trips after 5 consecutive failures).
    clock:
        Monotonic time source for deadlines and breaker timing
        (injectable so overload tests are deterministic).  The farm keeps
        real time — deadlines cross into it as *relative* budgets.
    max_dead_letters, evict_lock_stale_s:
        Bounds threaded through to :attr:`JobQueue.max_dead_letters` and
        the store's eviction-lock staleness cutoff
        (``evict_lock_stale_s`` applies only to stores the service
        constructs from a path; a ready-made store keeps its own).
    """

    def __init__(
        self,
        store: ScheduleStore | str | Path,
        *,
        executor: str = "thread",
        max_workers: int | None = None,
        batch_size: int | None = None,
        policy: FarmPolicy | None = None,
        memory_entries: int | None = DEFAULT_MEMORY_ENTRIES,
        compress: bool = False,
        queue_policy: QueuePolicy | None = None,
        breaker: BreakerPolicy | None = None,
        clock: Callable[[], float] | None = None,
        max_dead_letters: int | None = None,
        evict_lock_stale_s: float | None = None,
        registry: MetricsRegistry | None = None,
    ):
        # one registry per service by default, so concurrent services
        # (and tests) observe only their own traffic; pass
        # ``registry=repro.obs.REGISTRY`` to publish process-wide
        self.registry = registry if registry is not None else MetricsRegistry()
        if isinstance(store, ScheduleStore):
            self.store = store
        else:
            store_kwargs: dict[str, Any] = {
                "memory_entries": memory_entries,
                "compress": compress,
                "registry": self.registry,
            }
            if evict_lock_stale_s is not None:
                store_kwargs["evict_lock_stale_s"] = evict_lock_stale_s
            self.store = ScheduleStore(store, **store_kwargs)
        self.farm = CompileFarm(
            executor, max_workers=max_workers, policy=policy, registry=self.registry
        )
        self._clock = clock or time.monotonic
        self.queue = JobQueue(
            queue_policy, max_dead_letters=max_dead_letters, clock=self._clock
        )
        self.breaker = CircuitBreaker(breaker, clock=self._clock)
        self.batch_size = batch_size
        # hot-path instrument handles (the registry get-or-create is
        # locked; the serving loop should not pay it per request)
        metric = self.registry.counter
        self._c_requests = metric("service_requests_total")
        self._c_coalesced = metric("service_coalesced_total")
        self._c_cache_hits = metric("service_cache_hits_total")
        self._c_cache_misses = metric("service_cache_misses_total")
        self._c_farm_dispatches = metric("service_farm_dispatches_total")
        self._c_completed = metric("service_completed_total")
        self._c_busy = metric("service_busy_seconds_total")
        self._c_retries = metric("service_retries_total")
        self._c_pool_respawns = metric("service_pool_respawns_total")
        self._c_timeouts = metric("service_timeouts_total")
        self._c_failed_jobs = metric("service_failed_jobs_total")
        self._c_store_write_errors = metric("service_store_write_errors_total")
        self._c_rejected = metric("service_rejected_total")
        self._c_rejected_invalid = metric("service_rejected_invalid_total")
        self._c_shed = metric("service_shed_total")
        self._c_expired = metric("service_expired_total")
        self._g_degraded = self.registry.gauge("service_degraded")

    # -- stats ----------------------------------------------------------
    @property
    def stats(self) -> ServiceStats:
        """Live aggregate stats — a view over the metrics registry."""
        self._refresh_gauges()
        return ServiceStats(
            requests=int(self._c_requests.value),
            coalesced=int(self._c_coalesced.value),
            cache_hits=int(self._c_cache_hits.value),
            cache_misses=int(self._c_cache_misses.value),
            farm_dispatches=int(self._c_farm_dispatches.value),
            completed=int(self._c_completed.value),
            busy_s=float(self._c_busy.value),
            queue_depth=self.queue.depth,
            retries=int(self._c_retries.value),
            pool_respawns=int(self._c_pool_respawns.value),
            timeouts=int(self._c_timeouts.value),
            failed_jobs=int(self._c_failed_jobs.value),
            store_write_errors=int(self._c_store_write_errors.value),
            degraded=bool(self._g_degraded.value),
            rejected=int(self._c_rejected.value),
            rejected_invalid=int(self._c_rejected_invalid.value),
            shed=int(self._c_shed.value),
            expired=int(self._c_expired.value),
            dead_letters_dropped=self.queue.dead_letters_dropped,
            breaker_state=self.breaker.current_state(),
            breaker_trips=self.breaker.trips,
            lane_depths=self.queue.lane_depths(),
        )

    def _refresh_gauges(self) -> None:
        """Mirror live queue/breaker readings into registry gauges.

        Called on every stats/exposition access so the gauges in
        ``stats --metrics`` output match what the :class:`ServiceStats`
        view reports.
        """
        registry = self.registry
        registry.gauge("service_queue_depth").set(self.queue.depth)
        for lane, depth in self.queue.lane_depths().items():
            registry.gauge("service_lane_depth", lane=lane).set(depth)
        registry.gauge("service_dead_letters_dropped").set(self.queue.dead_letters_dropped)
        registry.gauge("service_breaker_trips").set(self.breaker.trips)
        state = self.breaker.current_state()
        for name in (BREAKER_CLOSED, BREAKER_OPEN, BREAKER_HALF_OPEN):
            registry.gauge("service_breaker_state", state=name).set(
                1 if name == state else 0
            )

    def metrics_dict(self) -> dict[str, Any]:
        """Registry JSON exposition with gauges refreshed."""
        self._refresh_gauges()
        return self.registry.to_dict()

    def metrics_prometheus(self) -> str:
        """Registry Prometheus text exposition with gauges refreshed."""
        self._refresh_gauges()
        return self.registry.to_prometheus()

    def _absorb_farm_stats(self) -> None:
        """Fold the farm's last-run fault counters into the service view."""
        last = self.farm.last_stats
        for counter, key in (
            (self._c_retries, "retries"),
            (self._c_pool_respawns, "pool_respawns"),
            (self._c_timeouts, "timeouts"),
        ):
            if last.get(key):
                counter.inc(last[key])
        if last.get("degraded"):
            self._g_degraded.set(1)

    def _observe_compile(self, result: FarmJobResult) -> None:
        """Record a successful compile in the per-router time histogram."""
        elapsed = result.metrics.compile_time_s
        if elapsed is not None:
            self.registry.histogram(
                "service_compile_seconds", router=result.router
            ).observe(elapsed)

    # -- persistence -----------------------------------------------------
    def _store_put(self, digest: str, result: FarmJobResult) -> bool:
        """Persist a result, logging (never raising) on failure.

        A compile that succeeded must reach its waiters even when the
        disk is unhappy — the store is a cache, not the source of truth.
        Returns False when the write failed (the next identical request
        recompiles).
        """
        try:
            with span("store-write", digest=digest[:12]):
                self.store.put(digest, result)
            return True
        except Exception as exc:
            self._c_store_write_errors.inc()
            log_event(
                logger,
                "store-write-failed",
                digest=digest[:12],
                error=type(exc).__name__,
                message=str(exc),
            )
            return False

    def _bury(
        self,
        ticket: QueuedJob,
        error: BaseException | FarmJobError,
        counter: Counter,
        count: int,
        event: str,
        /,
        **fields: Any,
    ) -> None:
        """Fail a ticket with its typed cause, dead-letter it, count and log it.

        The one failure exit: farm failures, expiries, breaker rejections
        and sheds all end here.  Coalesced waiters share the ticket, so
        every one of them observes ``error``.
        """
        ticket.fail(error)
        self.queue.bury(ticket)
        counter.inc(count)
        log_event(logger, event, digest=ticket.digest[:12], **fields)

    def _expire_ticket(self, ticket: QueuedJob) -> None:
        """Fail a ticket whose deadline ran out; every waiter sees it."""
        error = DeadlineExceeded(
            f"request {ticket.digest[:12]} deadline expired before completion",
            digest=ticket.digest,
        )
        self._bury(ticket, error, self._c_expired, ticket.submissions,
                   "request-expired", waiters=ticket.submissions)

    def _shed_over_high_water(self) -> None:
        """Drop lowest-priority queued work past the high-water mark."""
        high = self.queue.policy.shed_high_water
        if high is None or self.queue.depth <= high:
            return
        for ticket in self.queue.shed(self.queue.depth - high):
            error = LoadShedError(
                f"request {ticket.digest[:12]} shed: queue depth crossed "
                f"high water ({high})",
                client_id=ticket.request.client_id,
                lane=ticket.lane,
                reason="load-shed",
            )
            self._bury(ticket, error, self._c_shed, ticket.submissions,
                       "request-shed", lane=ticket.lane, waiters=ticket.submissions)

    def _breaker_admits(self) -> bool:
        """Whether cold dispatch is allowed right now (claims the probe)."""
        state = self.breaker.current_state()
        if state == BREAKER_CLOSED:
            return True
        if state == BREAKER_HALF_OPEN:
            return self.breaker.allow_probe()
        return False

    # -- submission ------------------------------------------------------
    def submit(self, request: CompileRequest) -> QueuedJob:
        """Queue one request; identical pending requests share a ticket.

        Raises :class:`~repro.exceptions.AdmissionError` when the queue
        policy refuses the request (over depth, over the client's quota,
        unknown lane) — overload rejects fast instead of queueing
        unboundedly.  A successful submit may shed *other* queued work if
        depth crossed the policy's high-water mark (those tickets fail
        with :class:`~repro.exceptions.LoadShedError`).
        """
        self._c_requests.inc()
        try:
            ticket = self.queue.submit(request)
        except AdmissionError as exc:
            self._c_rejected.inc()
            log_event(
                logger,
                "request-rejected",
                digest=request.digest()[:12],
                reason="admission",
                error=type(exc).__name__,
            )
            raise
        if ticket.submissions > 1:
            self._c_coalesced.inc()
        self._shed_over_high_water()
        return ticket

    def submit_all(self, requests: Iterable[CompileRequest]) -> list[QueuedJob]:
        return [self.submit(request) for request in requests]

    # -- the service loop ------------------------------------------------
    def process_batch(self, limit: int | None = None) -> list[QueuedJob]:
        """Drain one batch: answer warm keys from the store, farm the rest.

        Returns the popped tickets in weighted lane order.  Only cold
        keys reach the farm — a batch of all-warm requests performs
        **zero** router invocations.  Overload semantics: tickets whose
        deadline already passed fail fast with
        :class:`~repro.exceptions.DeadlineExceeded` (expired-in-queue
        work is never dispatched), cold keys are rejected with
        :class:`~repro.exceptions.CircuitOpenError` while the breaker is
        open (warm keys keep serving from the store), and dispatched
        jobs carry their remaining deadline budget into the farm.
        """
        start = time.perf_counter()
        batch = self.queue.pop_batch(self.batch_size if limit is None else limit)
        cold = [ticket for ticket in batch if not self._lookup(ticket)]
        for _ in self._dispatch(cold, in_slot_order=True):
            pass
        # per *resolved* submission, exactly like stream(): coalesced
        # waiters each count as a completed request, but a failed
        # ticket's submissions were never served and must not inflate
        # completed (and through it throughput_rps) under faults
        done = sum(ticket.submissions for ticket in batch if ticket.done)
        if done:
            self._c_completed.inc(done)
        self._c_busy.inc(time.perf_counter() - start)
        return batch

    def _lookup(self, ticket: QueuedJob) -> bool:
        """Serve ``ticket`` from the store or expire it; False leaves a miss to dispatch."""
        entry = None
        if not ticket.expired(self._clock()):
            with span("store-get", digest=ticket.digest[:12]) as get_span:
                entry = self.store.get(ticket.digest)
                get_span.set("outcome", "hit" if entry is not None else "miss")
        # one check after the read covers both: the clock is monotonic,
        # and a slow store (``slow-store-read``) can burn the whole budget
        if ticket.expired(self._clock()):
            self._expire_ticket(ticket)
            return True
        if entry is None:
            self._c_cache_misses.inc()
            return False
        self._c_cache_hits.inc()
        ticket.resolve(CompileResponse.from_store(entry))
        self.queue.finish(ticket)
        return True

    def _dispatch(self, cold: list[QueuedJob], *, in_slot_order: bool) -> Iterator[QueuedJob]:
        """Compile cold tickets in one farm run; yield each as it resolves.

        ``in_slot_order`` picks the farm call: :meth:`CompileFarm.run`
        under a ``farm-dispatch`` span, settled in slot order (batch), or
        :meth:`CompileFarm.iter_results`, settled in completion order
        (stream).  On a pool that order is the order the breaker sees.
        """
        if not cold:
            return
        for ticket in cold:
            if not self._breaker_admits():
                error = CircuitOpenError(
                    f"circuit breaker open; cold request {ticket.digest[:12]} rejected",
                    digest=ticket.digest,
                )
                self._bury(ticket, error, self._c_rejected, ticket.submissions,
                           "request-rejected", reason="breaker-open", waiters=ticket.submissions)
        now = self._clock()
        for ticket in cold:
            if not ticket.failed and ticket.expired(now):
                self._expire_ticket(ticket)
        ready = [ticket for ticket in cold if not ticket.failed]
        jobs = [ticket.request.job() for ticket in ready]
        if tracing_enabled():
            # digest/memo keys exclude ``trace``, so flipping it on changes
            # nothing the farm computes or keys — it only ships span records back
            jobs = [replace(job, options=replace(job.options, trace=True)) for job in jobs]
        self._c_farm_dispatches.inc(len(jobs))
        if not jobs:
            return
        budgets = [ticket.remaining_budget(now) for ticket in ready]
        try:
            if in_slot_order:
                with span("farm-dispatch", jobs=len(jobs)):
                    results = self.farm.run(jobs, with_schedules=True, deadlines=budgets)
                    for result in results:
                        if not result.failed:
                            adopt(result.spans)
                settled: Iterator[tuple[int, Any]] = enumerate(results)
            else:
                settled = self.farm.iter_results(jobs, with_schedules=True, deadlines=budgets)
            for index, result in settled:
                ticket = ready[index]
                if not in_slot_order and not result.failed:
                    # graft worker spans under whatever span is live on
                    # the consumer's thread right now
                    adopt(result.spans)
                if isinstance(result, FarmJobError):
                    # both real failures and in-farm expiries count
                    # against the breaker: either way the farm is not
                    # completing work right now
                    if result.error_type == "DeadlineExceeded":
                        self._expire_ticket(ticket)
                    else:
                        self._bury(ticket, result, self._c_failed_jobs, 1, "dead-letter",
                                   error=result.error_type, attempts=result.attempts)
                    self.breaker.record_failure()
                    continue
                self.breaker.record_success()
                self._observe_compile(result)
                self._store_put(ticket.digest, result)
                ticket.resolve(CompileResponse.from_farm(ticket.digest, result))
                self.queue.finish(ticket)
                yield ticket
        except BaseException as exc:
            # the tickets are out of the queue — mark the unresolved ones
            # failed so waiters see the error instead of hanging
            for ticket in ready:
                if not ticket.done and not ticket.failed:
                    ticket.fail(exc)
                    self.queue.finish(ticket)
            raise
        finally:
            # absorbed even when the run raised or the stream closed early
            if not in_slot_order:
                settled.close()
            self._absorb_farm_stats()

    def drain(self) -> list[QueuedJob]:
        """Process batches until the queue is empty."""
        resolved: list[QueuedJob] = []
        while self.queue.depth:
            resolved.extend(self.process_batch())
        return resolved

    def resolve(self, ticket: QueuedJob) -> CompileResponse:
        """Drive the service loop until ``ticket`` resolves (or raise typed)."""
        while not ticket.done:
            if ticket.status == FAILED:
                ticket.raise_error()
            if not self.queue.depth:
                raise QPilotError("ticket pending but queue empty — ticket failed?")
            self.process_batch()
        return ticket.response

    def compile(self, request: CompileRequest) -> CompileResponse:
        """Synchronous convenience: submit one request and resolve it now.

        Coalesces with any identical request already queued (both tickets
        resolve together, in queue order).
        """
        # the root span wraps submit *and* resolve so one traced compile
        # is a single rooted tree (ingest/store/farm spans nest inside)
        with span("request", workload=request.workload.name):
            return self.resolve(self.submit(request))

    # -- untrusted ingestion ----------------------------------------------
    def ingest_qasm(self, text: str, *, limits=None, name: str | None = None) -> WorkloadSpec:
        """Validate untrusted OpenQASM text into a content-addressed spec.

        This is the abuse boundary: the text is validated under ``limits``
        (default :data:`repro.circuit.DEFAULT_LIMITS`) before any queue
        ticket or farm job exists; a repeat upload already accepted under
        limits at least as tight is answered by
        :func:`repro.circuit.validate_qasm`'s memo without a parse.  A
        failure — syntax, hostile angle expression, out-of-range or
        duplicate operands, missing or conflicting ``qreg``,
        resource-guard breach — increments
        ``ServiceStats.rejected_invalid`` and raises a typed
        :class:`~repro.exceptions.InvalidCircuitError` carrying the
        offending line/column, with the underlying
        :class:`~repro.exceptions.CircuitError` chained as ``__cause__``.
        Invalid input is **never** dispatched and never dead-letters.
        """
        try:
            with span("ingest", bytes=len(text)):
                return WorkloadSpec.qasm(text, limits=limits, name=name)
        except CircuitError as exc:
            self._c_rejected_invalid.inc()
            log_event(
                logger,
                "invalid-circuit",
                error=type(exc).__name__,
                line=getattr(exc, "line", None),
                column=getattr(exc, "column", None),
            )
            raise InvalidCircuitError(
                f"invalid QASM circuit rejected: {exc}",
                line=getattr(exc, "line", None),
                column=getattr(exc, "column", None),
            ) from exc

    def submit_qasm(
        self,
        text: str,
        *,
        width: int | None = None,
        config: "FPQAConfig | None" = None,
        options: FarmOptions | None = None,
        limits=None,
        name: str | None = None,
        client_id: str = "anonymous",
        priority: str | None = None,
        deadline_s: float | None = None,
    ) -> QueuedJob:
        """Queue one untrusted QASM upload (validated first; see above).

        Exactly one of ``width`` (an FPQA array width sized to the
        circuit) or a ready-made ``config`` must be given.  Identical
        text under identical config/options coalesces with any pending
        ticket and warm-serves from the store — uploads are
        content-addressed by their sha1 like every other workload.
        """
        spec = self.ingest_qasm(text, limits=limits, name=name)
        if (width is None) == (config is None):
            raise QPilotError("submit_qasm needs exactly one of width= or config=")
        if config is None:
            config = FPQAConfig.with_width(spec.num_qubits, int(width))
        request = CompileRequest(
            workload=spec,
            config=config,
            options=options or FarmOptions(),
            client_id=client_id,
            priority=priority,
            deadline_s=deadline_s,
        )
        return self.submit(request)

    def compile_qasm(self, text: str, **kwargs) -> CompileResponse:
        """Synchronous convenience: :meth:`submit_qasm` + :meth:`resolve`."""
        with span("request", workload="qasm"):
            return self.resolve(self.submit_qasm(text, **kwargs))

    # -- cache warming ---------------------------------------------------
    def warm_from(self, sweep: "SweepResult") -> dict[str, int]:
        """Warm the store from an archived DSE trajectory.

        ``sweep`` is a :class:`~repro.core.dse.SweepResult` — typically
        ``SweepResult.from_json`` of an archive file.  Every point whose
        job record (``DesignPoint.job``, written by ``sweep_grid``) can
        be rebuilt into a :class:`CompileRequest` and whose digest is not
        already servable gets compiled through the normal streaming path
        and persisted — so a store can be pre-populated from yesterday's
        trajectories before today's traffic arrives.

        Returns counts: ``points`` (seen), ``warmed`` (compiled and
        persisted now), ``already`` (servable before the call) and
        ``skipped`` (failed points and pre-job-record archives).
        """
        counts = {"points": 0, "warmed": 0, "already": 0, "skipped": 0}
        requests: list[CompileRequest] = []
        seen: set[str] = set()
        for point in sweep.points:
            counts["points"] += 1
            record = getattr(point, "job", None)
            if point.failed or not record:
                counts["skipped"] += 1
                continue
            try:
                request = CompileRequest(
                    workload=WorkloadSpec.from_dict(record["workload"]),
                    config=point.config,
                    options=FarmOptions.from_dict(record.get("options") or {}),
                )
                digest = request.digest()
            except (KeyError, TypeError, ValueError, QPilotError):
                counts["skipped"] += 1
                continue
            if digest in seen or digest in self.store:
                counts["already"] += 1
                continue
            seen.add(digest)
            requests.append(request)
        for _ in self.stream(requests):
            pass  # responses persist as they land; warming wants no output
        counts["warmed"] = len(requests)
        return counts

    # -- streaming -------------------------------------------------------
    def stream(
        self, requests: Iterable[CompileRequest], *, chunk_size: int | None = None
    ) -> Iterator[CompileResponse]:
        """Yield a response per *request* as each resolves, incrementally.

        Requests are consumed in chunks (``chunk_size``, defaulting to
        ``batch_size`` or :data:`DEFAULT_STREAM_CHUNK`): within a chunk,
        cache hits are yielded immediately and misses stream out of the
        farm in completion order (:meth:`CompileFarm.iter_results`), each
        persisted to the store as it lands.  Duplicate requests each get
        a response — in-chunk duplicates share one compile, cross-chunk
        duplicates hit the store — so the output count always matches the
        input count.  Memory stays bounded by the chunk size and the
        in-flight compiles, not the sweep size, and the input may be an
        unbounded generator — the service-side face of
        ``sweep_grid(..., stream=True)``.
        """
        size = chunk_size if chunk_size is not None else (
            self.batch_size or DEFAULT_STREAM_CHUNK
        )
        if size < 1:
            raise QPilotError("stream chunk_size must be at least 1")
        chunk: list[CompileRequest] = []
        for request in requests:
            chunk.append(request)
            if len(chunk) >= size:
                yield from self._stream_chunk(chunk)
                chunk = []
        if chunk:
            yield from self._stream_chunk(chunk)

    def _stream_chunk(self, chunk: list[CompileRequest]) -> Iterator[CompileResponse]:
        # The streaming path is pull-based — the consumer's pace is its
        # own backpressure — so admission quotas deliberately do not
        # apply here.  Deadlines and the circuit breaker do: an expired
        # or breaker-rejected request is typed + dead-lettered and the
        # output count shrinks by its submissions, same as a failure.
        start = time.perf_counter()
        cold: dict[str, QueuedJob] = {}
        default_lane = self.queue.policy.default_lane
        for request in chunk:
            self._c_requests.inc()
            digest = request.digest()
            ticket = cold.get(digest)
            if ticket is not None:
                # already being compiled in this chunk — the shared ticket
                # will emit one extra response when it resolves, and its
                # deadline tightens to the strictest waiter's
                self._c_coalesced.inc()
                ticket.submissions += 1
                self.queue._tighten_deadline(ticket, request)
                continue
            deadline_at = (
                None if request.deadline_s is None else self._clock() + request.deadline_s
            )
            lane = request.priority if request.priority is not None else default_lane
            ticket = QueuedJob(request=request, digest=digest, lane=lane, deadline_at=deadline_at)
            if not self._lookup(ticket):
                cold[digest] = ticket
            elif ticket.done:
                self._c_completed.inc()
                self._c_busy.inc(time.perf_counter() - start)
                yield ticket.response
                start = time.perf_counter()
        with closing(self._dispatch(list(cold.values()), in_slot_order=False)) as resolved:
            for ticket in resolved:
                for _ in range(ticket.submissions):
                    self._c_completed.inc()
                    self._c_busy.inc(time.perf_counter() - start)
                    yield ticket.response
                    start = time.perf_counter()
