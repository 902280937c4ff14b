"""Compile requests and the admission-controlled, priority-laned job queue.

Clients describe work as :class:`CompileRequest` values — a picklable
:class:`~repro.core.farm.WorkloadSpec` plus the target
:class:`~repro.hardware.fpqa.FPQAConfig` and router
:class:`~repro.core.farm.FarmOptions` — exactly the farm's job model, so
a request *is* a grid cell and inherits its content-addressed digest.
Serving metadata rides alongside: ``client_id`` (fairness accounting),
``priority`` (which lane the request queues in) and ``deadline_s`` (the
end-to-end budget).  None of it participates in the digest — a request
is the *same work* whoever asks for it and however urgently, which is
what lets requests from different clients coalesce and share cache
entries.

:class:`JobQueue` is the service's admission layer, governed by a
:class:`QueuePolicy`:

* **Admission control** — submitting beyond ``max_depth`` unique pending
  requests, beyond a client's ``max_pending_per_client`` quota, or into
  an unknown lane raises a typed
  :class:`~repro.exceptions.AdmissionError` *instead of growing the
  queue*.  Overload becomes fast rejection, never unbounded memory.
* **Priority lanes** — each request queues FIFO in its lane, and
  :meth:`pop_batch` drains lanes by deterministic weighted round-robin
  (lane declared order, up to ``weight`` tickets per visit), so the
  interleaving is a pure function of the submit/pop sequence and is
  pinned by tests.  A duplicate submission at a higher priority promotes
  the shared ticket into the better lane.
* **In-flight coalescing** — submitting an *identical* request (same
  digest) while the first is still queued coalesces onto the same
  ticket; a coalesced ticket's deadline is the *tightest* of its
  waiters' budgets.
* **Load shedding** — :meth:`shed` removes queued tickets
  lowest-priority-lane first, newest first within a lane, for the
  service to fail with :class:`~repro.exceptions.LoadShedError` when
  depth crosses the policy's high-water mark.

Failure is part of the ticket lifecycle: :meth:`QueuedJob.fail` records
the *typed* cause (exception type, message, traceback, attempts), every
coalesced waiter observes it on the shared ticket, and
:meth:`QueuedJob.raise_error` re-raises it faithfully — service-level
causes (:class:`~repro.exceptions.AdmissionError`,
:class:`~repro.exceptions.DeadlineExceeded`,
:class:`~repro.exceptions.CircuitOpenError`) come back as themselves,
farm failures as a :class:`~repro.exceptions.CompileError`.  Failed
tickets are buried on the queue's ``dead_letters`` list (bounded by
``max_dead_letters``; trims are counted in ``dead_letters_dropped``, so
loss is visible, never silent).
"""

from __future__ import annotations

import time
import traceback as traceback_module
from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Any, Callable, Iterable

from repro.core.farm import FarmJob, FarmJobError, FarmOptions, WorkloadSpec
from repro.exceptions import (
    AdmissionError,
    CircuitOpenError,
    CompileError,
    DeadlineExceeded,
    QPilotError,
)
from repro.hardware.fpqa import FPQAConfig

#: Lifecycle states of a queued job.
PENDING = "pending"
DONE = "done"
FAILED = "failed"

#: Default priority lanes, highest priority first: ``(name, weight)``
#: pairs.  The weights set the drain ratio under contention — for every
#: 4 interactive tickets the scheduler serves up to 2 batch and 1
#: background ticket, deterministically.
DEFAULT_LANES: tuple[tuple[str, int], ...] = (
    ("interactive", 4),
    ("batch", 2),
    ("background", 1),
)

#: Typed causes :meth:`QueuedJob.raise_error` re-raises as themselves
#: (service-layer rejections) instead of wrapping in ``CompileError``.
_TYPED_CAUSES = (AdmissionError, DeadlineExceeded, CircuitOpenError)


@dataclass(frozen=True)
class QueuePolicy:
    """Admission and scheduling policy of one :class:`JobQueue`.

    * ``max_depth`` — unique pending requests admitted before submission
      raises ``AdmissionError(reason="queue-full")`` (None = unbounded,
      the pre-overload-control behaviour).
    * ``max_pending_per_client`` — pending *submissions* (coalesced ones
      included: each is work the client is waiting on) one ``client_id``
      may hold before ``AdmissionError(reason="client-quota")``.
    * ``lanes`` — ``(name, weight)`` pairs, highest priority first.
      :meth:`JobQueue.pop_batch` serves up to ``weight`` tickets from a
      lane per round-robin visit; shedding drops from the *last* lane
      first.
    * ``shed_high_water`` — queue depth above which the service sheds
      lowest-priority queued work down to the mark (None = never shed).
      Must not exceed ``max_depth``: admission is the hard wall, the
      high-water mark the soft one below it.
    """

    max_depth: int | None = None
    max_pending_per_client: int | None = None
    lanes: tuple[tuple[str, int], ...] = DEFAULT_LANES
    shed_high_water: int | None = None

    def __post_init__(self) -> None:
        lanes = tuple((str(name), int(weight)) for name, weight in self.lanes)
        object.__setattr__(self, "lanes", lanes)
        if not lanes:
            raise QPilotError("QueuePolicy needs at least one lane")
        names = [name for name, _ in lanes]
        if len(set(names)) != len(names):
            raise QPilotError(f"lane names must be unique, got {names}")
        if any(weight < 1 for _, weight in lanes):
            raise QPilotError("lane weights must be at least 1")
        if self.max_depth is not None and self.max_depth < 1:
            raise QPilotError("max_depth must be at least 1 (or None for unbounded)")
        if self.max_pending_per_client is not None and self.max_pending_per_client < 1:
            raise QPilotError(
                "max_pending_per_client must be at least 1 (or None for unbounded)"
            )
        if self.shed_high_water is not None:
            if self.shed_high_water < 1:
                raise QPilotError("shed_high_water must be at least 1 (or None)")
            if self.max_depth is not None and self.shed_high_water > self.max_depth:
                raise QPilotError("shed_high_water must not exceed max_depth")

    @property
    def default_lane(self) -> str:
        """Lane a request with ``priority=None`` queues in (the first)."""
        return self.lanes[0][0]

    def lane_names(self) -> tuple[str, ...]:
        return tuple(name for name, _ in self.lanes)

    def lane_index(self, name: str) -> int:
        for index, (lane, _) in enumerate(self.lanes):
            if lane == name:
                return index
        raise QPilotError(f"unknown lane {name!r}; expected one of {self.lane_names()}")


@dataclass(frozen=True)
class CompileRequest:
    """One client request: compile ``workload`` on ``config`` with ``options``.

    ``client_id``, ``priority`` and ``deadline_s`` are *serving*
    metadata — they steer admission, lane scheduling and expiry but
    never the digest, so identical work coalesces and shares cache
    entries across clients and priorities.  ``priority`` names a policy
    lane (None = the policy's first lane); ``deadline_s`` is the
    end-to-end budget in seconds from submission (None = no deadline).
    """

    workload: WorkloadSpec
    config: FPQAConfig
    options: FarmOptions = field(default_factory=FarmOptions)
    client_id: str = "anonymous"
    priority: str | None = None
    deadline_s: float | None = None

    def __post_init__(self) -> None:
        if self.deadline_s is not None and self.deadline_s <= 0:
            raise QPilotError("deadline_s must be positive (or None for no deadline)")

    def job(self) -> FarmJob:
        """The farm job this request maps to."""
        return FarmJob(workload=self.workload, config=self.config, options=self.options)

    def digest(self) -> str:
        """Content-addressed key shared with the farm memo and the store.

        A pure function of the *work* (workload, config, options) — the
        serving metadata is deliberately excluded.
        """
        return self.job().digest()

    @classmethod
    def for_width(
        cls,
        workload: WorkloadSpec,
        width: int,
        *,
        options: FarmOptions | None = None,
        client_id: str = "anonymous",
        priority: str | None = None,
        deadline_s: float | None = None,
        **config_kwargs: Any,
    ) -> "CompileRequest":
        """Request the workload on the standard array of a given width."""
        config = FPQAConfig.with_width(workload.num_qubits, int(width), **config_kwargs)
        return cls(
            workload=workload,
            config=config,
            options=options or FarmOptions(),
            client_id=client_id,
            priority=priority,
            deadline_s=deadline_s,
        )


@dataclass
class QueuedJob:
    """Ticket for one unique in-flight request.

    ``submissions`` counts how many client requests coalesced onto this
    ticket, ``clients`` breaks that down per ``client_id`` (the quota
    ledger the queue releases when the ticket finishes), ``lane`` is the
    lane the ticket currently queues in and ``deadline_at`` the tightest
    absolute deadline (queue-clock seconds) among its waiters.
    ``response`` is filled by the service when the job resolves (a
    ``CompileResponse``), ``error`` (plus the typed
    ``error_type``/``error_traceback``/``attempts`` trio and the live
    ``cause`` exception) when it fails.  Because coalesced waiters share
    the ticket *object*, a failure is observed by every one of them —
    :meth:`raise_error` turns it back into the faithful typed exception.
    """

    request: CompileRequest
    digest: str
    status: str = PENDING
    submissions: int = 1
    lane: str = ""
    deadline_at: float | None = None
    clients: dict[str, int] = field(default_factory=dict)
    response: Any = None
    error: str | None = None
    error_type: str | None = None
    error_traceback: str | None = None
    attempts: int | None = None
    cause: BaseException | None = None
    #: Set once the queue has released this ticket's quota accounting.
    finished: bool = False

    @property
    def done(self) -> bool:
        return self.status == DONE

    @property
    def failed(self) -> bool:
        return self.status == FAILED

    def resolve(self, response: Any) -> None:
        self.status = DONE
        self.response = response

    def expired(self, now: float) -> bool:
        """Whether this ticket's deadline has passed at queue-clock ``now``."""
        return self.deadline_at is not None and now >= self.deadline_at

    def remaining_budget(self, now: float) -> float | None:
        """Seconds of deadline budget left at ``now`` (None = no deadline)."""
        if self.deadline_at is None:
            return None
        return self.deadline_at - now

    def fail(self, error: BaseException | FarmJobError) -> None:
        """Mark the ticket failed, keeping its typed cause.

        Accepts a live exception or the farm's
        :class:`~repro.core.farm.FarmJobError` record — whichever the
        failure site has in hand.
        """
        self.status = FAILED
        if isinstance(error, FarmJobError):
            self.error = error.message
            self.error_type = error.error_type
            self.error_traceback = error.traceback
            self.attempts = error.attempts
        else:
            self.cause = error
            self.error = str(error)
            self.error_type = type(error).__name__
            self.error_traceback = "".join(
                traceback_module.format_exception(type(error), error, error.__traceback__)
            )

    def raise_error(self) -> None:
        """Re-raise a failed ticket as its faithful typed exception.

        Service-layer causes — shed, expired, breaker-rejected — are
        re-raised as themselves; farm failures become a typed
        :class:`~repro.exceptions.CompileError`.
        """
        if self.status != FAILED:
            raise QPilotError("raise_error on a ticket that has not failed")
        if isinstance(self.cause, _TYPED_CAUSES):
            raise self.cause
        raise CompileError(
            f"compile request {self.digest[:12]} failed"
            + (f" ({self.error_type})" if self.error_type else "")
            + f": {self.error}",
            error_type=self.error_type,
            traceback=self.error_traceback,
            digest=self.digest,
            attempts=self.attempts,
        )


class JobQueue:
    """Admission-controlled priority queue of unique compile requests.

    Identical in-flight requests coalesce onto one ticket; tickets queue
    FIFO within their priority lane and :meth:`pop_batch` drains lanes
    by deterministic weighted round-robin.  The :class:`QueuePolicy`
    bounds the queue: over-depth and over-quota submissions are rejected
    with a typed :class:`~repro.exceptions.AdmissionError` — the queue
    *never* grows without limit.

    ``dead_letters`` collects tickets that ultimately failed (capped at
    ``max_dead_letters``, oldest dropped first and counted in
    ``dead_letters_dropped``): the service buries each failure there so
    every coalesced waiter — and any operator — can see what could not
    be served and why, without the list growing without bound under a
    persistent fault.

    ``clock`` is the monotonic time source deadlines are computed
    against (injectable so expiry is deterministic in tests).
    """

    #: Default for ``max_dead_letters`` (kept as a class attribute for
    #: backwards compatibility with pre-policy callers).
    MAX_DEAD_LETTERS = 256

    def __init__(
        self,
        policy: QueuePolicy | None = None,
        *,
        max_dead_letters: int | None = None,
        clock: Callable[[], float] | None = None,
    ) -> None:
        self.policy = policy or QueuePolicy()
        if max_dead_letters is not None and max_dead_letters < 0:
            raise QPilotError("max_dead_letters must be non-negative")
        self.max_dead_letters = (
            self.MAX_DEAD_LETTERS if max_dead_letters is None else max_dead_letters
        )
        self.clock = clock or time.monotonic
        self._pending: dict[str, QueuedJob] = {}
        # per-lane FIFO of queued tickets (digest -> ticket, oldest first)
        self._lanes: dict[str, OrderedDict[str, QueuedJob]] = {
            name: OrderedDict() for name in self.policy.lane_names()
        }
        # weighted-round-robin scheduler state: current lane + remaining
        # credit for it (reset to the lane's weight on every re-entry)
        self._cursor = 0
        self._credit = self.policy.lanes[0][1]
        # pending submissions per client (the quota ledger)
        self._client_pending: dict[str, int] = {}
        self.submitted = 0
        self.coalesced = 0
        self.rejected = 0
        self.dead_letters: list[QueuedJob] = []
        self.dead_letters_dropped = 0

    # -- introspection ---------------------------------------------------
    @property
    def depth(self) -> int:
        """Unique requests currently waiting."""
        return len(self._pending)

    def lane_depths(self) -> dict[str, int]:
        """Queued-ticket count per lane (every policy lane, zeros kept)."""
        return {name: len(bucket) for name, bucket in self._lanes.items()}

    def client_pending(self, client_id: str) -> int:
        """Pending submissions currently held by one client."""
        return self._client_pending.get(client_id, 0)

    def pending_by_client(self) -> dict[str, int]:
        """Snapshot of the quota ledger (clients with zero pending omitted)."""
        return dict(self._client_pending)

    # -- admission -------------------------------------------------------
    def _reject(self, message: str, *, client_id: str, lane: str, reason: str) -> None:
        self.rejected += 1
        raise AdmissionError(message, client_id=client_id, lane=lane, reason=reason)

    def submit(self, request: CompileRequest) -> QueuedJob:
        """Admit a request, coalescing onto an identical pending one.

        Raises :class:`~repro.exceptions.AdmissionError` (typed, with a
        machine-readable ``reason``) instead of admitting work the
        policy forbids — the only way the queue stays bounded under
        overload.
        """
        lane = request.priority if request.priority is not None else self.policy.default_lane
        client = request.client_id
        if lane not in self._lanes:
            self._reject(
                f"unknown priority lane {lane!r}; expected one of {self.policy.lane_names()}",
                client_id=client,
                lane=lane,
                reason="unknown-lane",
            )
        quota = self.policy.max_pending_per_client
        if quota is not None and self._client_pending.get(client, 0) >= quota:
            self._reject(
                f"client {client!r} is at its pending quota ({quota})",
                client_id=client,
                lane=lane,
                reason="client-quota",
            )
        digest = request.digest()
        ticket = self._pending.get(digest)
        if ticket is not None:
            ticket.submissions += 1
            ticket.clients[client] = ticket.clients.get(client, 0) + 1
            self._client_pending[client] = self._client_pending.get(client, 0) + 1
            self.coalesced += 1
            self.submitted += 1
            self._tighten_deadline(ticket, request)
            self._promote(ticket, lane)
            return ticket
        if self.policy.max_depth is not None and self.depth >= self.policy.max_depth:
            self._reject(
                f"queue is at max_depth ({self.policy.max_depth})",
                client_id=client,
                lane=lane,
                reason="queue-full",
            )
        deadline_at = (
            None if request.deadline_s is None else self.clock() + request.deadline_s
        )
        ticket = QueuedJob(
            request=request,
            digest=digest,
            lane=lane,
            deadline_at=deadline_at,
            clients={client: 1},
        )
        self._pending[digest] = ticket
        self._lanes[lane][digest] = ticket
        self._client_pending[client] = self._client_pending.get(client, 0) + 1
        self.submitted += 1
        return ticket

    def submit_all(self, requests: Iterable[CompileRequest]) -> list[QueuedJob]:
        """Enqueue many requests; tickets are returned per *submission*
        (coalesced duplicates share a ticket object)."""
        return [self.submit(request) for request in requests]

    def _tighten_deadline(self, ticket: QueuedJob, request: CompileRequest) -> None:
        """A coalesced ticket's deadline is the tightest of its waiters'."""
        if request.deadline_s is None:
            return
        candidate = self.clock() + request.deadline_s
        if ticket.deadline_at is None or candidate < ticket.deadline_at:
            ticket.deadline_at = candidate

    def _promote(self, ticket: QueuedJob, lane: str) -> None:
        """Move a still-queued ticket to ``lane`` if it is higher priority."""
        if lane == ticket.lane:
            return
        if self.policy.lane_index(lane) >= self.policy.lane_index(ticket.lane):
            return
        bucket = self._lanes[ticket.lane]
        if ticket.digest not in bucket:
            return  # already popped; nothing to reschedule
        del bucket[ticket.digest]
        self._lanes[lane][ticket.digest] = ticket
        ticket.lane = lane

    # -- scheduling ------------------------------------------------------
    def _pop_next(self) -> QueuedJob:
        """Next ticket under deterministic weighted round-robin.

        Visits lanes in declared order, serving up to ``weight`` FIFO
        tickets per visit; a lane's credit refills every time the cursor
        re-enters it.  The resulting interleaving is a pure function of
        the submit/pop sequence — no clocks, no randomness.
        """
        lanes = self.policy.lanes
        for _ in range(len(lanes) + 1):
            name, _weight = lanes[self._cursor]
            bucket = self._lanes[name]
            if bucket and self._credit > 0:
                self._credit -= 1
                digest, ticket = bucket.popitem(last=False)
                del self._pending[digest]
                return ticket
            self._cursor = (self._cursor + 1) % len(lanes)
            self._credit = lanes[self._cursor][1]
        raise QPilotError("pop from an empty queue")  # pragma: no cover

    def pop_batch(self, limit: int | None = None) -> list[QueuedJob]:
        """Dequeue up to ``limit`` tickets in weighted lane order (all if None)."""
        if limit is not None and limit < 1:
            raise QPilotError("pop_batch limit must be at least 1")
        count = self.depth if limit is None else min(limit, self.depth)
        return [self._pop_next() for _ in range(count)]

    # -- load shedding ---------------------------------------------------
    def shed(self, count: int) -> list[QueuedJob]:
        """Remove up to ``count`` queued tickets for the service to fail.

        Victims are chosen lowest-priority lane first (the *last*
        declared lane), newest first within a lane — the work whose loss
        costs least and whose waiters have waited the shortest.  The
        caller owns failing and burying them; accounting is released
        there (via :meth:`bury`).
        """
        if count < 1:
            return []
        victims: list[QueuedJob] = []
        for name, _weight in reversed(self.policy.lanes):
            bucket = self._lanes[name]
            while bucket and len(victims) < count:
                digest, ticket = bucket.popitem(last=True)
                del self._pending[digest]
                victims.append(ticket)
            if len(victims) >= count:
                break
        return victims

    # -- completion accounting ------------------------------------------
    def finish(self, ticket: QueuedJob) -> None:
        """Release a ticket's per-client quota (idempotent).

        Called when a ticket reaches a terminal state — resolved by the
        service, or failed and buried.  Tickets the queue never admitted
        (the streaming path builds bare tickets) carry no accounting and
        are a no-op.
        """
        if ticket.finished:
            return
        ticket.finished = True
        for client, count in ticket.clients.items():
            remaining = self._client_pending.get(client, 0) - count
            if remaining > 0:
                self._client_pending[client] = remaining
            else:
                self._client_pending.pop(client, None)

    def bury(self, ticket: QueuedJob) -> None:
        """Record a failed ticket on the dead-letter list (bounded).

        Trimmed tickets are gone, but never silently: every drop counts
        in ``dead_letters_dropped`` (surfaced through ``ServiceStats``).
        """
        if not ticket.failed:
            raise QPilotError("only failed tickets can be buried")
        self.finish(ticket)
        self.dead_letters.append(ticket)
        if len(self.dead_letters) > self.max_dead_letters:
            drop = len(self.dead_letters) - self.max_dead_letters
            self.dead_letters_dropped += drop
            del self.dead_letters[:drop]
