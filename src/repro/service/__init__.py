"""Compile-as-a-service layer on top of the compiler and the farm.

The service subsystem (PR 5) packages the one-shot compiler behind a
long-lived serving interface, the way a production deployment would run
it:

* :mod:`repro.service.store` — :class:`ScheduleStore`, a disk-backed,
  content-addressed cache of canonical-JSON schedules keyed by the
  farm's ``(workload fingerprint, config, options)`` sha1 digest;
* :mod:`repro.service.queue` — :class:`CompileRequest` tickets and the
  deduplicating FIFO :class:`JobQueue` (identical in-flight requests
  coalesce);
* :mod:`repro.service.service` — :class:`CompileService`, the loop that
  answers warm keys from the store, farms cold keys (thread, process or
  reference executor) and streams responses incrementally;
* :mod:`repro.service.cli` — ``python -m repro.service`` command line.

PR 6 makes the layer fault-tolerant: the farm retries, respawns broken
pools and degrades to the in-process reference executor
(:class:`~repro.core.farm.FarmPolicy`); a job that exhausts its budget
fails only its own ticket — typed
(:class:`~repro.exceptions.CompileError`), observed by every coalesced
waiter, and buried on ``JobQueue.dead_letters``; store writes are
log-and-continue; and the store's eviction is lockfile-guarded so
multiple daemons can share one root.  Every failure mode is reproducible
via the seeded :class:`~repro.utils.faults.FaultPlan` registry.

PR 8 makes the layer overload-robust: the queue runs under a
:class:`QueuePolicy` (admission control with typed
:class:`~repro.exceptions.AdmissionError` rejections, weighted priority
lanes, per-client quotas, load shedding past a high-water mark),
requests carry end-to-end ``deadline_s`` budgets that expire typed
(:class:`~repro.exceptions.DeadlineExceeded`) and propagate into the
farm, and a :class:`CircuitBreaker` around farm dispatch fails cold keys
fast (:class:`~repro.exceptions.CircuitOpenError`) while warm keys keep
serving from the store.

PR 9 opens the front door to *untrusted* circuits:
:meth:`CompileService.submit_qasm` (and ``compile --qasm file.oq`` on
the CLI) validates user-supplied OpenQASM under a
:class:`~repro.circuit.CircuitLimits` resource guard before any queue
ticket exists — rejections are typed
(:class:`~repro.exceptions.InvalidCircuitError`, with line/column),
counted in ``ServiceStats.rejected_invalid``, and never reach the farm
or the dead-letter list, while valid uploads are content-addressed by
their sha1 and coalesce/warm-serve exactly like synthetic workloads.

Quick start::

    from repro.workloads.spec import WorkloadSpec
    from repro.service import CompileRequest, CompileService

    service = CompileService("/tmp/qpilot-store")
    request = CompileRequest.for_width(WorkloadSpec.random_circuit(16, 5), 8)
    cold = service.compile(request)     # routed, persisted
    warm = service.compile(request)     # answered from disk, zero routing
    assert warm.cached and warm.schedule == cold.schedule
    print(service.stats.to_dict())
"""

from repro.exceptions import (
    AdmissionError,
    CircuitOpenError,
    CompileError,
    DeadlineExceeded,
    InvalidCircuitError,
    LoadShedError,
)
from repro.service.queue import CompileRequest, JobQueue, QueuedJob, QueuePolicy
from repro.service.service import (
    BreakerPolicy,
    CircuitBreaker,
    CompileResponse,
    CompileService,
    ServiceStats,
)
from repro.service.store import ScheduleStore, StoreEntry, StoreStats
from repro.utils.faults import FaultPlan, FaultRule

__all__ = [
    "AdmissionError",
    "BreakerPolicy",
    "CircuitBreaker",
    "CircuitOpenError",
    "CompileError",
    "CompileRequest",
    "CompileResponse",
    "CompileService",
    "DeadlineExceeded",
    "FaultPlan",
    "FaultRule",
    "InvalidCircuitError",
    "JobQueue",
    "LoadShedError",
    "QueuePolicy",
    "QueuedJob",
    "ScheduleStore",
    "ServiceStats",
    "StoreEntry",
    "StoreStats",
]
