"""Run-report differential: what one farm run says about itself.

``TestExecutorOracle`` pins *what* a farm computes.  This suite pins how a
run reports it, for every backend and every path through the attempt
loop: clean, retried, failed, expired, pool respawn and degradation.  Each
scenario asserts the per-index results, ``job_reports``, ``last_stats``
(minus the wall clock) and the multiset of ``job-*``/``pool-respawn``/
``farm-degraded`` events.  The expectations are written out per slot, so
a refactor of the dispatch loop cannot drift any of them silently.
"""

from __future__ import annotations

import logging
import sys
from collections import Counter
from dataclasses import dataclass, field
from typing import Any

import pytest

from repro.core import FarmJob, FarmOptions, FarmPolicy, WorkloadSpec
from repro.core.farm import CompileFarm, FarmJobError
from repro.hardware.fpqa import FPQAConfig
from repro.utils.faults import FaultPlan

SPEC_A = WorkloadSpec.random_circuit(8, 2, seed=71)
SPEC_B = WorkloadSpec.qsim(8, 0.3, num_strings=6, seed=72)
A4 = FarmJob(SPEC_A, FPQAConfig.with_width(8, 4))
B4 = FarmJob(SPEC_B, FPQAConfig.with_width(8, 4))
A8 = FarmJob(SPEC_A, FPQAConfig.with_width(8, 8))

#: Four indices over three unique slots: index 2 repeats index 0.
JOBS = [A4, B4, A4, A8]
SLOTS = (A4, B4, A8)
SLOT_INDICES = ((0, 2), (1,), (3,))
KEY_A4, KEY_B4, KEY_A8 = (job.fault_key() for job in SLOTS)

FAST = dict(backoff_base_s=0.001, backoff_max_s=0.01, max_retries=2)
FARM_EVENTS = ("job-", "pool-respawn", "farm-degraded")
COUNTERS = ("retries", "pool_respawns", "timeouts", "failed_jobs", "expired")


@dataclass(frozen=True)
class Scenario:
    #: Per slot: (status, attempts, error type or None).
    slots: tuple[tuple[str, int, str | None], ...]
    plan: FaultPlan | None = None
    policy: dict[str, Any] = field(default_factory=dict)
    deadlines: tuple[float | None, ...] | None = None
    #: Pool width; the crash scenarios use one worker so the crasher
    #: (slot 0, submitted first) runs before any other job can finish.
    workers: int = 2
    counters: dict[str, int] = field(default_factory=dict)
    degraded: bool = False
    #: (event, fields) pairs; ``error`` of a crash is normalised to
    #: ``BrokenExecutor`` because which in-flight future reports the
    #: pool's death first is a race.
    events: tuple[tuple[str, tuple], ...] = ()


def _event(name: str, **fields: Any) -> tuple[str, tuple]:
    return name, tuple(sorted(fields.items()))


OK = ("ok", 1, None)
RETRIED = ("retried", 2, None)

SCENARIOS = {
    "clean": Scenario(slots=(OK, OK, OK)),
    "retried": Scenario(
        slots=(RETRIED, RETRIED, RETRIED),
        plan=FaultPlan.single("raise-in-compile", max_fires=1),
        counters={"retries": 3},
        events=tuple(
            _event("job-retry", job=key, failures=1, error="InjectedCompileError")
            for key in (KEY_A4, KEY_B4, KEY_A8)
        ),
    ),
    "failed": Scenario(
        slots=(OK, ("failed", 3, "InjectedCompileError"), OK),
        plan=FaultPlan.single("raise-in-compile", match="qsim", max_fires=None),
        counters={"retries": 2, "failed_jobs": 1},
        events=(
            _event("job-retry", job=KEY_B4, failures=1, error="InjectedCompileError"),
            _event("job-retry", job=KEY_B4, failures=2, error="InjectedCompileError"),
            _event("job-failed", job=KEY_B4, attempts=3, error="InjectedCompileError"),
        ),
    ),
    "expired": Scenario(
        slots=(("failed", 0, "DeadlineExceeded"), OK, OK),
        deadlines=(0.0, None, 0.0, None),
        counters={"expired": 1, "failed_jobs": 1},
        events=(_event("job-expired", job=KEY_A4, failures=0),),
    ),
    "respawn": Scenario(
        slots=(RETRIED, RETRIED, RETRIED),
        plan=FaultPlan.single("crash-worker", match=KEY_A4, max_fires=1),
        policy={"max_pool_respawns": 1},
        workers=1,
        counters={"retries": 3, "pool_respawns": 1},
        events=(
            _event("pool-respawn", respawns=1, in_flight=3),
            *(
                _event("job-retry", job=key, failures=1, error="BrokenExecutor")
                for key in (KEY_A4, KEY_B4, KEY_A8)
            ),
        ),
    ),
    "degraded": Scenario(
        slots=(RETRIED, RETRIED, RETRIED),
        plan=FaultPlan.single("crash-worker", match=KEY_A4, max_fires=None),
        policy={"max_pool_respawns": 0},
        workers=1,
        degraded=True,
        events=(_event("farm-degraded", remaining=3, respawns=0),),
    ),
}

#: The crasher fails again after the respawn.  The crash sweep charges
#: and resubmits in slot order, so the crasher runs first and takes every
#: in-flight job down a second time, exhausting the respawn budget.
#: (Resubmitting in the order the dead pool's futures report their
#: failures would make this outcome a race.)
REPEATED_CRASH = Scenario(
    slots=(("retried", 3, None),) * 3,
    plan=FaultPlan.single("crash-worker", match=KEY_A4, max_fires=None),
    policy={"max_pool_respawns": 1},
    workers=1,
    counters={"retries": 3, "pool_respawns": 1},
    degraded=True,
    events=(
        _event("pool-respawn", respawns=1, in_flight=3),
        *(
            _event("job-retry", job=key, failures=1, error="BrokenExecutor")
            for key in (KEY_A4, KEY_B4, KEY_A8)
        ),
        _event("farm-degraded", remaining=3, respawns=1),
    ),
)

CASES = [
    (executor, name)
    for executor in ("reference", "thread", "process")
    for name in SCENARIOS
    if executor == "process" or name not in ("respawn", "degraded")
]


@pytest.fixture(scope="module")
def oracle():
    """Fault-free reference metrics per job index."""
    return [metrics.deterministic() for metrics in CompileFarm("reference").run(JOBS)]


def _farm_events(caplog) -> Counter:
    events = Counter()
    for record in caplog.records:
        name = getattr(record, "repro_event", None)
        if name is None or not name.startswith(FARM_EVENTS):
            continue
        fields = dict(getattr(record, "repro_fields", {}))
        if fields.get("error") == "BrokenProcessPool":
            fields["error"] = "BrokenExecutor"
        events[(name, tuple(sorted(fields.items())))] += 1
    return events


@pytest.mark.skipif(sys.platform == "win32", reason="POSIX process semantics")
@pytest.mark.parametrize("executor,name", CASES, ids=[f"{e}-{n}" for e, n in CASES])
def test_run_report(executor, name, oracle, caplog):
    _check_run(executor, SCENARIOS[name], oracle, caplog)


@pytest.mark.skipif(sys.platform == "win32", reason="POSIX process semantics")
def test_repeated_crash_resubmits_in_slot_order(oracle, caplog):
    _check_run("process", REPEATED_CRASH, oracle, caplog)


def _check_run(executor: str, scenario: Scenario, oracle, caplog) -> None:
    options = FarmOptions(faults=scenario.plan)
    jobs = [FarmJob(job.workload, job.config, options) for job in JOBS]
    farm = CompileFarm(
        executor,
        max_workers=scenario.workers,
        policy=FarmPolicy(**{**FAST, **scenario.policy}),
    )
    caplog.set_level(logging.INFO, logger="repro.core.farm")
    results = farm.run(jobs, deadlines=scenario.deadlines)

    expected_reports = {}
    for job, (status, attempts, error_type), indices in zip(
        SLOTS, scenario.slots, SLOT_INDICES
    ):
        for index in indices:
            result = results[index]
            if error_type is None:
                assert not result.failed, (index, result)
                assert result.deterministic() == oracle[index]
            else:
                assert isinstance(result, FarmJobError), (index, result)
                assert (result.error_type, result.attempts) == (error_type, attempts)
                assert result.fault_key == job.fault_key()
            expected_reports[index] = (status, attempts, error_type)
        # duplicates share the slot's result object
        assert all(results[i] is results[indices[0]] for i in indices)
    reports = {
        index: (
            report["status"],
            report["attempts"],
            None if report["error"] is None else report["error"]["error_type"],
        )
        for index, report in farm.job_reports.items()
    }
    assert reports == expected_reports

    pooled = executor != "reference"
    stats = dict(farm.last_stats)
    assert stats.pop("wall_s") >= 0
    assert stats == {
        "executor": executor,
        "requested_executor": executor,
        "num_jobs": len(JOBS),
        "num_unique_jobs": len(SLOTS),
        "max_workers": min(scenario.workers, len(SLOTS)) if pooled else 1,
        "degraded": scenario.degraded,
        **{counter: scenario.counters.get(counter, 0) for counter in COUNTERS},
    }
    assert _farm_events(caplog) == Counter(scenario.events)


@pytest.mark.parametrize("executor", ("reference", "thread"))
def test_stream_closed_early_keeps_its_run_stats(executor):
    """A run's stats land when its stream closes, not only at exhaustion."""
    from repro.obs.metrics import MetricsRegistry

    options = FarmOptions(faults=FaultPlan.single("raise-in-compile", max_fires=1))
    jobs = [FarmJob(job.workload, job.config, options) for job in JOBS]
    registry = MetricsRegistry()
    farm = CompileFarm(
        executor, max_workers=2, policy=FarmPolicy(**FAST), registry=registry
    )
    stream = farm.iter_results(jobs)
    next(stream)  # every attempt 0 raises, so a retry already happened
    stream.close()
    assert farm.last_stats["retries"] >= 1
    assert farm.last_stats["num_jobs"] == len(JOBS)
    assert registry.counter("farm_runs_total").value == 1
    assert registry.counter("farm_retries_total").value == farm.last_stats["retries"]


def test_service_stream_closed_early_absorbs_farm_stats(tmp_path):
    from repro.service import CompileRequest, CompileService

    options = FarmOptions(faults=FaultPlan.single("raise-in-compile", max_fires=1))
    service = CompileService(
        tmp_path / "store", executor="reference", policy=FarmPolicy(**FAST)
    )
    requests = [
        CompileRequest.for_width(spec, 4, options=options) for spec in (SPEC_A, SPEC_B)
    ]
    responses = service.stream(requests)
    next(responses)
    responses.close()
    assert service.stats.retries == 1
