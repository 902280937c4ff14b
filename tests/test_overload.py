"""Overload-robustness suite: admission, lanes, quotas, deadlines, breaker.

The serving layer must degrade *gracefully and deterministically* under
overload: bounded queues with typed rejections, weighted priority lanes
with reproducible scheduling, per-client quotas, end-to-end deadlines
that expire typed, load shedding and a circuit breaker around farm
dispatch.  The invariant that makes all of this robustness and not
behaviour change: shedding, expiry and breaking change *which* requests
complete, never *what* they return — every admitted-and-completed
request is byte-identical to the fault-free ``reference`` run, pinned by
the differential chaos test at the bottom.

Determinism discipline: every test that involves time injects a
:class:`FakeClock` into the service/queue/breaker (the farm keeps real
time; deadlines cross into it as relative budgets), and every fault is a
seeded :class:`~repro.utils.faults.FaultPlan` — no sleeps, no flakes.
"""

from __future__ import annotations

import os
import time
from dataclasses import replace

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.farm import CompileFarm, FarmOptions, FarmPolicy, FarmJob, WorkloadSpec
from repro.exceptions import (
    AdmissionError,
    CircuitOpenError,
    CompileError,
    DeadlineExceeded,
    LoadShedError,
    QPilotError,
)
from repro.service import (
    BreakerPolicy,
    CircuitBreaker,
    CompileRequest,
    CompileService,
    JobQueue,
    QueuePolicy,
    ScheduleStore,
)
from repro.utils.faults import FaultPlan, FaultRule


class FakeClock:
    """Injectable monotonic clock: advances only when told to."""

    def __init__(self, start: float = 1_000.0):
        self.now = start

    def __call__(self) -> float:
        return self.now

    def advance(self, seconds: float) -> None:
        self.now += seconds


def _spec(index: int = 0, kind: str = "circuit") -> WorkloadSpec:
    if kind == "circuit":
        return WorkloadSpec.random_circuit(4, 2, seed=100 + index)
    if kind == "qsim":
        return WorkloadSpec.qsim(4, 0.4, num_strings=4, seed=100 + index)
    return WorkloadSpec.qaoa_random_graph(4, 0.5, seed=100 + index)


def _request(index: int = 0, kind: str = "circuit", **kwargs) -> CompileRequest:
    return CompileRequest.for_width(_spec(index, kind), 4, **kwargs)


# ---------------------------------------------------------------------------
# QueuePolicy + admission control


def test_queue_policy_validation():
    with pytest.raises(QPilotError):
        QueuePolicy(lanes=())
    with pytest.raises(QPilotError):
        QueuePolicy(lanes=(("a", 1), ("a", 2)))
    with pytest.raises(QPilotError):
        QueuePolicy(lanes=(("a", 0),))
    with pytest.raises(QPilotError):
        QueuePolicy(max_depth=0)
    with pytest.raises(QPilotError):
        QueuePolicy(max_pending_per_client=0)
    with pytest.raises(QPilotError):
        QueuePolicy(max_depth=4, shed_high_water=5)
    assert QueuePolicy().default_lane == "interactive"
    assert QueuePolicy().lane_names() == ("interactive", "batch", "background")


def test_admission_rejects_unknown_lane():
    queue = JobQueue()
    with pytest.raises(AdmissionError) as excinfo:
        queue.submit(_request(0, priority="vip", client_id="a"))
    assert excinfo.value.reason == "unknown-lane"
    assert excinfo.value.client_id == "a"
    assert excinfo.value.lane == "vip"
    assert queue.rejected == 1
    assert queue.depth == 0


def test_admission_rejects_over_quota_and_over_depth():
    queue = JobQueue(QueuePolicy(max_depth=2, max_pending_per_client=2))
    queue.submit(_request(0, client_id="a"))
    queue.submit(_request(1, client_id="a"))
    # client quota binds first — even a coalescing duplicate is refused
    with pytest.raises(AdmissionError) as excinfo:
        queue.submit(_request(0, client_id="a"))
    assert excinfo.value.reason == "client-quota"
    # another client is over depth for *new* work...
    with pytest.raises(AdmissionError) as excinfo:
        queue.submit(_request(2, client_id="b"))
    assert excinfo.value.reason == "queue-full"
    # ...but may still coalesce onto existing tickets (no new depth)
    ticket = queue.submit(_request(0, client_id="b"))
    assert ticket.submissions == 2
    assert queue.depth == 2
    assert queue.rejected == 2


def test_deadline_s_must_be_positive():
    with pytest.raises(QPilotError):
        _request(0, deadline_s=0.0)
    with pytest.raises(QPilotError):
        _request(0, deadline_s=-1.0)


def test_serving_metadata_never_changes_digest():
    plain = _request(0)
    decorated = _request(
        0, client_id="someone", priority="background", deadline_s=3.0
    )
    assert plain.digest() == decorated.digest()


# ---------------------------------------------------------------------------
# Weighted round-robin lane scheduling


def test_wrr_order_is_pinned():
    queue = JobQueue()
    interactive = [_request(i, priority="interactive") for i in range(6)]
    batch = [_request(10 + i, priority="batch") for i in range(4)]
    background = [_request(20 + i, priority="background") for i in range(3)]
    expected_tickets = {}
    for name, requests in (("i", interactive), ("b", batch), ("g", background)):
        for pos, request in enumerate(requests):
            expected_tickets[queue.submit(request).digest] = f"{name}{pos}"
    order = [expected_tickets[t.digest] for t in queue.pop_batch()]
    # 4 interactive : 2 batch : 1 background per round, FIFO within a lane
    assert order == [
        "i0", "i1", "i2", "i3", "b0", "b1", "g0",
        "i4", "i5", "b2", "b3", "g1", "g2",
    ]


def test_wrr_is_deterministic_across_identical_queues():
    def run() -> list[str]:
        queue = JobQueue()
        lanes = ("interactive", "batch", "background")
        for i in range(9):
            queue.submit(_request(i, priority=lanes[i % 3]))
        return [t.digest for t in queue.pop_batch()]

    assert run() == run()


def test_pop_batch_limit_validation():
    queue = JobQueue()
    with pytest.raises(QPilotError):
        queue.pop_batch(0)


# ---------------------------------------------------------------------------
# Coalescing: deadlines tighten, lanes promote, quotas account


def test_coalesce_tightens_deadline_and_promotes_lane():
    clock = FakeClock()
    queue = JobQueue(clock=clock)
    first = queue.submit(_request(0, client_id="a", priority="background"))
    assert first.lane == "background" and first.deadline_at is None
    second = queue.submit(
        _request(0, client_id="b", priority="interactive", deadline_s=5.0)
    )
    assert second is first
    assert first.lane == "interactive"  # promoted, never demoted
    assert first.deadline_at == clock.now + 5.0
    third = queue.submit(
        _request(0, client_id="c", priority="background", deadline_s=2.0)
    )
    assert third is first
    assert first.lane == "interactive"
    assert first.deadline_at == clock.now + 2.0  # tightest waiter wins
    assert first.submissions == 3
    assert first.clients == {"a": 1, "b": 1, "c": 1}
    assert queue.pending_by_client() == {"a": 1, "b": 1, "c": 1}
    # the promoted ticket now drains from the interactive lane
    assert queue.lane_depths() == {"interactive": 1, "batch": 0, "background": 0}


def test_finish_releases_quota_idempotently():
    queue = JobQueue()
    t1 = queue.submit(_request(0, client_id="a"))
    queue.submit(_request(0, client_id="a"))  # coalesced: 2 pending for a
    t2 = queue.submit(_request(1, client_id="a"))
    assert queue.client_pending("a") == 3
    queue.pop_batch()
    queue.finish(t1)
    queue.finish(t1)  # idempotent
    assert queue.client_pending("a") == 1
    t2.fail(QPilotError("boom"))
    queue.bury(t2)  # bury releases too
    assert queue.client_pending("a") == 0
    assert queue.pending_by_client() == {}


# ---------------------------------------------------------------------------
# Load shedding


def test_shed_drops_lowest_priority_newest_first():
    queue = JobQueue()
    queue.submit(_request(0, priority="interactive"))
    b0 = queue.submit(_request(10, priority="batch"))
    b1 = queue.submit(_request(11, priority="batch"))
    g0 = queue.submit(_request(20, priority="background"))
    g1 = queue.submit(_request(21, priority="background"))
    victims = queue.shed(3)
    assert [v.digest for v in victims] == [g1.digest, g0.digest, b1.digest]
    assert queue.depth == 2
    assert b0.digest in {t.digest for t in queue.pop_batch()}


def test_service_sheds_over_high_water(tmp_path):
    service = CompileService(
        tmp_path / "store",
        executor="reference",
        queue_policy=QueuePolicy(max_depth=10, shed_high_water=3),
    )
    tickets = [
        service.submit(_request(i, priority="background")) for i in range(3)
    ]
    overflow = service.submit(_request(3, priority="interactive"))
    # depth hit 4 > 3: the newest background ticket was shed
    assert service.queue.depth == 3
    shed = [t for t in tickets if t.failed]
    assert len(shed) == 1 and shed[0] is tickets[-1]
    with pytest.raises(LoadShedError) as excinfo:
        shed[0].raise_error()
    assert excinfo.value.reason == "load-shed"
    assert service.stats.shed == 1
    assert not overflow.failed
    assert shed[0] in service.queue.dead_letters


# ---------------------------------------------------------------------------
# Deadlines


def test_deadline_expires_in_queue_to_every_coalesced_waiter(tmp_path):
    clock = FakeClock()
    service = CompileService(tmp_path / "store", executor="reference", clock=clock)
    t1 = service.submit(_request(0, client_id="a", deadline_s=1.0))
    t2 = service.submit(_request(0, client_id="b", deadline_s=2.0))
    assert t2 is t1
    clock.advance(1.5)  # past the tightest waiter's deadline
    service.process_batch()
    assert t1.failed
    with pytest.raises(DeadlineExceeded) as excinfo:
        t1.raise_error()
    assert excinfo.value.digest == t1.digest
    assert service.stats.expired == 2  # both waiters observed it
    assert service.stats.farm_dispatches == 0  # never reached the farm
    assert t1 in service.queue.dead_letters
    assert service.queue.client_pending("a") == 0


def test_unexpired_deadline_compiles_normally(tmp_path):
    clock = FakeClock()
    service = CompileService(tmp_path / "store", executor="reference", clock=clock)
    response = service.compile(_request(0, deadline_s=60.0))
    assert response.source == "compiled"


def test_farm_cooperative_cancellation_of_expired_jobs():
    farm = CompileFarm("reference")
    jobs = [FarmJob(workload=_spec(0), config=_request(0).config),
            FarmJob(workload=_spec(1), config=_request(1).config)]
    # job 1's budget is spent before the dispatch loop reaches it
    results = farm.run(jobs, with_schedules=True, deadlines=[None, 1e-9])
    assert not results[0].failed
    assert results[1].failed
    assert results[1].error_type == "DeadlineExceeded"
    assert farm.last_stats["expired"] == 1
    # expired jobs never retry
    assert results[1].attempts == 0


def test_farm_deadlines_length_mismatch_raises():
    farm = CompileFarm("reference")
    job = FarmJob(workload=_spec(0), config=_request(0).config)
    with pytest.raises(QPilotError):
        list(farm.iter_results([job], deadlines=[None, 1.0]))


def test_stall_dispatch_burns_deadline_before_executor():
    plan = FaultPlan.single("stall-dispatch", duration_s=0.05, max_fires=None)
    options = FarmOptions(faults=plan)
    jobs = [
        FarmJob(workload=_spec(i), config=_request(i).config, options=options)
        for i in range(2)
    ]
    farm = CompileFarm("thread", max_workers=2)
    results = farm.run(jobs, with_schedules=True, deadlines=[0.01, 0.01])
    assert all(r.failed and r.error_type == "DeadlineExceeded" for r in results)
    assert farm.last_stats["expired"] == 2


@pytest.mark.parametrize("executor", ("thread", "process"))
def test_abandoned_in_flight_attempts_do_not_hold_the_caller(executor, tmp_path):
    """An in-flight job whose deadline passes is abandoned: its expiry is
    yielded on time and the call returns without waiting for the attempt."""
    plan = FaultPlan.single("sleep-in-compile", duration_s=2.0, max_fires=None)
    options = FarmOptions(faults=plan)
    jobs = [
        FarmJob(workload=_spec(i), config=_request(i).config, options=options)
        for i in range(2)
    ]
    farm = CompileFarm(executor, max_workers=2)
    start = time.perf_counter()
    results = farm.run(jobs, deadlines=[0.2, 0.2])
    assert time.perf_counter() - start < 1.0
    assert all(r.failed and r.error_type == "DeadlineExceeded" for r in results)

    service = CompileService(tmp_path / "store", executor=executor, max_workers=2)
    tickets = [
        service.submit(_request(i, options=options, deadline_s=0.2)) for i in (2, 3)
    ]
    start = time.perf_counter()
    service.process_batch()
    assert time.perf_counter() - start < 1.0
    for ticket in tickets:
        with pytest.raises(DeadlineExceeded):
            ticket.raise_error()


def test_abandoned_attempts_are_bounded_by_the_breaker(tmp_path):
    """Every batch may leave its overdue attempts running, but each one is an
    expiry the breaker counts, so sustained overload opens the breaker
    before abandoned work piles up across batches."""
    import threading

    plan = FaultPlan.single("sleep-in-compile", duration_s=1.5, max_fires=None)
    options = FarmOptions(faults=plan)
    service = CompileService(
        tmp_path / "store",
        executor="thread",
        max_workers=2,
        breaker=BreakerPolicy(failure_threshold=2, reset_timeout_s=50.0, jitter=0.0),
        clock=FakeClock(),
    )
    baseline = threading.active_count()
    for batch in range(4):
        tickets = [
            service.submit(_request(10 + 2 * batch + i, options=options, deadline_s=0.2))
            for i in range(2)
        ]
        service.process_batch()
        for ticket in tickets:
            with pytest.raises((DeadlineExceeded, CircuitOpenError)):
                ticket.raise_error()
    assert service.stats.breaker_state == "open"
    assert service.stats.rejected == 6
    # only the first batch's two attempts were ever abandoned
    assert threading.active_count() - baseline <= 2


def test_slow_store_read_fault_fires_deterministically(tmp_path):
    digest = "ab" * 20
    plan = FaultPlan.single("slow-store-read", duration_s=0.05, max_fires=1)
    store = ScheduleStore(tmp_path, faults=plan)
    start = time.perf_counter()
    assert store.get(digest) is None
    assert time.perf_counter() - start >= 0.05  # attempt 0 fires
    start = time.perf_counter()
    assert store.get(digest) is None
    assert time.perf_counter() - start < 0.05  # bounded rule: attempt 1 is fast


# ---------------------------------------------------------------------------
# Circuit breaker


def test_breaker_state_machine():
    clock = FakeClock()
    breaker = CircuitBreaker(
        BreakerPolicy(failure_threshold=2, reset_timeout_s=10.0, jitter=0.0),
        clock=clock,
    )
    assert breaker.current_state() == "closed"
    breaker.record_failure()
    assert breaker.current_state() == "closed"
    breaker.record_failure()
    assert breaker.current_state() == "open"
    assert breaker.trips == 1
    clock.advance(9.0)
    assert breaker.current_state() == "open"
    clock.advance(1.0)
    assert breaker.current_state() == "half-open"
    assert breaker.allow_probe()
    assert not breaker.allow_probe()  # single probe slot
    breaker.record_success()
    assert breaker.current_state() == "closed"
    # a half-open probe failure re-trips immediately
    breaker.record_failure()
    breaker.record_failure()
    clock.advance(10.0)
    assert breaker.allow_probe()
    breaker.record_failure()
    assert breaker.current_state() == "open"
    assert breaker.trips == 3


def test_breaker_reopen_timing_is_seeded_deterministic():
    policy = BreakerPolicy(reset_timeout_s=10.0, jitter=0.5, seed=42)
    assert policy.open_duration(1) == policy.open_duration(1)
    assert 10.0 <= policy.open_duration(1) <= 15.0
    assert policy.open_duration(1) != policy.open_duration(2)
    clock = FakeClock()
    a = CircuitBreaker(policy, clock=clock)
    b = CircuitBreaker(policy, clock=clock)
    for breaker in (a, b):
        breaker.record_failure()
        for _ in range(4):
            breaker.record_failure()
    assert a.opened_until == b.opened_until == clock.now + policy.open_duration(1)


def test_breaker_opens_serves_warm_rejects_cold(tmp_path):
    clock = FakeClock()
    store = ScheduleStore(tmp_path / "store", memory_entries=16)
    # warm one key fault-free before the farm starts failing
    warm_request = _request(0)
    CompileService(store, executor="reference").compile(warm_request)
    plan = FaultPlan(seed=1, rules=(FaultRule(kind="raise-in-compile", max_fires=None),))
    service = CompileService(
        store,
        executor="reference",
        policy=FarmPolicy(max_retries=0, backoff_base_s=0.0),
        breaker=BreakerPolicy(failure_threshold=2, reset_timeout_s=50.0, jitter=0.0),
        clock=clock,
    )
    options = FarmOptions(faults=plan)
    for index in (1, 2):  # two consecutive failures trip the breaker
        service.submit(replace(_request(index), options=options))
        service.process_batch()
    assert service.stats.breaker_state == "open"
    assert service.stats.breaker_trips == 1
    assert service.stats.failed_jobs == 2
    # cold keys are rejected immediately, with zero farm dispatches
    dispatches = service.stats.farm_dispatches
    cold = service.submit(replace(_request(3), options=options))
    service.process_batch()
    assert cold.failed
    with pytest.raises(CircuitOpenError):
        cold.raise_error()
    assert service.stats.farm_dispatches == dispatches
    assert service.stats.rejected == 1
    # warm keys keep serving from the store while open (faults plans do
    # not change digests, so the warmed entry answers this request too)
    warm = service.submit(replace(warm_request, options=options))
    service.process_batch()
    assert warm.done and warm.response.cached
    assert service.stats.farm_dispatches == dispatches
    # past the reset timeout, a half-open probe goes to the farm; its
    # failure re-trips deterministically
    clock.advance(50.0)
    assert service.stats.breaker_state == "half-open"
    probe = service.submit(replace(_request(4), options=options))
    service.process_batch()
    assert probe.failed and service.stats.breaker_trips == 2
    assert service.stats.farm_dispatches == dispatches + 1


def test_breaker_closes_after_successful_probe(tmp_path):
    clock = FakeClock()
    plan = FaultPlan(seed=1, rules=(FaultRule(kind="raise-in-compile", max_fires=None, match="qaoa"),))
    service = CompileService(
        tmp_path / "store",
        executor="reference",
        policy=FarmPolicy(max_retries=0, backoff_base_s=0.0),
        breaker=BreakerPolicy(failure_threshold=2, reset_timeout_s=10.0, jitter=0.0),
        clock=clock,
    )
    options = FarmOptions(faults=plan)
    for index in (0, 1):
        service.submit(replace(_request(index, kind="qaoa"), options=options))
        service.process_batch()
    assert service.stats.breaker_state == "open"
    clock.advance(10.0)
    probe = service.submit(replace(_request(0, kind="circuit"), options=options))
    service.process_batch()
    assert probe.done
    assert service.stats.breaker_state == "closed"


# ---------------------------------------------------------------------------
# Satellites: dead-letter bounds, eviction-lock staleness


def test_dead_letter_bound_is_configurable_and_drops_are_counted(tmp_path):
    assert JobQueue.MAX_DEAD_LETTERS == 256  # default preserved
    queue = JobQueue(max_dead_letters=2)
    buried = []
    for index in range(4):
        ticket = queue.submit(_request(index))
        queue.pop_batch()
        ticket.fail(QPilotError("boom"))
        queue.bury(ticket)
        buried.append(ticket)
    assert len(queue.dead_letters) == 2
    assert queue.dead_letters_dropped == 2  # trims are visible, never silent
    assert queue.dead_letters == buried[-2:]  # oldest dropped first
    service = CompileService(tmp_path / "store", max_dead_letters=2)
    assert service.queue.max_dead_letters == 2
    assert "dead_letters_dropped" in service.stats.to_dict()


def test_evict_lock_staleness_is_configurable(tmp_path):
    lock = tmp_path / ".evict.lock"
    lock.write_text("12345\n")
    stale = time.time() - 5.0
    os.utime(lock, (stale, stale))
    # a 5s-old lock is fresh under the (default) 30s cutoff...
    holder = ScheduleStore(tmp_path)
    assert holder._acquire_evict_lock() is None
    # ...and abandoned under a 1s cutoff — broken and re-acquired
    breaker_store = ScheduleStore(tmp_path, evict_lock_stale_s=1.0)
    fd = breaker_store._acquire_evict_lock()
    assert fd is not None
    breaker_store._release_evict_lock(fd)
    with pytest.raises(QPilotError):
        ScheduleStore(tmp_path, evict_lock_stale_s=0.0)
    service = CompileService(tmp_path / "svc", evict_lock_stale_s=2.0)
    assert service.store.evict_lock_stale_s == 2.0


# ---------------------------------------------------------------------------
# Hypothesis: quota accounting + scheduling determinism under interleavings


_LANES = ("interactive", "batch", "background")
_CLIENTS = ("alpha", "beta", "gamma")

_OPS = st.lists(
    st.one_of(
        st.tuples(
            st.just("submit"),
            st.integers(min_value=0, max_value=7),
            st.sampled_from(_LANES),
            st.sampled_from(_CLIENTS),
        ),
        st.tuples(st.just("resolve")),
        st.tuples(st.just("fail")),
    ),
    max_size=30,
)


def _replay(ops) -> tuple[list[str], JobQueue]:
    """Run one interleaving; return the pop order and the final queue."""
    queue = JobQueue(
        QueuePolicy(max_depth=6, max_pending_per_client=4), max_dead_letters=4
    )
    popped: list[str] = []
    for op in ops:
        if op[0] == "submit":
            _, index, lane, client = op
            try:
                queue.submit(_request(index, priority=lane, client_id=client))
            except AdmissionError:
                pass
        elif queue.depth:
            ticket = queue.pop_batch(1)[0]
            popped.append(ticket.digest)
            if op[0] == "resolve":
                ticket.resolve(None)
                queue.finish(ticket)
            else:
                ticket.fail(QPilotError("injected"))
                queue.bury(ticket)
        # quota accounting never goes negative, and the ledger always
        # matches the live tickets exactly
        ledger = queue.pending_by_client()
        assert all(count > 0 for count in ledger.values())
        expected: dict[str, int] = {}
        for ticket in queue._pending.values():
            for client, count in ticket.clients.items():
                expected[client] = expected.get(client, 0) + count
        assert ledger == expected
    return popped, queue


@settings(deadline=None, max_examples=40, suppress_health_check=[HealthCheck.too_slow])
@given(ops=_OPS)
def test_quota_accounting_and_scheduling_determinism(ops):
    popped, queue = _replay(ops)
    # scheduling is a pure function of the op sequence
    popped_again, _ = _replay(ops)
    assert popped == popped_again
    # draining everything returns every client's pending count to zero
    while queue.depth:
        ticket = queue.pop_batch(1)[0]
        ticket.resolve(None)
        queue.finish(ticket)
    assert queue.pending_by_client() == {}


# ---------------------------------------------------------------------------
# The differential chaos suite: 5x overload, byte-identical completions


def test_overload_differential_chaos(tmp_path):
    """Under 5x overload with faults: terminal, typed, byte-identical.

    A Zipf-shaped replay whose hot head always fails (seeded
    ``raise-in-compile`` on the qaoa family) forces breaker trips; a
    deterministic fake clock advanced every tick forces in-queue deadline
    expiries; tight queue bounds force rejections and shedding.  Pinned:
    (1) no submission blocks indefinitely, (2) every non-completed ticket
    fails with its *typed* error to all coalesced waiters, (3) every
    completed request's canonical schedule JSON is byte-identical to a
    fault-free ``reference`` run.
    """
    import random

    clock = FakeClock()
    plan = FaultPlan(
        seed=5, rules=(FaultRule(kind="raise-in-compile", match="qaoa", max_fires=None),)
    )
    options = FarmOptions(faults=plan)
    # ranks 0-3: qaoa (hot, always fail); 4-7 circuit, 8-11 qsim (succeed)
    universe = (
        [_request(i, kind="qaoa") for i in range(4)]
        + [_request(i, kind="circuit") for i in range(4)]
        + [_request(i, kind="qsim") for i in range(4)]
    )
    rng = random.Random(7)
    weights = [1.0 / (rank + 1) ** 1.1 for rank in range(len(universe))]
    ranks = rng.choices(range(len(universe)), weights=weights, k=150)

    service = CompileService(
        tmp_path / "store",
        executor="reference",
        policy=FarmPolicy(max_retries=0, backoff_base_s=0.0),
        queue_policy=QueuePolicy(
            max_depth=8, max_pending_per_client=3, shed_high_water=6
        ),
        breaker=BreakerPolicy(failure_threshold=2, reset_timeout_s=5.0, seed=1),
        clock=clock,
    )
    submissions = []
    rejected_at_submit = 0
    for index, rank in enumerate(ranks):
        request = replace(
            universe[rank],
            options=options,
            client_id=f"client-{index % 3}",
            priority=_LANES[index % 3],
            deadline_s=3.0 if index % 2 else None,
        )
        try:
            submissions.append(service.submit(request))
        except AdmissionError:
            rejected_at_submit += 1
        if index % 5 == 4:  # 5 arrivals per service tick of 2: 5x overload
            service.process_batch(2)
            clock.advance(1.0)
    while service.queue.depth:  # the drain must terminate — and does
        service.process_batch(2)
        clock.advance(1.0)

    # (1) every submission reached a terminal state
    assert all(t.done or t.failed for t in submissions)
    # every overload mechanism actually engaged in this replay
    stats = service.stats
    assert rejected_at_submit > 0
    assert stats.shed > 0
    assert stats.expired > 0
    assert stats.breaker_trips > 0
    assert any(t.done for t in submissions)

    # (2) failed tickets re-raise their *typed* error to every waiter
    typed = (CompileError, DeadlineExceeded, CircuitOpenError, AdmissionError)
    for ticket in submissions:
        if ticket.failed:
            with pytest.raises(typed):
                ticket.raise_error()

    # (3) completed == byte-identical to the fault-free reference run
    reference = CompileService(tmp_path / "reference", executor="reference")
    verified = {}
    for ticket in submissions:
        if not ticket.done:
            continue
        if ticket.digest not in verified:
            fault_free = replace(
                ticket.request,
                options=FarmOptions(),
                client_id="oracle",
                priority=None,
                deadline_s=None,
            )
            verified[ticket.digest] = reference.compile(fault_free).schedule_json()
        assert ticket.response.schedule_json() == verified[ticket.digest]
    assert verified  # the oracle actually compared something


def test_service_stats_reports_overload_counters(tmp_path):
    service = CompileService(tmp_path / "store")
    data = service.stats.to_dict()
    for key in (
        "rejected",
        "shed",
        "expired",
        "dead_letters_dropped",
        "breaker_state",
        "breaker_trips",
        "lane_depths",
    ):
        assert key in data
    assert data["breaker_state"] == "closed"
    assert data["lane_depths"] == {"interactive": 0, "batch": 0, "background": 0}
