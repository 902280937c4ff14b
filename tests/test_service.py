"""Compile-service tests: queue dedup, cache serving, streaming, CLI.

The acceptance suite for the service layer.  The central property
(``TestCacheServing``): a repeated :class:`CompileRequest` for an
identical (workload, config, options) key is answered from the disk
store with **zero** farm dispatches — no router runs — and the served
canonical schedule is byte-identical to the freshly compiled one.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.circuit import CircuitLimits, from_qasm
from repro.core import FarmOptions, QPilotCompiler, WorkloadSpec
from repro.exceptions import CircuitError, InvalidCircuitError, QPilotError
from repro.hardware.fpqa import FPQAConfig
from repro.service import (
    CompileRequest,
    CompileService,
    JobQueue,
    ScheduleStore,
)
from repro.service.cli import EXIT_INVALID_CIRCUIT
from repro.service.cli import main as cli_main
from repro.utils.serialization import schedule_to_json
from repro.workloads.spec import WORKLOAD_KINDS

CORPUS_DIR = Path(__file__).parent / "fuzz_corpus"

#: One request per workload family, small enough for tier-1.
FAMILY_REQUESTS = [
    CompileRequest.for_width(WorkloadSpec.random_circuit(8, 3, seed=21), 4),
    CompileRequest.for_width(WorkloadSpec.qsim(8, 0.3, num_strings=6, seed=22), 4),
    CompileRequest.for_width(WorkloadSpec.qaoa_random_graph(8, 0.4, seed=23), 4),
]


def service_for(tmp_path, **kwargs) -> CompileService:
    kwargs.setdefault("executor", "reference")
    return CompileService(tmp_path / "store", **kwargs)


class TestCompileRequest:
    def test_digest_matches_farm_job(self):
        request = FAMILY_REQUESTS[0]
        assert request.digest() == request.job().digest()

    def test_for_width_builds_matching_config(self):
        spec = WorkloadSpec.random_circuit(16, 5)
        request = CompileRequest.for_width(spec, 8)
        assert request.config == FPQAConfig.with_width(16, 8)


class TestJobQueue:
    def test_fifo_order_and_depth(self):
        queue = JobQueue()
        tickets = queue.submit_all(FAMILY_REQUESTS)
        assert queue.depth == 3
        batch = queue.pop_batch()
        assert batch == tickets
        assert queue.depth == 0

    def test_identical_pending_requests_coalesce(self):
        queue = JobQueue()
        first = queue.submit(FAMILY_REQUESTS[0])
        second = queue.submit(FAMILY_REQUESTS[0])
        assert second is first
        assert first.submissions == 2
        assert queue.depth == 1
        assert queue.submitted == 2
        assert queue.coalesced == 1

    def test_pop_batch_limit(self):
        queue = JobQueue()
        queue.submit_all(FAMILY_REQUESTS)
        assert len(queue.pop_batch(2)) == 2
        assert queue.depth == 1
        with pytest.raises(QPilotError):
            queue.pop_batch(0)

    def test_resubmission_after_pop_is_a_new_ticket(self):
        queue = JobQueue()
        first = queue.submit(FAMILY_REQUESTS[0])
        queue.pop_batch()
        second = queue.submit(FAMILY_REQUESTS[0])
        assert second is not first


class TestCacheServing:
    """The PR's acceptance criterion, asserted mechanically."""

    @pytest.mark.parametrize("request_", FAMILY_REQUESTS, ids=lambda r: r.workload.kind)
    def test_repeat_request_hits_disk_with_zero_farm_dispatches(self, tmp_path, request_):
        service = service_for(tmp_path)
        cold = service.compile(request_)
        assert cold.source == "compiled"
        dispatches_after_cold = service.stats.farm_dispatches

        # make any farm dispatch on the warm path a hard failure
        def forbidden(jobs, **kwargs):  # pragma: no cover - fails the test if hit
            raise AssertionError("farm dispatched on a warm cache key")

        service.farm.run = forbidden
        service.farm.iter_results = forbidden
        warm = service.compile(request_)
        assert warm.source == "cache"
        assert service.stats.farm_dispatches == dispatches_after_cold
        # byte-identical canonical schedules: cache is semantically invisible
        assert warm.schedule_json() == cold.schedule_json()
        assert warm.metrics == cold.metrics
        assert warm.router == cold.router

    def test_warm_schedule_matches_direct_compiler_output(self, tmp_path):
        request = FAMILY_REQUESTS[0]
        service = service_for(tmp_path)
        service.compile(request)
        warm = service.compile(request)
        fresh = QPilotCompiler(request.config).compile_circuit(request.workload.build())
        assert warm.schedule_json() == schedule_to_json(fresh.schedule, canonical=True)

    def test_cache_survives_service_restart(self, tmp_path):
        request = FAMILY_REQUESTS[2]
        first = service_for(tmp_path)
        cold = first.compile(request)
        reborn = service_for(tmp_path)
        warm = reborn.compile(request)
        assert warm.source == "cache"
        assert reborn.stats.farm_dispatches == 0
        assert warm.schedule_json() == cold.schedule_json()

    def test_coalesced_tickets_resolve_together(self, tmp_path):
        service = service_for(tmp_path)
        first = service.submit(FAMILY_REQUESTS[0])
        second = service.submit(FAMILY_REQUESTS[0])
        assert second is first
        service.drain()
        assert first.done and first.response is not None
        assert service.stats.farm_dispatches == 1
        assert service.stats.coalesced == 1

    def test_mixed_batch_only_farms_cold_keys(self, tmp_path):
        service = service_for(tmp_path)
        service.compile(FAMILY_REQUESTS[0])  # warm one key
        service.submit_all(FAMILY_REQUESTS)  # one warm, two cold
        resolved = service.process_batch()
        assert [t.response.source for t in resolved] == ["cache", "compiled", "compiled"]
        assert service.stats.farm_dispatches == 3  # 1 cold + 2 cold, never the warm one

    def test_process_batch_rejects_zero_limit(self, tmp_path):
        """An explicit limit of 0 must error, not drain a default batch."""
        service = service_for(tmp_path)
        service.submit(FAMILY_REQUESTS[0])
        with pytest.raises(QPilotError):
            service.process_batch(limit=0)
        assert service.stats.queue_depth == 1  # nothing was drained

    def test_completed_counts_coalesced_submissions(self, tmp_path):
        """completed converges on requests whichever path served them."""
        service = service_for(tmp_path)
        service.submit(FAMILY_REQUESTS[0])
        service.submit(FAMILY_REQUESTS[0])  # coalesces
        service.drain()
        stats = service.stats
        assert stats.requests == 2
        assert stats.completed == 2

    def test_stats_shape(self, tmp_path):
        service = service_for(tmp_path)
        service.compile(FAMILY_REQUESTS[0])
        service.compile(FAMILY_REQUESTS[0])
        stats = service.stats
        assert stats.requests == 2
        assert stats.completed == 2
        assert stats.cache_hits == 1 and stats.cache_misses == 1
        assert stats.cache_hit_rate == 0.5
        assert stats.queue_depth == 0
        assert stats.throughput_rps > 0
        data = stats.to_dict()
        assert data["farm_dispatches"] == 1
        assert json.dumps(data)  # JSON-able for monitoring endpoints


class TestFailureHandling:
    def test_failed_cold_compile_fails_its_ticket(self, tmp_path):
        """A farm error must fail the popped tickets, not orphan them."""
        service = service_for(tmp_path)

        def explode(jobs, **kwargs):
            raise RuntimeError("router exploded")

        service.farm.run = explode
        ticket = service.submit(FAMILY_REQUESTS[0])
        with pytest.raises(RuntimeError):
            service.process_batch()
        assert ticket.status == "failed"
        assert "router exploded" in ticket.error
        assert service.queue.depth == 0

    @pytest.mark.parametrize("mode", ("batch", "stream"))
    def test_interrupted_farm_run_keeps_its_fault_counters(self, tmp_path, monkeypatch, mode):
        """A farm run that raises part-way still folds the retries it
        charged into the service stats, on both serving paths."""
        from repro.core import FarmPolicy
        from repro.core import farm as farm_module

        attempts = []

        def flaky(job, attempt=0):
            attempts.append(job)
            if len(attempts) == 1:
                raise RuntimeError("transient")  # charged as a retry
            raise KeyboardInterrupt

        monkeypatch.setattr(farm_module, "compile_farm_job_with_schedule", flaky)
        service = service_for(
            tmp_path, policy=FarmPolicy(backoff_base_s=0.001, backoff_max_s=0.01)
        )
        with pytest.raises(KeyboardInterrupt):
            if mode == "batch":
                service.submit_all(FAMILY_REQUESTS[:2])
                service.process_batch()
            else:
                list(service.stream(FAMILY_REQUESTS[:2]))
        assert service.farm.last_stats["retries"] == 1
        assert service.stats.retries == 1

    def test_compile_raises_cleanly_on_failed_ticket(self, tmp_path):
        service = service_for(tmp_path)
        ticket = service.submit(FAMILY_REQUESTS[0])
        ticket.fail(QPilotError("simulated failure"))
        with pytest.raises(QPilotError, match="simulated failure"):
            service.compile(FAMILY_REQUESTS[0])

    def test_every_coalesced_waiter_observes_a_typed_failure(self, tmp_path):
        """All duplicate submissions share the ticket, so all see the failure
        with its original exception type and traceback, and the ticket is
        dead-lettered exactly once."""
        from repro.exceptions import CompileError
        from repro.utils.faults import FaultPlan

        plan = FaultPlan.single("raise-in-compile", max_fires=None)
        request = CompileRequest(
            workload=FAMILY_REQUESTS[0].workload,
            config=FAMILY_REQUESTS[0].config,
            options=FarmOptions(faults=plan),
        )
        service = service_for(tmp_path)
        waiters = [service.submit(request) for _ in range(3)]
        assert waiters[0] is waiters[1] is waiters[2]  # coalesced
        service.process_batch()
        for ticket in waiters:
            assert ticket.failed
            assert ticket.error_type == "InjectedCompileError"
            assert "InjectedCompileError" in ticket.error_traceback
            assert ticket.attempts == 3  # 1 try + max_retries=2
        assert service.queue.dead_letters == [waiters[0]]
        assert service.stats.failed_jobs == 1
        with pytest.raises(CompileError) as exc_info:
            service.compile(request)
        assert exc_info.value.error_type == "InjectedCompileError"
        assert exc_info.value.digest == request.digest()


class TestStreaming:
    def test_stream_yields_one_response_per_request(self, tmp_path):
        service = service_for(tmp_path)
        responses = list(service.stream(FAMILY_REQUESTS))
        assert len(responses) == len(FAMILY_REQUESTS)
        assert all(r.source == "compiled" for r in responses)
        digests = {r.digest for r in responses}
        assert digests == {r.digest() for r in FAMILY_REQUESTS}

    def test_stream_serves_warm_keys_from_cache(self, tmp_path):
        service = service_for(tmp_path)
        list(service.stream(FAMILY_REQUESTS))
        warm = list(service.stream(FAMILY_REQUESTS))
        assert all(r.source == "cache" for r in warm)
        assert service.stats.farm_dispatches == len(FAMILY_REQUESTS)

    def test_stream_duplicates_share_one_compile(self, tmp_path):
        service = service_for(tmp_path)
        doubled = [FAMILY_REQUESTS[0], FAMILY_REQUESTS[1], FAMILY_REQUESTS[0]]
        responses = list(service.stream(doubled))
        assert len(responses) == 3
        assert service.stats.farm_dispatches == 2
        by_digest = {}
        for response in responses:
            by_digest.setdefault(response.digest, response)
            assert response.schedule_json() == by_digest[response.digest].schedule_json()

    def test_stream_is_incremental(self, tmp_path):
        """Responses arrive before the whole request set is processed."""
        service = service_for(tmp_path)
        iterator = service.stream(iter(FAMILY_REQUESTS))
        first = next(iterator)
        assert first is not None
        assert service.stats.completed >= 1
        rest = list(iterator)
        assert len(rest) == len(FAMILY_REQUESTS) - 1

    def test_stream_chunks_an_unbounded_generator(self, tmp_path):
        """stream() must not exhaust its input before yielding responses."""
        service = service_for(tmp_path)
        pulled = []

        def endless():
            for request in FAMILY_REQUESTS * 10:
                pulled.append(request)
                yield request

        iterator = service.stream(endless(), chunk_size=2)
        first = next(iterator)
        assert first is not None
        # only the first chunk was consumed from the generator, not all 30
        assert len(pulled) <= 2 + 1
        iterator.close()

    def test_stream_rejects_bad_chunk_size(self, tmp_path):
        service = service_for(tmp_path)
        with pytest.raises(QPilotError):
            list(service.stream(FAMILY_REQUESTS, chunk_size=0))

    def test_cross_chunk_duplicates_hit_the_store(self, tmp_path):
        """A duplicate in a later chunk is a cache hit, not a recompile."""
        service = service_for(tmp_path)
        doubled = [FAMILY_REQUESTS[0], FAMILY_REQUESTS[1], FAMILY_REQUESTS[0]]
        responses = list(service.stream(doubled, chunk_size=2))
        assert [r.source for r in responses] == ["compiled", "compiled", "cache"]
        assert service.stats.farm_dispatches == 2

    @pytest.mark.parametrize("executor", ("reference", "thread"))
    def test_stream_matches_batch_results(self, tmp_path, executor):
        batch_service = CompileService(tmp_path / "a", executor="reference")
        stream_service = CompileService(tmp_path / "b", executor=executor)
        batch_service.submit_all(FAMILY_REQUESTS)
        batch = {t.digest: t.response for t in batch_service.drain()}
        for response in stream_service.stream(FAMILY_REQUESTS):
            assert response.schedule_json() == batch[response.digest].schedule_json()
            assert response.metrics.deterministic() == batch[
                response.digest
            ].metrics.deterministic()


class TestStatsUnderFaults:
    """Batch and stream must report identical traffic identically.

    Regression origin: ``completed`` (and through it ``throughput_rps``)
    must count only *resolved* submissions — the batch path used to count
    a failed ticket's coalesced submissions while the stream path did
    not.  The differential feeds both paths one mixed, faulted traffic and
    compares everything they report.  The CI chaos job reruns it with the
    ``QPILOT_FAULTS`` preset as the plan of the compile-faulted keys."""

    @staticmethod
    def _traffic() -> tuple[list[list[CompileRequest]], CompileRequest, str]:
        """Waves of requests (one batch or one stream chunk each), the
        request to pre-warm and the digest whose store write fails."""
        from repro.utils.faults import FaultPlan

        env = FaultPlan.from_env()
        retried = env or FaultPlan.single("raise-in-compile", max_fires=1)
        poisoned = env or FaultPlan.single("raise-in-compile", max_fires=None)
        # a 0.3 s stall against a 0.1 s deadline: the expiry is not a race
        stalled = FaultPlan.single("stall-dispatch", duration_s=0.3, max_fires=None)

        # distinct widths give distinct fault keys, so a rated preset
        # fires on some keys and not on others
        def key(qubits, faults=None, deadline_s=None) -> CompileRequest:
            return CompileRequest.for_width(
                WorkloadSpec.random_circuit(qubits, 3, seed=qubits),
                4,
                options=FarmOptions(faults=faults),
                deadline_s=deadline_s,
            )

        warm, cold, unpersisted = key(5), key(6), key(7)
        dead = key(8, poisoned)
        waves = [
            [warm, key(9, stalled, deadline_s=0.1), cold, cold, key(10, retried),
             dead, dead, unpersisted],
            # three consecutive failures open the breaker ...
            [key(qubits, poisoned) for qubits in (11, 12, 13)],
            # ... which then rejects a cold key
            [key(14)],
        ]
        return waves, warm, unpersisted.digest()

    @classmethod
    def _serve(cls, root: Path, mode: str) -> dict:
        """Serve the traffic through one path; everything it reports."""
        from repro.core import FarmPolicy
        from repro.obs import MetricsRegistry
        from repro.service import BreakerPolicy
        from repro.utils.faults import FaultPlan

        waves, warm, unpersisted = cls._traffic()
        CompileService(root, executor="reference").compile(warm)
        registry = MetricsRegistry()
        store = ScheduleStore(
            root,
            faults=FaultPlan.single("fail-store-write", match=unpersisted, max_fires=None),
            registry=registry,
        )
        service = CompileService(
            store,
            executor="reference",
            policy=FarmPolicy(backoff_base_s=0.001, backoff_max_s=0.01),
            breaker=BreakerPolicy(failure_threshold=3),
            # a frozen clock: only the farm's real-time budget expires a
            # ticket, and the open breaker never half-opens mid-run
            clock=lambda: 0.0,
            registry=registry,
        )
        served = {}
        for wave in waves:
            if mode == "batch":
                service.submit_all(wave)
                responses = [t.response for t in service.drain() if t.done]
            else:
                responses = list(service.stream(wave))
            for response in responses:
                served[response.digest] = (response.source, response.schedule_json())
        stats = service.stats.to_dict()
        del stats["busy_s"], stats["throughput_rps"]
        counters = {
            (instrument.name, instrument.labels): instrument.value
            for instrument in registry.instruments()
            if instrument.kind == "counter"
            and instrument.name != "service_busy_seconds_total"
        }
        dead_letters = [
            (ticket.digest, ticket.error_type, ticket.submissions)
            for ticket in service.queue.dead_letters
        ]
        return {
            "stats": stats,
            "counters": counters,
            "dead_letters": dead_letters,
            "served": served,
        }

    def test_batch_and_stream_agree_on_completed(self, tmp_path):
        from repro.utils.faults import FaultPlan

        batch = self._serve(tmp_path / "batch", "batch")
        stream = self._serve(tmp_path / "stream", "stream")
        for field_name in ("stats", "counters", "dead_letters", "served"):
            assert batch[field_name] == stream[field_name], field_name
        if FaultPlan.from_env() is not None:
            return
        stats = batch["stats"]
        # 12 submissions: the warm key, the cold key twice, the retried
        # key and the unpersisted key are served; the poisoned duplicate's
        # 2 submissions never are
        assert stats["requests"] == 12
        assert stats["coalesced"] == 2
        assert stats["completed"] == 5, (
            "a failed ticket's submissions were counted as completed"
        )
        assert stats["cache_hits"] == 1
        assert stats["farm_dispatches"] == 8
        assert stats["failed_jobs"] == 4
        assert stats["expired"] == 1
        assert stats["rejected"] == 1
        assert stats["store_write_errors"] == 1
        assert stats["retries"] == 1 + 2 * 4
        assert stats["breaker_state"] == "open"
        assert [entry[1:] for entry in batch["dead_letters"]] == [
            ("DeadlineExceeded", 1),
            ("InjectedCompileError", 2),
            ("InjectedCompileError", 1),
            ("InjectedCompileError", 1),
            ("InjectedCompileError", 1),
            ("CircuitOpenError", 1),
        ]
        assert len(batch["served"]) == 4

    def test_failed_batch_leaves_throughput_finite_and_honest(self, tmp_path):
        """With every request failing, completed stays 0 on both paths."""
        from repro.utils.faults import FaultPlan

        options = FarmOptions(
            faults=FaultPlan.single("raise-in-compile", max_fires=None)
        )
        request = CompileRequest(
            workload=FAMILY_REQUESTS[0].workload,
            config=FAMILY_REQUESTS[0].config,
            options=options,
        )
        service = service_for(tmp_path)
        service.submit(request)
        service.submit(request)  # coalesced waiter
        service.process_batch()
        assert service.stats.completed == 0
        assert service.stats.throughput_rps is None or service.stats.throughput_rps == 0


class TestMemoryTierServing:
    """A service built from a path fronts its store with the memory tier."""

    def test_path_built_service_defaults_memory_tier_on(self, tmp_path):
        from repro.service.service import DEFAULT_MEMORY_ENTRIES

        service = service_for(tmp_path)
        assert service.store.memory_entries == DEFAULT_MEMORY_ENTRIES
        assert service_for(tmp_path / "off", memory_entries=None).store.memory_entries is None

    def test_warm_repeat_is_served_without_any_disk_read(self, tmp_path, monkeypatch):
        from pathlib import Path

        request = FAMILY_REQUESTS[0]
        service = service_for(tmp_path)
        cold = service.compile(request)

        def boom(*args, **kwargs):  # pragma: no cover - fails the test if hit
            raise AssertionError("warm serving touched the disk")

        monkeypatch.setattr(Path, "read_text", boom)
        monkeypatch.setattr(Path, "read_bytes", boom)
        import os

        monkeypatch.setattr(os, "utime", boom)
        warm = service.compile(request)
        assert warm.source == "cache"
        assert service.store.stats.memory_hits == 1
        assert warm.schedule_json() == cold.schedule_json()

    def test_fresh_memory_and_disk_serve_equal_schedules(self, tmp_path):
        """A fresh compile, a memory hit and a disk hit hand out equal
        schedule dicts: metadata is JSON-native (str keys, lists) at the
        router, so the disk round-trip changes nothing."""
        request = FAMILY_REQUESTS[0]
        service = service_for(tmp_path)
        fresh = service.compile(request)
        memory = service.compile(request)
        disk = service_for(tmp_path).compile(request)
        assert fresh.schedule["metadata"]["num_macro_stages"] >= 10
        assert (fresh.source, memory.source, disk.source) == ("compiled", "cache", "cache")
        assert service.store.stats.memory_hits == 1
        assert fresh.schedule == memory.schedule == disk.schedule

    def test_compressed_service_serves_identical_bytes(self, tmp_path):
        plain = service_for(tmp_path / "plain")
        gz = service_for(tmp_path / "gz", compress=True)
        request = FAMILY_REQUESTS[1]
        a = plain.compile(request)
        b = gz.compile(request)
        assert a.schedule_json() == b.schedule_json()
        # and the compressed store really serves across a restart
        reborn = service_for(tmp_path / "gz", compress=True)
        assert reborn.compile(request).source == "cache"


class TestUnboundedStreaming:
    """stream() fed by generators it must never exhaust up front."""

    def _endless(self, sequence, pulled):
        for request in sequence:
            pulled.append(request)
            yield request

    def test_cross_chunk_duplicate_from_generator_hits_store(self, tmp_path):
        service = service_for(tmp_path)
        pulled: list[CompileRequest] = []
        sequence = [FAMILY_REQUESTS[0], FAMILY_REQUESTS[1], FAMILY_REQUESTS[0]] * 5
        iterator = service.stream(self._endless(sequence, pulled), chunk_size=2)
        responses = [next(iterator) for _ in range(4)]
        # chunk 1 = [r0, r1] cold; chunk 2 = [r0(dup), r0] -> store hits
        assert [r.source for r in responses] == ["compiled", "compiled", "cache", "cache"]
        assert len(pulled) <= 5, "stream consumed far beyond the served chunks"
        assert service.stats.farm_dispatches == 2
        iterator.close()

    def test_in_chunk_duplicates_coalesce_from_generator(self, tmp_path):
        service = service_for(tmp_path)
        pulled: list[CompileRequest] = []
        sequence = [FAMILY_REQUESTS[0], FAMILY_REQUESTS[0], FAMILY_REQUESTS[1]]
        responses = list(
            service.stream(self._endless(sequence, pulled), chunk_size=3)
        )
        assert len(responses) == 3  # output count == input count
        assert service.stats.farm_dispatches == 2  # duplicate shared one compile
        assert service.stats.coalesced == 1
        assert responses[0].schedule_json() == responses[1].schedule_json()

    def test_failed_ticket_shrinks_output_by_its_submissions(self, tmp_path):
        from repro.utils.faults import FaultPlan

        options = FarmOptions(
            faults=FaultPlan.single("raise-in-compile", match="qsim", max_fires=None)
        )
        failing = CompileRequest(
            workload=FAMILY_REQUESTS[1].workload,
            config=FAMILY_REQUESTS[1].config,
            options=options,
        )
        ok = [
            CompileRequest(
                workload=r.workload, config=r.config, options=options
            )
            for r in (FAMILY_REQUESTS[0], FAMILY_REQUESTS[2])
        ]
        service = service_for(tmp_path)
        pulled: list[CompileRequest] = []
        sequence = [ok[0], failing, failing, ok[1]]
        responses = list(service.stream(self._endless(sequence, pulled), chunk_size=4))
        # 4 requests in, 2 responses out: the failing ticket absorbed 2
        assert len(responses) == 2
        assert {r.digest for r in responses} == {r.digest() for r in ok}
        assert len(service.queue.dead_letters) == 1
        assert service.queue.dead_letters[0].submissions == 2
        assert service.stats.completed == 2


class TestWarmFrom:
    """warm_from: archived DSE trajectories pre-populate the store."""

    def _sweep(self):
        from repro.core import sweep_grid

        specs = [r.workload for r in FAMILY_REQUESTS]
        return sweep_grid(specs, widths=(4,), executor="reference")

    def test_warm_from_archive_round_trip_serves_live_traffic(self, tmp_path):
        from repro.core.dse import SweepResult

        archived = SweepResult.from_json(self._sweep().to_json())
        service = service_for(tmp_path)
        counts = service.warm_from(archived)
        assert counts == {"points": 3, "warmed": 3, "already": 0, "skipped": 0, "failed": 0}

        # live traffic for the same grid must now be pure cache hits
        def forbidden(jobs, **kwargs):  # pragma: no cover - fails the test if hit
            raise AssertionError("farm dispatched on a warmed key")

        service.farm.run = forbidden
        service.farm.iter_results = forbidden
        from repro.core.farm import compile_farm_job_with_schedule
        from repro.utils.serialization import canonical_json

        for request in FAMILY_REQUESTS:
            response = service.compile(request)
            assert response.source == "cache"
            fresh = compile_farm_job_with_schedule(request.job())
            assert response.schedule_json() == canonical_json(fresh.schedule)

    def test_warm_from_is_idempotent(self, tmp_path):
        sweep = self._sweep()
        service = service_for(tmp_path)
        first = service.warm_from(sweep)
        second = service.warm_from(sweep)
        assert first["warmed"] == 3
        assert second == {"points": 3, "warmed": 0, "already": 3, "skipped": 0, "failed": 0}

    def test_warm_from_skips_failed_and_recordless_points(self, tmp_path):
        from repro.core.dse import SweepResult

        sweep = self._sweep()
        sweep.points[0].status = "failed"  # a dead grid cell
        sweep.points[1].job = None  # a pre-job-record archive
        archived = SweepResult.from_json(sweep.to_json())
        service = service_for(tmp_path)
        counts = service.warm_from(archived)
        assert counts == {"points": 3, "warmed": 1, "already": 0, "skipped": 2, "failed": 0}

    def test_warm_from_rewarms_unservable_entries(self, tmp_path):
        """An entry file that would not be served (an older schema) is not
        "already" warm: warming recompiles it and live traffic then hits."""
        sweep = self._sweep()
        first = service_for(tmp_path)
        assert first.warm_from(sweep)["warmed"] == 3
        digests = first.store.digests()
        for digest in digests:
            path = first.store.path_for(digest)
            data = json.loads(path.read_text())
            data["schema_version"] = 2
            path.write_text(json.dumps(data))
        counts = service_for(tmp_path).warm_from(sweep)
        assert counts == {"points": 3, "warmed": 3, "already": 0, "skipped": 0, "failed": 0}
        disk = ScheduleStore(tmp_path / "store")
        assert all(disk.get(digest) is not None for digest in digests)

    def test_warm_from_reports_dead_lettered_points_as_failed(
        self, tmp_path, monkeypatch, capsys
    ):
        """Only responses the stream yields count as warmed: a point whose
        compile dies in the farm is reported as failed, in the service
        counts and on the CLI ``warm`` line."""
        from repro.core import FarmPolicy
        from repro.core import farm as farm_module

        sweep = self._sweep()
        archive = tmp_path / "sweep.json"
        archive.write_text(sweep.to_json())

        def explode(job, attempt=0):
            raise RuntimeError("router exploded")

        monkeypatch.setattr(farm_module, "compile_farm_job_with_schedule", explode)
        service = service_for(tmp_path, policy=FarmPolicy(max_retries=0))
        counts = service.warm_from(sweep)
        assert counts == {"points": 3, "warmed": 0, "already": 0, "skipped": 0, "failed": 3}
        assert len(service.queue.dead_letters) == 3
        assert len(service.store) == 0
        warm_args = [
            "warm", "--store", str(tmp_path / "cli-store"), "--sweep", str(archive),
            "--executor", "reference",
        ]
        assert cli_main(warm_args) == 0
        out = capsys.readouterr().out
        assert "0 warmed" in out and "3 failed" in out


VALID_QASM = (
    "OPENQASM 2.0;\n"
    "qreg q[4];\n"
    "h q[0];\n"
    "cx q[0], q[1];\n"
    "cx q[1], q[2];\n"
    "cx q[2], q[3];\n"
)
BAD_QASM = "OPENQASM 2.0;\nqreg q[2];\ncx q[0], q[9];\n"


class TestQasmIngestion:
    """The untrusted ingestion boundary: submit_qasm / compile_qasm."""

    def test_valid_upload_compiles_then_serves_warm(self, tmp_path):
        service = service_for(tmp_path)
        cold = service.compile_qasm(VALID_QASM, width=4)
        assert cold.source == "compiled"
        assert service.stats.farm_dispatches == 1
        warm = service.compile_qasm(VALID_QASM, width=4)
        assert warm.cached
        assert service.stats.farm_dispatches == 1
        assert warm.schedule_json() == cold.schedule_json()

    def test_identical_uploads_coalesce_before_dispatch(self, tmp_path):
        service = service_for(tmp_path)
        first = service.submit_qasm(VALID_QASM, width=4)
        second = service.submit_qasm(VALID_QASM, width=4, name="renamed-upload")
        assert service.queue.depth == 1
        service.process_batch()
        assert first.done and second.done
        assert first.response.schedule_json() == second.response.schedule_json()
        assert service.stats.farm_dispatches == 1

    def test_invalid_upload_rejected_typed_without_dispatch(self, tmp_path):
        service = service_for(tmp_path)
        with pytest.raises(InvalidCircuitError) as excinfo:
            service.compile_qasm(BAD_QASM, width=4)
        assert isinstance(excinfo.value.__cause__, CircuitError)
        assert excinfo.value.line == 3
        assert service.stats.rejected_invalid == 1
        assert service.stats.farm_dispatches == 0
        assert service.queue.depth == 0
        assert not service.queue.dead_letters
        assert service.stats.to_dict()["rejected_invalid"] == 1

    def test_ingest_applies_caller_limits(self, tmp_path):
        service = service_for(tmp_path)
        with pytest.raises(InvalidCircuitError):
            service.compile_qasm(VALID_QASM, width=4, limits=CircuitLimits(max_qubits=2))
        assert service.stats.rejected_invalid == 1

    def test_memoised_text_still_rejected_under_tighter_qubit_limit(self, tmp_path):
        service = service_for(tmp_path)
        assert service.compile_qasm(VALID_QASM, width=4).source == "compiled"
        with pytest.raises(InvalidCircuitError) as excinfo:
            service.compile_qasm(VALID_QASM, width=4, limits=CircuitLimits(max_qubits=2))
        assert excinfo.value.line == 2
        assert service.stats.rejected_invalid == 1
        assert service.stats.farm_dispatches == 1

    def test_memoised_text_still_rejected_under_tighter_parse_depth(self, tmp_path):
        text = (CORPUS_DIR / "ok_hostile_angles_4q.qasm").read_text(encoding="utf-8")
        tight = CircuitLimits(max_parse_depth=2)
        with pytest.raises(CircuitError) as oracle:
            from_qasm(text, limits=tight)
        service = service_for(tmp_path)
        service.compile_qasm(text, width=4)
        with pytest.raises(InvalidCircuitError) as excinfo:
            service.compile_qasm(text, width=4, limits=tight)
        assert (excinfo.value.line, excinfo.value.column) == (
            oracle.value.line,
            oracle.value.column,
        )
        assert service.stats.rejected_invalid == 1

    def test_bad_text_rejected_every_time(self, tmp_path):
        service = service_for(tmp_path)
        for _ in range(2):
            with pytest.raises(InvalidCircuitError):
                service.compile_qasm(BAD_QASM, width=4)
        assert service.stats.rejected_invalid == 2
        assert service.stats.farm_dispatches == 0
        assert service.queue.depth == 0

    def test_hand_built_spec_with_wrong_size_raises_for_memoised_text(self, tmp_path):
        spec = service_for(tmp_path).ingest_qasm(VALID_QASM)
        assert spec.num_qubits == 4
        with pytest.raises(QPilotError):
            WorkloadSpec(kind="qasm", name="x", num_qubits=5, params=(("qasm", VALID_QASM),))

    def test_warm_upload_parses_zero_times_first_at_most_twice(self, tmp_path, qasm_parses):
        service = service_for(tmp_path)
        cold = service.compile_qasm(VALID_QASM, width=4)
        assert cold.source == "compiled"
        assert 1 <= len(qasm_parses) <= 2
        qasm_parses.clear()
        warm = service.compile_qasm(VALID_QASM, width=4)
        assert warm.cached
        assert qasm_parses == []

    def test_submit_qasm_requires_exactly_one_sizing(self, tmp_path):
        service = service_for(tmp_path)
        with pytest.raises(QPilotError):
            service.submit_qasm(VALID_QASM)
        with pytest.raises(QPilotError):
            service.submit_qasm(
                VALID_QASM, width=4, config=FPQAConfig.with_width(4, 4)
            )


class TestServiceCli:
    def _compile_args(self, store, kind: str = "circuit") -> list[str]:
        return [
            "compile", "--store", str(store), "--executor", "reference", "--kind", kind,
            "--qubits", "8", "--gate-multiple", "3", "--num-strings", "6", "--distance", "2",
            "--width", "4",
        ]

    @pytest.mark.parametrize("kind", [kind for kind in WORKLOAD_KINDS if kind != "qasm"])
    def test_compile_then_cache_hit(self, tmp_path, capsys, kind):
        store = tmp_path / "store"
        args = self._compile_args(store, kind)
        assert cli_main(args) == 0
        first = capsys.readouterr().out
        assert "compiled:" in first
        assert cli_main(args) == 0
        second = capsys.readouterr().out
        assert "cache:" in second
        assert "1 cache hits / 0 misses" in second

    def test_sweep_stream_and_stats_and_clear(self, tmp_path, capsys):
        store = tmp_path / "store"
        sweep = [
            "sweep", "--store", str(store), "--executor", "reference",
            "--kind", "qaoa", "--qubits", "8", "--widths", "4,8",
        ]
        assert cli_main(sweep) == 0
        out = capsys.readouterr().out
        assert out.count("compiled:") == 2
        assert cli_main(["stats", "--store", str(store), "--json"]) == 0
        stats = json.loads(capsys.readouterr().out)
        assert stats["entries"] == 2
        assert cli_main(["clear", "--store", str(store)]) == 0
        assert "removed 2 entries" in capsys.readouterr().out
        assert len(ScheduleStore(store)) == 0

    def test_stats_reports_disk_bytes(self, tmp_path, capsys):
        store = tmp_path / "store"
        assert cli_main(self._compile_args(store)) == 0
        capsys.readouterr()
        assert cli_main(["stats", "--store", str(store), "--json"]) == 0
        stats = json.loads(capsys.readouterr().out)
        assert stats["entries"] == 1
        assert stats["disk_bytes"] > 0

    def test_compile_qasm_file_then_cache_hit(self, tmp_path, capsys):
        qasm_file = tmp_path / "upload.oq"
        qasm_file.write_text(VALID_QASM)
        store = tmp_path / "store"
        args = [
            "compile", "--store", str(store), "--executor", "reference",
            "--qasm", str(qasm_file), "--width", "4",
        ]
        assert cli_main(args) == 0
        assert "compiled:" in capsys.readouterr().out
        assert cli_main(args) == 0
        out = capsys.readouterr().out
        assert "cache:" in out
        assert "1 cache hits / 0 misses" in out

    def test_invalid_qasm_exits_typed(self, tmp_path, capsys):
        qasm_file = tmp_path / "hostile.oq"
        qasm_file.write_text("OPENQASM 2.0;\nqreg q[1];\nrx(9**9**9) q[0];\n")
        store = tmp_path / "store"
        args = [
            "compile", "--store", str(store), "--executor", "reference",
            "--qasm", str(qasm_file), "--width", "4",
        ]
        assert cli_main(args) == EXIT_INVALID_CIRCUIT
        captured = capsys.readouterr()
        assert "rejected: InvalidCircuitError" in captured.err
        assert "Traceback" not in captured.err
        assert cli_main(args + ["--json"]) == EXIT_INVALID_CIRCUIT
        payload = json.loads(capsys.readouterr().out)
        assert payload["error"]["type"] == "InvalidCircuitError"
        assert payload["error"]["line"] == 3
        assert len(ScheduleStore(store)) == 0

    def test_warm_subcommand_replays_an_archive(self, tmp_path, capsys):
        from repro.core import sweep_grid

        sweep = sweep_grid(
            [r.workload for r in FAMILY_REQUESTS], widths=(4,), executor="reference"
        )
        archive = tmp_path / "sweep.json"
        archive.write_text(sweep.to_json())
        store = tmp_path / "store"
        warm_args = [
            "warm", "--store", str(store), "--sweep", str(archive),
            "--executor", "reference",
        ]
        assert cli_main(warm_args + ["--json"]) == 0
        counts = json.loads(capsys.readouterr().out)
        assert counts["points"] == 3 and counts["warmed"] == 3
        assert len(ScheduleStore(store)) == 3
        # a second replay is pure already-cached
        assert cli_main(warm_args) == 0
        out = capsys.readouterr().out
        assert "0 warmed" in out and "3 already cached" in out
        # and the warmed store serves the same grid as cache hits
        assert cli_main(self._compile_args(store) + ["--seed", "21"]) == 0
        assert "cache:" in capsys.readouterr().out
