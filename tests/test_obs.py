"""Observability layer tests: tracing spans, metrics registry, event log.

The acceptance suite for the ``repro.obs`` subsystem.  The central
properties:

* **End-to-end trace** — a cold ``CompileService.compile`` under an
  active tracer yields a single rooted span tree containing the
  worker-side routing span and the ``store-write`` span; the warm repeat
  yields a ``store-get`` hit and **zero** routing spans.  Worker spans
  cross the farm's pickle boundary on the result objects and are adopted
  into the service-side tree, so the same tree appears on the process
  executor.
* **Purity** — tracing on vs off produces byte-identical canonical
  schedule JSON and equal digests: span records never leak into memo
  keys, store entries or schedules.
* **Registry-backed stats** — ``ServiceStats``/``StoreStats`` are views
  over the service's :class:`MetricsRegistry`; for a mixed
  warm/cold/failed workload every view field equals the corresponding
  registry instrument.
"""

from __future__ import annotations

import json
import logging

import pytest

from repro.circuit import random_cx_circuit
from repro.core import FarmOptions, QPilotCompiler, WorkloadSpec
from repro.exceptions import InvalidCircuitError
from repro.obs.events import configure_event_log, log_event, remove_event_log
from repro.obs.metrics import DEFAULT_BUCKETS, MetricsRegistry
from repro.obs.tracing import (
    SpanRecord,
    Tracer,
    activate,
    adopt,
    current_tracer,
    format_trace,
    span,
    tracing_enabled,
    validate_spans,
)
from repro.service import CompileRequest, CompileService
from repro.utils.faults import FaultPlan

REQUESTS = [
    CompileRequest.for_width(WorkloadSpec.random_circuit(8, 3, seed=21), 4),
    CompileRequest.for_width(WorkloadSpec.qsim(8, 0.3, num_strings=6, seed=22), 4),
]


def service_for(tmp_path, **kwargs) -> CompileService:
    kwargs.setdefault("executor", "reference")
    return CompileService(tmp_path / "store", **kwargs)


def span_names(tracer: Tracer) -> set[str]:
    return {record.name for record in tracer.records()}


class TestTracer:
    def test_nesting_builds_parent_child_topology(self):
        tracer = Tracer()
        with activate(tracer):
            with span("outer"):
                with span("inner"):
                    pass
                with span("sibling"):
                    pass
        assert tracer.shape() == [["outer", [["inner", []], ["sibling", []]]]]
        assert validate_spans(tracer.records()) == []

    def test_attrs_set_chaining_and_kwargs(self):
        tracer = Tracer()
        with activate(tracer):
            with span("s", router="generic") as live:
                live.set("outcome", "ok").set("n", 3)
        (record,) = tracer.records()
        assert record.attrs == {"router": "generic", "outcome": "ok", "n": 3}

    def test_exception_records_error_attr_and_closes_span(self):
        tracer = Tracer()
        with activate(tracer):
            with pytest.raises(ValueError):
                with span("doomed"):
                    raise ValueError("boom")
        (record,) = tracer.records()
        assert record.attrs["error"] == "ValueError"
        assert record.start_s <= record.end_s

    def test_noop_when_no_tracer_active(self):
        assert not tracing_enabled()
        assert current_tracer() is None
        first = span("anything", key="value")
        second = span("other")
        assert first is second  # the shared no-op instance
        with first as live:
            assert live.set("k", "v") is live
        assert adopt([SpanRecord("x", 1, None, 0.0, 1.0)]) == []

    def test_activate_none_suspends_and_restores(self):
        tracer = Tracer()
        with activate(tracer):
            with span("traced"):
                pass
            with activate(None):
                assert not tracing_enabled()
                with span("invisible"):
                    pass
            assert current_tracer() is tracer
        assert span_names(tracer) == {"traced"}

    def test_adopt_remaps_ids_and_reparents_roots(self):
        worker = Tracer()
        with activate(worker):
            with span("compile"):
                with span("route"):
                    pass
        parent = Tracer()
        with activate(parent):
            with span("farm-dispatch"):
                adopt(worker.records())
        assert parent.shape() == [["farm-dispatch", [["compile", [["route", []]]]]]]
        assert validate_spans(parent.records()) == []
        ids = [record.span_id for record in parent.records()]
        assert len(ids) == len(set(ids))

    def test_adopt_accepts_dicts(self):
        tracer = Tracer()
        records = [SpanRecord("w", 7, None, 0.0, 0.5, {"a": 1}).to_dict()]
        adopted = tracer.adopt(records)
        assert adopted[0].name == "w" and adopted[0].attrs == {"a": 1}

    def test_span_record_round_trips_through_dict(self):
        record = SpanRecord("r", 3, 1, 1.25, 2.5, {"router": "qsim"})
        assert SpanRecord.from_dict(record.to_dict()) == record
        assert record.duration_s == 1.25

    def test_validate_spans_flags_problems(self):
        bad = [
            SpanRecord("backwards", 1, None, 2.0, 1.0),
            SpanRecord("orphan", 2, 99, 0.0, 1.0),
        ]
        problems = validate_spans(bad)
        assert len(problems) == 2
        assert any("start > end" in p for p in problems)
        assert any("unknown parent" in p for p in problems)

    def test_to_dict_and_format_trace(self):
        tracer = Tracer()
        with activate(tracer):
            with span("request", workload="w"):
                with span("store-get") as get:
                    get.set("outcome", "miss")
        document = tracer.to_dict()
        assert document["schema_version"] == 1
        json.dumps(document)  # JSON-able
        rendered = format_trace(document)
        assert "request" in rendered and "outcome=miss" in rendered
        assert rendered.splitlines()[-1] == "2 spans, 1 roots"

    def test_clear_resets_ids(self):
        tracer = Tracer()
        with activate(tracer):
            with span("a"):
                pass
        tracer.clear()
        with activate(tracer):
            with span("b"):
                pass
        assert tracer.records()[0].span_id == 1


class TestMetrics:
    def test_counter_increments_and_rejects_negatives(self):
        registry = MetricsRegistry()
        counter = registry.counter("jobs_total")
        counter.inc()
        counter.inc(2)
        assert counter.value == 3
        with pytest.raises(ValueError):
            counter.inc(-1)

    def test_same_key_returns_same_instrument(self):
        registry = MetricsRegistry()
        assert registry.counter("c", lane="hot") is registry.counter("c", lane="hot")
        assert registry.counter("c", lane="hot") is not registry.counter("c", lane="cold")
        assert registry.gauge("g") is registry.gauge("g")

    def test_gauge_moves_both_ways(self):
        gauge = MetricsRegistry().gauge("depth")
        gauge.set(5)
        gauge.inc()
        gauge.dec(2)
        assert gauge.value == 4

    def test_histogram_buckets_are_cumulative(self):
        registry = MetricsRegistry()
        histogram = registry.histogram("lat", buckets=(0.1, 1.0, 10.0))
        for value in (0.05, 0.5, 5.0, 50.0):
            histogram.observe(value)
        snapshot = histogram.snapshot()
        assert snapshot["count"] == 4
        assert snapshot["sum"] == pytest.approx(55.55)
        assert snapshot["buckets"] == {"0.1": 1, "1.0": 2, "10.0": 3}

    def test_json_exposition_is_sorted_and_labelled(self):
        registry = MetricsRegistry()
        registry.counter("b_total").inc()
        registry.counter("a_total", lane="hot").inc(2)
        data = registry.to_dict()
        assert list(data) == ['a_total{lane="hot"}', "b_total"]
        assert data['a_total{lane="hot"}'] == 2

    def test_prometheus_exposition_is_well_formed(self):
        registry = MetricsRegistry()
        registry.counter("requests_total").inc(3)
        registry.gauge("queue_depth").set(2)
        registry.histogram("seconds", buckets=DEFAULT_BUCKETS[:3]).observe(0.007)
        text = registry.to_prometheus()
        lines = text.strip().splitlines()
        assert "# TYPE requests_total counter" in lines
        assert "requests_total 3" in lines
        assert "queue_depth 2" in lines
        assert 'seconds_bucket{le="+Inf"} 1' in lines
        assert "seconds_count 1" in lines
        for line in lines:
            if not line.startswith("#"):
                float(line.rsplit(" ", 1)[1])  # every sample line parses


class TestEventLog:
    def test_json_lines_round_trip(self, tmp_path):
        path = tmp_path / "events.jsonl"
        handler = configure_event_log(path)
        try:
            logger = logging.getLogger("repro.test.events")
            log_event(logger, "fault-fired", kind="raise-in-compile", attempt=0)
            logger.warning("plain message %d", 7)
        finally:
            remove_event_log(handler)
        events = [json.loads(line) for line in path.read_text().splitlines()]
        assert len(events) == 2
        assert events[0]["event"] == "fault-fired"
        assert events[0]["kind"] == "raise-in-compile"
        assert events[0]["attempt"] == 0
        assert events[0]["logger"] == "repro.test.events"
        assert events[1]["event"] == "log"
        assert events[1]["message"] == "plain message 7"

    def test_remove_detaches_handler(self, tmp_path):
        path = tmp_path / "events.jsonl"
        handler = configure_event_log(path)
        remove_event_log(handler)
        log_event(logging.getLogger("repro.test.detached"), "after-detach")
        assert "after-detach" not in path.read_text()

    def test_service_failure_emits_events(self, tmp_path):
        """A failing compile leaves a parseable fault/retry/dead-letter trail."""
        path = tmp_path / "events.jsonl"
        plan = FaultPlan.single("raise-in-compile", max_fires=None)
        request = CompileRequest(
            workload=REQUESTS[0].workload,
            config=REQUESTS[0].config,
            options=FarmOptions(faults=plan),
        )
        handler = configure_event_log(path)
        try:
            service = service_for(tmp_path)
            service.submit(request)
            service.process_batch()
        finally:
            remove_event_log(handler)
        events = [json.loads(line) for line in path.read_text().splitlines()]
        names = {event["event"] for event in events}
        assert "fault-fired" in names
        assert "job-failed" in names
        assert "dead-letter" in names


class TestEndToEndTrace:
    def test_cold_then_warm_trace_tree(self, tmp_path):
        service = service_for(tmp_path)
        cold = Tracer()
        with activate(cold):
            service.compile(REQUESTS[0])
        # one rooted tree: request → ... with the worker-side routing span
        # and the store-write span grafted in
        assert len(cold.roots()) == 1
        assert cold.roots()[0].name == "request"
        assert validate_spans(cold.records()) == []
        names = span_names(cold)
        assert {"store-get", "farm-dispatch", "compile", "route", "verify",
                "workload-build", "store-write"} <= names
        (get,) = cold.find("store-get")
        assert get.attrs["outcome"] == "miss"

        warm = Tracer()
        with activate(warm):
            service.compile(REQUESTS[0])
        assert warm.shape() == [["request", [["store-get", []]]]]
        (get,) = warm.find("store-get")
        assert get.attrs["outcome"] == "hit"
        assert warm.find("route") == []  # zero routing spans on the warm path

    def test_worker_spans_cross_the_process_boundary(self, tmp_path):
        """Two unique jobs on the process executor: spans ship back on the
        pickled results and are adopted into the service-side tree."""
        service = service_for(tmp_path, executor="process", max_workers=2)
        tracer = Tracer()
        with activate(tracer):
            service.submit_all(REQUESTS)
            tickets = service.drain()
        assert all(ticket.done and not ticket.failed for ticket in tickets)
        assert validate_spans(tracer.records()) == []
        compiles = tracer.find("compile")
        assert len(compiles) == len(REQUESTS)
        assert len(tracer.find("route")) == len(REQUESTS)
        dispatch_ids = {record.span_id for record in tracer.find("farm-dispatch")}
        assert all(record.parent_id in dispatch_ids for record in compiles)

    def test_trace_content_is_deterministic(self, tmp_path):
        shapes = []
        for run in range(2):
            service = service_for(tmp_path / str(run))
            tracer = Tracer()
            with activate(tracer):
                service.compile(REQUESTS[0])
            shapes.append(tracer.shape())
        assert shapes[0] == shapes[1]

    def test_generic_route_nests_one_span_per_stage(self):
        """The generic router's per-stage spans sit under its route span:
        the phase breakdown a compile-time regression is attributed with."""
        tracer = Tracer()
        with activate(tracer):
            result = QPilotCompiler().compile_circuit(random_cx_circuit(8, 24, seed=21))
        (route,) = tracer.find("route")
        stages = tracer.find("stage")
        assert len(stages) >= result.schedule.metadata["num_macro_stages"] > 0
        assert all(stage.parent_id == route.span_id for stage in stages)
        assert len(tracer.find("verify")) == 1


class TestPurity:
    def test_schedules_and_digests_identical_tracing_on_and_off(self, tmp_path):
        plain = service_for(tmp_path / "off")
        response_off = plain.compile(REQUESTS[0])
        traced = service_for(tmp_path / "on")
        tracer = Tracer()
        with activate(tracer):
            response_on = traced.compile(REQUESTS[0])
        assert tracer.records()  # tracing actually happened
        assert response_on.digest == response_off.digest
        assert response_on.schedule_json() == response_off.schedule_json()
        assert response_on.metrics.deterministic() == response_off.metrics.deterministic()

    def test_spans_never_enter_store_entries_or_metric_dicts(self, tmp_path):
        service = service_for(tmp_path)
        tracer = Tracer()
        with activate(tracer):
            response = service.compile(REQUESTS[0])
        assert "spans" not in response.metrics.to_dict()
        assert response.metrics.deterministic().spans is None
        entry = service.store.get(response.digest)
        assert entry is not None
        assert entry.metrics.spans is None

    def test_farm_options_key_and_digest_ignore_trace_flag(self):
        from dataclasses import replace

        base = FarmOptions()
        traced = replace(base, trace=True)
        assert base.key() == traced.key()
        assert base.to_dict() == traced.to_dict()
        job = REQUESTS[0].job()
        assert job.digest() == replace(job, options=traced).digest()


class TestRegistryBackedStats:
    def test_view_equals_registry_for_mixed_workload(self, tmp_path):
        """Cold + warm + failed traffic: the ServiceStats/StoreStats views and
        the registry exposition are the same numbers."""
        plan = FaultPlan.single("raise-in-compile", max_fires=None)
        failing = CompileRequest(
            workload=WorkloadSpec.qaoa_random_graph(8, 0.4, seed=23),
            config=REQUESTS[0].config,
            options=FarmOptions(faults=plan),
        )
        service = service_for(tmp_path)
        for request in REQUESTS:  # cold
            service.compile(request)
        for request in REQUESTS:  # warm
            service.compile(request)
        service.submit(failing)  # failed
        service.process_batch()

        stats = service.stats
        data = service.metrics_dict()
        assert data["service_requests_total"] == stats.requests == 5
        assert data["service_cache_hits_total"] == stats.cache_hits == 2
        assert data["service_cache_misses_total"] == stats.cache_misses == 3
        assert data["service_farm_dispatches_total"] == stats.farm_dispatches == 3
        assert data["service_completed_total"] == stats.completed == 4
        assert data["service_failed_jobs_total"] == stats.failed_jobs == 1
        assert data["service_queue_depth"] == stats.queue_depth == 0

        store_stats = service.store.stats
        assert data["store_writes_total"] == store_stats.writes == 2
        assert data["store_misses_total"] == store_stats.misses == 3
        assert (
            data["store_memory_hits_total"] + data["store_disk_hits_total"]
            == store_stats.hits
            == 2
        )

    def test_every_stats_field_reads_its_registry_counter(self, tmp_path):
        """Each counted ServiceStats/StoreStats field is its registry counter
        (zero-valued ones included), and the to_dict() key sets are fixed."""
        service = service_for(tmp_path)
        for request in REQUESTS:  # cold, then a memory hit
            service.compile(request)
            service.compile(request)
        service.submit(REQUESTS[0])
        service.submit(REQUESTS[0])  # coalesced, then served from memory
        service.drain()
        with pytest.raises(InvalidCircuitError):
            service.compile_qasm("OPENQASM 2.0;\nqreg q[2];\ncx q[0], q[9];\n", width=2)
        reborn = service_for(tmp_path, registry=service.registry)
        reborn.compile(REQUESTS[1])  # disk hit, on the shared registry

        stats = service.stats
        store_stats = service.store.stats
        data = service.metrics_dict()
        for name in (
            "requests", "coalesced", "cache_hits", "cache_misses", "farm_dispatches",
            "completed", "retries", "pool_respawns", "timeouts", "failed_jobs",
            "store_write_errors", "rejected", "rejected_invalid", "shed", "expired",
        ):
            assert data[f"service_{name}_total"] == getattr(stats, name), name
        assert data["service_busy_seconds_total"] == stats.busy_s > 0
        for name in (
            "memory_hits", "disk_hits", "misses", "writes", "evictions",
            "memory_evictions", "corrupt",
        ):
            assert data[f"store_{name}_total"] == getattr(store_stats, name), name
        assert store_stats.hits == store_stats.memory_hits + store_stats.disk_hits == 4
        assert stats.rejected_invalid == 1 and store_stats.disk_hits == 1

        assert set(stats.to_dict()) == {
            "requests", "coalesced", "cache_hits", "cache_misses", "cache_hit_rate",
            "farm_dispatches", "completed", "busy_s", "throughput_rps", "queue_depth",
            "retries", "pool_respawns", "timeouts", "failed_jobs", "store_write_errors",
            "degraded", "rejected", "rejected_invalid", "shed", "expired",
            "dead_letters_dropped", "breaker_state", "breaker_trips", "lane_depths",
        }
        assert set(store_stats.to_dict()) == {
            "hits", "memory_hits", "disk_hits", "misses", "writes", "evictions",
            "memory_evictions", "corrupt", "hit_rate", "memory_hit_rate", "disk_hit_rate",
        }

    def test_store_and_farm_share_the_service_registry(self, tmp_path):
        registry = MetricsRegistry()
        service = service_for(tmp_path, registry=registry)
        assert service.registry is registry
        assert service.store.registry is registry
        service.compile(REQUESTS[0])
        assert registry.counter("service_requests_total").value == 1
        assert registry.counter("store_writes_total").value == 1
        assert registry.counter("farm_runs_total").value == 1

    def test_prometheus_exposition_includes_service_and_store(self, tmp_path):
        service = service_for(tmp_path)
        service.compile(REQUESTS[0])
        text = service.metrics_prometheus()
        assert "# TYPE service_requests_total counter" in text
        assert "service_requests_total 1" in text
        assert "store_writes_total 1" in text
        assert "service_compile_seconds" in text
