"""Which public functions of the program are traced, and the per-layer figures.

:func:`install` patches one span around each public entry point of a
layer; :func:`layer_metrics` turns the spans of the traced phase into
the per-layer metrics.  Times are self times (a span minus the part
its child spans cover), normalised per completed op, so phases of
different length compare.  ``farm.run_s`` is the one inclusive figure:
it is the farm's wall time as its caller sees it.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Any

from qpbench.ledger import Recorder, Span, classify_get, self_times

#: Spans where an op enters the program; their self time is the part of
#: the op no inner layer accounts for (the unattributed remainder).
ENTRY_SPANS = ("service.compile", "service.compile_qasm", "dse.sweep_grid")
ROUTE_SPANS = {
    "compile_circuit": "route.generic",
    "compile_pauli_strings": "route.qsim",
    "compile_qaoa": "route.qaoa",
}
OP_KINDS = ("qasm", "qsim", "qaoa", "grid")


def _store_counts(store) -> tuple[int, int, int]:
    stats = store.stats
    return stats.memory_hits, stats.disk_hits, stats.misses


def install(recorder: Recorder) -> None:
    """Patch every traced entry point; undone by ``recorder.uninstall()``."""
    from repro.circuit import qasm
    from repro.core import dse
    from repro.core.compiler import QPilotCompiler
    from repro.core.evaluator import PerformanceEvaluator
    from repro.core.farm import CompileFarm, WorkloadSpec
    from repro.core.schedule import FPQASchedule
    from repro.service import store as store_module
    from repro.service.service import CompileService
    from repro.service.store import ScheduleStore, StoreEntry
    from repro.utils import serialization

    def text_bytes(span, _, result, text, *args, **kwargs):
        span.attrs["bytes"] = len(text)

    def result_bytes(span, _, result, *args, **kwargs):
        span.attrs["bytes"] = len(result)

    def stages(span, _, result, *args, **kwargs):
        span.attrs["stages"] = result.schedule.num_stages

    def get_tier(span, before, result, store, digest):
        span.attrs["tier"] = classify_get(before, _store_counts(store))

    def put_bytes(span, _, result, store, digest, *args, **kwargs):
        span.attrs["bytes"] = store.path_for(digest).stat().st_size

    def farm_stats(span, _, results, farm, *args, **kwargs):
        stats = farm.last_stats
        span.attrs.update(
            busy=sum(_compile_time(result) for result in results),
            workers=stats["max_workers"],
            retries=stats["retries"],
            pool_respawns=stats["pool_respawns"],
            failed_jobs=stats["failed_jobs"],
        )

    patch = recorder.patch
    patch(qasm, "from_qasm", "qasm.parse", after=text_bytes)
    patch(WorkloadSpec, "build", "workload.build")
    for method, name in ROUTE_SPANS.items():
        patch(QPilotCompiler, method, name, after=stages)
    patch(FPQASchedule, "validate", "verify.validate")
    patch(PerformanceEvaluator, "evaluate", "verify.evaluate")
    patch(serialization, "schedule_to_dict", "serialise.to_dict")
    patch(store_module, "canonical_json", "serialise.encode", after=result_bytes)
    patch(StoreEntry, "from_dict", "serialise.from_dict")
    patch(ScheduleStore, "get", "store.get", before=lambda store, digest: _store_counts(store),
          after=get_tier)
    patch(ScheduleStore, "put", "store.put", after=put_bytes)
    patch(CompileFarm, "run", "farm.run", after=farm_stats)
    patch(CompileService, "compile", "service.compile")
    patch(CompileService, "compile_qasm", "service.compile_qasm")
    patch(dse, "sweep_grid", "dse.sweep_grid")


def _compile_time(result: Any) -> float:
    if result.failed:
        return 0.0
    metrics = getattr(result, "metrics", result)
    return metrics.compile_time_s or 0.0


def layer_metrics(spans: list[Span]) -> dict[str, float]:
    """Per-layer figures over the ops among ``spans`` (spans outside ops are ignored)."""
    ops = [span for span in spans if span.name == "op"]
    op_ids = {span.id for span in ops}
    inside = [span for span in spans if span.op in op_ids]
    own = self_times(inside)
    n = max(1, len(ops))

    calls: dict[str, int] = defaultdict(int)
    self_s: dict[str, float] = defaultdict(float)
    attrs: dict[str, float] = defaultdict(float)
    tiers: dict[str, list[Span]] = defaultdict(list)
    unattributed = {span.id: own[span.id] for span in ops}
    farm_wall = farm_capacity = farm_overhead = 0.0
    for span in inside:
        calls[span.name] += 1
        self_s[span.name] += own[span.id]
        for key, value in span.attrs.items():
            if isinstance(value, (int, float)):
                attrs[f"{span.name}.{key}"] += value
        if span.name == "store.get":
            tiers[span.attrs["tier"]].append(span)
        if span.name in ENTRY_SPANS:
            unattributed[span.op] += own[span.id]
        if span.name == "farm.run":
            farm_wall += span.duration
            farm_capacity += span.duration * span.attrs["workers"]
            farm_overhead += span.duration - span.attrs["busy"] / span.attrs["workers"]

    uploads = sum(1 for span in ops if span.attrs["kind"] == "qasm")
    gets = sum(len(group) for group in tiers.values())
    op_wall = sum(span.duration for span in ops)
    metrics = {
        "qasm.parse_calls_per_upload": calls["qasm.parse"] / uploads if uploads else 0.0,
        "qasm.parse_s": self_s["qasm.parse"] / n,
        "qasm.bytes_per_s": (
            attrs["qasm.parse.bytes"] / self_s["qasm.parse"] if self_s["qasm.parse"] else 0.0
        ),
        "workload.build_calls": calls["workload.build"] / n,
        "workload.build_s": self_s["workload.build"] / n,
        "route.generic_s": self_s["route.generic"] / n,
        "route.qsim_s": self_s["route.qsim"] / n,
        "route.qaoa_s": self_s["route.qaoa"] / n,
        "route.calls": sum(calls[name] for name in ROUTE_SPANS.values()) / n,
        "verify.validate_s": self_s["verify.validate"] / n,
        "verify.evaluate_s": self_s["verify.evaluate"] / n,
        "serialise.to_dict_s": self_s["serialise.to_dict"] / n,
        "serialise.encode_s": self_s["serialise.encode"] / n,
        "serialise.encode_bytes": attrs["serialise.encode.bytes"] / n,
        "serialise.from_dict_s": self_s["serialise.from_dict"] / n,
        "store.put_calls": calls["store.put"] / n,
        "store.put_s": self_s["store.put"] / n,
        "store.bytes_written": attrs["store.put.bytes"] / n,
        "store.memory_hit_ratio": len(tiers["memory"]) / gets if gets else 0.0,
        "farm.run_calls": calls["farm.run"] / n,
        "farm.run_s": farm_wall / n,
        "farm.busy_s": attrs["farm.run.busy"] / n,
        "farm.overhead_s": farm_overhead / n,
        "farm.parallel_efficiency": attrs["farm.run.busy"] / farm_capacity if farm_capacity else 0.0,
        "farm.retries": attrs["farm.run.retries"],
        "farm.failed_jobs": attrs["farm.run.failed_jobs"],
        "farm.pool_respawns": attrs["farm.run.pool_respawns"],
        "service.self_s": (self_s["service.compile"] + self_s["service.compile_qasm"]) / n,
        "ledger.attributed_ratio": (
            1.0 - sum(unattributed.values()) / op_wall if op_wall else 0.0
        ),
    }
    for tier in ("memory", "disk"):
        metrics[f"store.get_{tier}_calls"] = len(tiers[tier]) / n
        metrics[f"store.get_{tier}_s"] = sum(own[span.id] for span in tiers[tier]) / n
    metrics["store.get_miss_calls"] = len(tiers["miss"]) / n
    for kind in OP_KINDS:
        of_kind = [span.id for span in ops if span.attrs["kind"] == kind]
        metrics[f"ledger.unattributed_ms.{kind}"] = (
            1000.0 * sum(unattributed[i] for i in of_kind) / len(of_kind) if of_kind else 0.0
        )
    return metrics


#: Every per-layer metric, in report order, with its unit.  Per-op
#: figures are normalised by the completed ops of the phase they come from.
PER_LAYER = {
    "qasm.parse_calls_per_upload": "calls/upload",
    "qasm.parse_s": "s/op",
    "qasm.bytes_per_s": "B/s",
    "workload.build_calls": "calls/op",
    "workload.build_s": "s/op",
    "route.generic_s": "s/op",
    "route.qsim_s": "s/op",
    "route.qaoa_s": "s/op",
    "route.calls": "calls/op",
    "schedule.stages_total": "count",
    "verify.validate_s": "s/op",
    "verify.evaluate_s": "s/op",
    "serialise.to_dict_s": "s/op",
    "serialise.encode_s": "s/op",
    "serialise.encode_bytes": "B/op",
    "serialise.from_dict_s": "s/op",
    "store.get_memory_calls": "calls/op",
    "store.get_memory_s": "s/op",
    "store.get_disk_calls": "calls/op",
    "store.get_disk_s": "s/op",
    "store.get_miss_calls": "calls/op",
    "store.put_calls": "calls/op",
    "store.put_s": "s/op",
    "store.memory_hit_ratio": "ratio",
    "store.evictions": "evictions/op",
    "store.bytes_written": "B/op",
    "store.kb_per_entry": "KB",
    "farm.run_calls": "calls/op",
    "farm.run_s": "s/op",
    "farm.busy_s": "s/op",
    "farm.overhead_s": "s/op",
    "farm.parallel_efficiency": "ratio",
    "farm.retries": "count",
    "farm.failed_jobs": "count",
    "farm.pool_respawns": "count",
    "farm.workers_peak_rss_mb": "MB",
    "service.requests": "1/op",
    "service.completed": "1/op",
    "service.coalesced": "1/op",
    "service.self_s": "s/op",
    "gc.pause_s": "s/op",
    "gc.gen2_collections": "1/op",
    "gc.pause_ratio": "ratio",
    "ledger.attributed_ratio": "ratio",
    **{f"ledger.unattributed_ms.{kind}": "ms/op" for kind in OP_KINDS},
    "trace.overhead_ratio": "ratio",
    "latency.tail_ms": "ms",
    "latency.tail_pct": "%",
    "latency.tail_samples": "count",
    "errors.ratio": "ratio",
}
