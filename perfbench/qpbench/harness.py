"""One benchmark run: set up, time a closed loop, trace, check, report.

A run with ``--trace 0`` times one untraced phase and reports the
end-to-end metrics.  A run with ``--trace 1`` times the same untraced
phase (with the garbage-collector probe on), then a second phase with
every layer traced, and reports the per-layer metrics; the ratio of the
two phases' throughput is the tracing overhead.
"""

from __future__ import annotations

import contextlib
import gc
import json
import os
import resource
import shutil
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from statistics import median

from qpbench import layers
from qpbench.ledger import Recorder, tail_percentile
from qpbench.workloads import WORKLOADS, Workload

#: Set-ups per run: this process plus fresh interpreters; the median is reported.
SETUP_REPEATS = 3
SETUP_CHILD_TIMEOUT_S = 150


@dataclass
class Phase:
    latencies: list[float] = field(default_factory=list)
    kinds: list[str] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    errors: list[str] = field(default_factory=list)
    #: Peak RSS (MB) once the workload's panel of ops had completed.
    panel_rss_mb: float = 0.0

    @property
    def ops_per_s(self) -> float:
        busy = sum(self.latencies)
        return len(self.latencies) / busy if busy else 0.0


class GcProbe:
    """Collector pauses seen through ``gc.callbacks``."""

    def __init__(self):
        self.pause_s = 0.0
        self.gen2 = 0
        self._started = 0.0

    def __call__(self, phase: str, info: dict) -> None:
        if phase == "start":
            self._started = time.perf_counter()
            return
        self.pause_s += time.perf_counter() - self._started
        if info["generation"] == 2:
            self.gen2 += 1

    def __enter__(self) -> "GcProbe":
        gc.callbacks.append(self)
        return self

    def __exit__(self, *exc) -> None:
        gc.callbacks.remove(self)


def peak_rss_mb(who: int = resource.RUSAGE_SELF) -> float:
    return resource.getrusage(who).ru_maxrss / 1024.0  # KiB on Linux


def run_phase(
    workload: Workload, seconds: float, min_ops: int, recorder: Recorder | None = None
) -> Phase:
    """Closed loop: one client, next op only after the last one completed."""
    phase = Phase()
    started = time.perf_counter()
    while phase.attempted < min_ops or time.perf_counter() - started < seconds:
        op = workload.next_op()
        phase.attempted += 1
        span = recorder.open("op", kind=op.kind) if recorder else None
        begin = time.perf_counter()
        try:
            result = op.call()
        except Exception as exc:  # a failed op is counted, never fatal
            phase.failed += 1
            phase.errors.append(f"{op.kind} op raised {type(exc).__name__}: {exc}")
            continue
        finally:
            elapsed = time.perf_counter() - begin
            if span is not None:
                recorder.close(span)
        problems = op.check(result)
        if problems:
            phase.failed += 1
            phase.errors += problems
        else:
            phase.latencies.append(elapsed)
            phase.kinds.append(op.kind)
        if phase.attempted == min_ops:
            phase.panel_rss_mb = peak_rss_mb()
    return phase


def repeat_setups(args, count: int) -> list[float]:
    """Set-up time of ``count`` fresh interpreters running ``--setup-only``."""
    times = []
    for _ in range(count):
        command = [
            sys.executable, str(Path(__file__).resolve().parent.parent / "run.py"),
            "--workload", args.workload, "--seed", str(args.seed), "--setup-only",
        ]
        child = subprocess.run(
            command, capture_output=True, text=True, timeout=SETUP_CHILD_TIMEOUT_S
        )
        if child.returncode != 0:
            raise RuntimeError(f"set-up child failed:\n{child.stderr}")
        times.append(json.loads(child.stdout.strip().splitlines()[-1])["setup_s"])
    return times


def _metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def run(args, started: float, out_root: Path) -> int:
    work_dir = out_root / f"run-{os.getpid()}"
    shutil.rmtree(work_dir, ignore_errors=True)  # left by a killed run with this pid
    work_dir.mkdir(parents=True)
    try:
        return _run(args, started, work_dir, out_root)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)


def _run(args, started: float, work_dir: Path, out_root: Path) -> int:
    workload = WORKLOADS[args.workload](args.seed, work_dir)
    workload.setup()
    setup_s = time.perf_counter() - started - workload.bookkeeping_s
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    # a traced run splits its time between the untraced and traced phases,
    # so both kinds of run take the same time
    seconds = args.seconds / 2.0 if args.trace else args.seconds
    plain_gc = GcProbe()
    with plain_gc if args.trace else contextlib.nullcontext():
        plain = run_phase(workload, seconds, workload.panel_ops)
    phases = [plain]
    if args.trace:
        recorder = Recorder(work_dir)
        before = workload.counters()
        layers.install(recorder)
        try:
            traced = run_phase(workload, seconds, 1, recorder)
        finally:
            recorder.uninstall()
        after = workload.counters()
        recorder.collect_spills()
        phases.append(traced)
    workers_rss = peak_rss_mb(resource.RUSAGE_CHILDREN)

    errors = [error for phase in phases for error in phase.errors]
    gate_errors = workload.gate()
    attempted = sum(phase.attempted for phase in phases)
    failed = sum(phase.failed for phase in phases) + len(gate_errors)
    errors += gate_errors
    quality = workload.panel_quality()
    setups = [setup_s] + repeat_setups(args, SETUP_REPEATS - 1)
    tail = tail_percentile(plain.latencies)

    if args.trace:
        ops = max(1, len(traced.latencies))
        values = layers.layer_metrics(recorder.spans)
        values.update({
            "schedule.stages_total": quality["stages"],
            "store.evictions": (after["evictions"] - before["evictions"]) / ops,
            "store.kb_per_entry": workload.kb_per_entry(),
            "service.requests": (after["requests"] - before["requests"]) / ops,
            "service.completed": (after["completed"] - before["completed"]) / ops,
            "service.coalesced": (after["coalesced"] - before["coalesced"]) / ops,
            "farm.workers_peak_rss_mb": workers_rss,
            "gc.pause_s": plain_gc.pause_s / max(1, len(plain.latencies)),
            "gc.gen2_collections": plain_gc.gen2 / max(1, len(plain.latencies)),
            "gc.pause_ratio": plain_gc.pause_s / sum(plain.latencies),
            "trace.overhead_ratio": traced.ops_per_s / plain.ops_per_s,
            "latency.tail_ms": 1000.0 * tail[1] if tail else 0.0,
            "latency.tail_pct": tail[0] if tail else 0.0,
            "latency.tail_samples": tail[2] if tail else len(plain.latencies),
            "errors.ratio": failed / attempted,
        })
        metrics = {name: _metric(values[name], unit) for name, unit in layers.PER_LAYER.items()}
        trace_path = out_root / "traces" / f"{args.workload}-seed{args.seed}.jsonl"
        trace_path.parent.mkdir(parents=True, exist_ok=True)
        with open(trace_path, "w", encoding="utf-8") as handle:
            for span in recorder.spans:
                handle.write(json.dumps(span.to_dict()) + "\n")
    else:
        metrics = {
            "setup_s": _metric(median(setups), "s"),
            "ops_per_s": _metric(plain.ops_per_s, "1/s"),
            "latency_p50_ms": _metric(1000.0 * median(plain.latencies), "ms"),
            "peak_rss_mb": _metric(plain.panel_rss_mb, "MB"),
            "depth_total": _metric(quality["depth_total"], "count"),
            "two_qubit_gates_total": _metric(quality["two_qubit_gates_total"], "count"),
            "exec_time_us_total": _metric(quality["exec_time_us_total"], "us"),
        }

    for error in errors[:20]:
        print(f"CHECK FAILED: {error}")
    print(f"{args.workload} seed={args.seed} ops={len(plain.latencies)} setups={setups}"
          + (f" tail=p{tail[0]:.1f} of {tail[2]}" if tail else " tail=n/a"))
    for kind in sorted(set(plain.kinds)):
        own = [t for t, k in zip(plain.latencies, plain.kinds) if k == kind]
        print(f"  {kind}: {len(own)} ops, p50 {1000.0 * median(own):.3f} ms")
    for name, metric in metrics.items():
        print(f"  {name:36s} {metric['value']:.6g} {metric['unit']}")
    correct = failed == 0
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if correct else 1
