"""Compile-time speed tracking across all routers (perf trajectory).

Unlike the figure/table benchmarks, this module exists to keep the
*compiler itself* fast: it sweeps circuit sizes across the three Q-Pilot
routers plus the SABRE baseline, and appends the timings to the
``BENCH_compile.json`` trajectory file at the repository root.  Every
performance PR should re-run it so regressions (e.g. an accidentally
quadratic front-layer scan) show up as a new entry that is slower than the
previous one.

Run it either way:

    PYTHONPATH=src python benchmarks/bench_compile_speed.py
    PYTHONPATH=src python -m pytest benchmarks/bench_compile_speed.py -s

The CLI accepts ``--sizes`` (comma-separated qubit counts),
``--gate-factor`` (2-qubit gates per qubit) and ``--repeats``:

    PYTHONPATH=src python benchmarks/bench_compile_speed.py --sizes 20,100,200 --repeats 5

Reading ``BENCH_compile.json``: the document has one ``entries`` element
per run; each entry maps ``results[router][num_qubits]`` to the best
wall-clock seconds over ``repeats`` timed compilations (after one warmup
call, so interpreter/cache warmup is not attributed to the compiler), and
``sabre_num_swaps[num_qubits]`` to the SWAP count of the SABRE route at
that size (a correctness fingerprint: a scorer change that alters swap
counts shows up in the trajectory alongside its timing).

Each entry also records the *batched* DSE headline: ``dse_fig14`` times the
Fig. 14 grid (3 workload families × 5 array widths at 50 qubits) through
the compile farm, serial reference oracle vs process-pool executor, and
``headline_dse_fig14_s`` is the parallel wall clock.  ``--no-dse`` skips
it; ``--dse-jobs N`` caps the worker processes.

Each entry's ``phases`` object breaks one compile per router family down
by tracing span (``route``, ``verify``, and the generic router's summed
``stage`` spans) via the ``repro.obs`` tracer, so a regression can be
attributed to a phase without re-profiling by hand.

The *service* headline (PR 5) runs a small request grid twice through
:class:`repro.service.CompileService` against a fresh temp store: the cold
pass compiles and persists, the warm pass must be answered entirely from
the content-addressed schedule store.  ``headline_service_cache_hit_rate``
is the warm-pass hit rate (1.0 when the cache serves every repeat) and the
``service`` object records cold/warm wall clocks and the speedup.
``--no-service`` skips it.
"""

from __future__ import annotations

import argparse
import json
import math
import time
from pathlib import Path

from repro.baselines.layout import trivial_layout
from repro.baselines.sabre import SabreOptions, SabreRouter
from repro.circuit import random_cx_circuit
from repro.core import available_workers, sweep_grid
from repro.core.compiler import QPilotCompiler
from repro.core.generic_router import GenericRouter
from repro.core.qaoa_router import QAOARouter
from repro.core.qsim_router import QSimRouter
from repro.hardware import grid_device
from repro.obs import TrajectoryRecorder, time_call
from repro.obs.tracing import Tracer, activate
from repro.utils.reporting import format_table
from repro.workloads import fig14_workload_specs, qsim_workload, random_graph_edges

REPO_ROOT = Path(__file__).resolve().parent.parent
TRAJECTORY_PATH = REPO_ROOT / "BENCH_compile.json"

#: Default qubit-count sweep; with GATE_FACTOR=5 the largest point is the
#: 100-qubit / 500-gate headline circuit.  SABRE runs on the smallest
#: square grid that fits each size.
SIZES = (20, 40, 70, 100)
GATE_FACTOR = 5
REPEATS = 3
SEED = 42

#: The Fig. 14 DSE headline: 3 workload families × 5 widths through the
#: compile farm (see repro/core/farm.py).  ``headline_dse_fig14_s`` is the
#: parallel-farm wall clock of this grid; ``dse_fig14.serial_s`` is the
#: serial reference oracle on the same grid, so the trajectory records the
#: batching speedup alongside the single-compile headlines.
DSE_NUM_QUBITS = 50
DSE_WIDTHS = (8, 16, 32, 64, 128)

#: The compile-service headline grid: 3 workload families × 2 widths at a
#: size where the cold compiles stay cheap — the interesting number is the
#: warm-pass cache hit rate, not the compile time.
SERVICE_NUM_QUBITS = 20
SERVICE_WIDTHS = (5, 10)


def _grid_side(num_qubits: int) -> int:
    """Side of the smallest square grid device holding ``num_qubits``."""
    return int(math.ceil(math.sqrt(num_qubits)))


def _bench_generic(num_qubits: int, gate_factor: int, repeats: int) -> float:
    circuit = random_cx_circuit(num_qubits, gate_factor * num_qubits, seed=SEED)
    router = GenericRouter()
    _, seconds = time_call(router.compile, circuit, repeats=repeats, warmup=1)
    return seconds


def _bench_qsim(num_qubits: int, repeats: int) -> float:
    strings = qsim_workload(num_qubits, 0.1, num_strings=25, seed=SEED)
    router = QSimRouter()
    _, seconds = time_call(router.compile, strings, repeats=repeats, warmup=1)
    return seconds


def _bench_qaoa(num_qubits: int, repeats: int) -> float:
    edges = random_graph_edges(num_qubits, 0.1, seed=SEED)
    router = QAOARouter()
    _, seconds = time_call(router.compile, num_qubits, edges, repeats=repeats, warmup=1)
    return seconds


def _bench_sabre(num_qubits: int, gate_factor: int, repeats: int) -> tuple[float, int]:
    """Best SABRE route seconds plus the (repeat-invariant) SWAP count."""
    circuit = random_cx_circuit(num_qubits, gate_factor * num_qubits, seed=SEED)
    side = _grid_side(num_qubits)
    device = grid_device(side, side)
    router = SabreRouter(device, SabreOptions(layout_trials=1))
    layout = trivial_layout(circuit, device)
    routed, seconds = time_call(router.run, circuit, layout, repeats=repeats, warmup=1)
    return seconds, routed.num_swaps


def _bench_phases(num_qubits: int, gate_factor: int) -> dict[str, dict[str, float]]:
    """Per-phase span timings of one compile per router family.

    Runs each Q-Pilot router once under an active tracer and aggregates
    span durations by span name, so the trajectory records *where* the
    compile time goes (``route`` vs ``verify``; ``stage`` sums the
    generic router's per-stage spans nested inside ``route``).  Single
    un-warmed runs: this is a breakdown, not a headline — compare phase
    *shares* across entries, not absolute seconds.
    """
    compiler = QPilotCompiler()
    workloads = {
        "generic": lambda: compiler.compile_circuit(
            random_cx_circuit(num_qubits, gate_factor * num_qubits, seed=SEED)
        ),
        "qsim": lambda: compiler.compile_pauli_strings(
            qsim_workload(num_qubits, 0.1, num_strings=25, seed=SEED)
        ),
        "qaoa": lambda: compiler.compile_qaoa(
            num_qubits, random_graph_edges(num_qubits, 0.1, seed=SEED)
        ),
    }
    phases: dict[str, dict[str, float]] = {}
    for router, run in workloads.items():
        tracer = Tracer()
        with activate(tracer):
            run()
        by_name: dict[str, float] = {}
        for record in tracer.records():
            by_name[record.name] = by_name.get(record.name, 0.0) + (
                record.end_s - record.start_s
            )
        phases[router] = {name: round(seconds, 6) for name, seconds in sorted(by_name.items())}
    return phases


def _bench_dse_fig14(max_workers: int | None = None) -> dict:
    """Serial vs parallel wall clock of the Fig. 14 compile-farm grid."""
    specs = fig14_workload_specs(DSE_NUM_QUBITS)
    timings: dict[str, float] = {}
    sweeps = {}
    for executor in ("reference", "process"):
        start = time.perf_counter()
        sweeps[executor] = sweep_grid(
            specs, widths=DSE_WIDTHS, executor=executor, max_workers=max_workers
        )
        timings[executor] = time.perf_counter() - start
    if sweeps["reference"].as_series() != sweeps["process"].as_series():
        raise AssertionError(
            "serial and parallel farm executors disagree — see tests/test_farm.py"
        )
    workers = max_workers or available_workers()
    return {
        "num_qubits": DSE_NUM_QUBITS,
        "widths": list(DSE_WIDTHS),
        "num_jobs": sweeps["process"].meta["num_jobs"],
        "workers": workers,
        "serial_s": round(timings["reference"], 6),
        "parallel_s": round(timings["process"], 6),
        "speedup": round(timings["reference"] / timings["process"], 3)
        if timings["process"] > 0
        else None,
    }


def _bench_service(max_workers: int | None = None) -> dict:
    """Cold vs warm pass of a request grid through the compile service."""
    import tempfile

    from repro.service import CompileRequest, CompileService

    specs = fig14_workload_specs(SERVICE_NUM_QUBITS)
    requests = [
        CompileRequest.for_width(spec, width) for spec in specs for width in SERVICE_WIDTHS
    ]
    with tempfile.TemporaryDirectory(prefix="qpilot-bench-store-") as store_dir:
        service = CompileService(store_dir, executor="thread", max_workers=max_workers)
        timings: dict[str, float] = {}
        for label in ("cold", "warm"):
            start = time.perf_counter()
            service.submit_all(requests)
            tickets = service.drain()
            timings[label] = time.perf_counter() - start
        warm_hits = sum(1 for ticket in tickets if ticket.response.source == "cache")
    hit_rate = warm_hits / len(requests)
    return {
        "num_qubits": SERVICE_NUM_QUBITS,
        "widths": list(SERVICE_WIDTHS),
        "num_requests": len(requests),
        "cold_s": round(timings["cold"], 6),
        "warm_s": round(timings["warm"], 6),
        "warm_cache_hit_rate": hit_rate,
        "speedup": round(timings["cold"] / timings["warm"], 3)
        if timings["warm"] > 0
        else None,
    }


def run_compile_speed_sweep(
    *,
    sizes: tuple[int, ...] | list[int] = SIZES,
    gate_factor: int = GATE_FACTOR,
    repeats: int = REPEATS,
    include_sabre: bool = True,
    include_dse: bool = True,
    include_service: bool = True,
    dse_workers: int | None = None,
) -> dict:
    """Sweep all routers over ``sizes``; append to the trajectory file."""
    results: dict[str, dict[str, float]] = {"generic": {}, "qsim": {}, "qaoa": {}}
    sabre_num_swaps: dict[str, int] = {}
    if include_sabre:
        results["sabre"] = {}
    for num_qubits in sizes:
        key = str(num_qubits)
        results["generic"][key] = round(_bench_generic(num_qubits, gate_factor, repeats), 6)
        results["qsim"][key] = round(_bench_qsim(num_qubits, repeats), 6)
        results["qaoa"][key] = round(_bench_qaoa(num_qubits, repeats), 6)
        if include_sabre:
            seconds, num_swaps = _bench_sabre(num_qubits, gate_factor, repeats)
            results["sabre"][key] = round(seconds, 6)
            sabre_num_swaps[key] = num_swaps
    entry = {
        "sizes": list(sizes),
        "gate_factor": gate_factor,
        "repeats": repeats,
        "seed": SEED,
        "results": results,
        "headline_generic_100q_500g_s": results["generic"].get("100"),
        "phases": _bench_phases(min(sizes), gate_factor),
    }
    if include_sabre:
        entry["sabre_num_swaps"] = sabre_num_swaps
        entry["headline_sabre_100q_500g_s"] = results["sabre"].get("100")
    if include_dse:
        dse = _bench_dse_fig14(dse_workers)
        entry["dse_fig14"] = dse
        entry["headline_dse_fig14_s"] = dse["parallel_s"]
    if include_service:
        service = _bench_service(dse_workers)
        entry["service"] = service
        entry["headline_service_cache_hit_rate"] = service["warm_cache_hit_rate"]
    recorder = TrajectoryRecorder(TRAJECTORY_PATH, "compile_speed")
    recorder.record(entry)
    return entry


def _print_entry(entry: dict) -> None:
    rows = []
    for router, timings in entry["results"].items():
        row = {"router": router}
        for size, seconds in timings.items():
            row[f"{size}q"] = round(seconds, 4)
        rows.append(row)
    print("\n" + format_table(rows, title="compile seconds (best of repeats)"))
    if "sabre_num_swaps" in entry:
        swaps = ", ".join(f"{size}q: {n}" for size, n in entry["sabre_num_swaps"].items())
        print(f"sabre swaps — {swaps}")
    if "phases" in entry:
        for router, timings in entry["phases"].items():
            parts = ", ".join(f"{name} {seconds:.4f}s" for name, seconds in timings.items())
            print(f"phases[{router}] — {parts}")
    if "dse_fig14" in entry:
        dse = entry["dse_fig14"]
        print(
            f"dse fig14 ({dse['num_qubits']}q, {dse['num_jobs']} jobs, "
            f"{dse['workers']} workers) — serial {dse['serial_s']:.3f}s, "
            f"parallel {dse['parallel_s']:.3f}s ({dse['speedup']}x)"
        )
    if "service" in entry:
        svc = entry["service"]
        print(
            f"service ({svc['num_qubits']}q, {svc['num_requests']} requests) — "
            f"cold {svc['cold_s']:.3f}s, warm {svc['warm_s']:.3f}s "
            f"({svc['speedup']}x, warm hit rate {svc['warm_cache_hit_rate']:.2f})"
        )
    print(f"trajectory: {TRAJECTORY_PATH}")


def test_compile_speed_sweep():
    """Pytest entry point: run the sweep and sanity-check the trajectory."""
    entry = run_compile_speed_sweep()
    _print_entry(entry)
    document = json.loads(TRAJECTORY_PATH.read_text())
    assert document["entries"], "trajectory file must contain at least one entry"
    last = document["entries"][-1]
    assert len(last["sizes"]) >= 4
    for router in ("generic", "qsim", "qaoa", "sabre"):
        assert len(last["results"][router]) >= 4, f"missing sizes for {router}"
    assert len(last["sabre_num_swaps"]) >= 4
    assert all(n > 0 for n in last["sabre_num_swaps"].values())
    assert last["headline_dse_fig14_s"] > 0
    assert last["dse_fig14"]["serial_s"] > 0
    assert last["headline_service_cache_hit_rate"] == 1.0
    assert last["service"]["cold_s"] > 0
    for router in ("generic", "qsim", "qaoa"):
        assert last["phases"][router]["route"] > 0, f"missing route phase for {router}"
        assert "verify" in last["phases"][router]
    assert last["phases"]["generic"]["stage"] > 0


def _parse_args() -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--sizes",
        type=lambda text: tuple(int(part) for part in text.split(",") if part),
        default=SIZES,
        help=f"comma-separated qubit counts to sweep (default: {','.join(map(str, SIZES))})",
    )
    parser.add_argument(
        "--gate-factor",
        type=int,
        default=GATE_FACTOR,
        help=f"2-qubit gates per qubit in the random circuits (default: {GATE_FACTOR})",
    )
    parser.add_argument(
        "--repeats",
        type=int,
        default=REPEATS,
        help=f"timed repetitions per point, best is kept (default: {REPEATS})",
    )
    parser.add_argument(
        "--no-sabre",
        action="store_true",
        help="skip the SABRE baseline",
    )
    parser.add_argument(
        "--no-dse",
        action="store_true",
        help="skip the Fig. 14 compile-farm DSE headline",
    )
    parser.add_argument(
        "--no-service",
        action="store_true",
        help="skip the compile-service cache headline",
    )
    parser.add_argument(
        "--dse-jobs",
        type=int,
        default=None,
        help=f"worker processes for the DSE farm (default: all {available_workers()})",
    )
    return parser.parse_args()


if __name__ == "__main__":
    args = _parse_args()
    _print_entry(
        run_compile_speed_sweep(
            sizes=args.sizes,
            gate_factor=args.gate_factor,
            repeats=args.repeats,
            include_sabre=not args.no_sabre,
            include_dse=not args.no_dse,
            include_service=not args.no_service,
            dse_workers=args.dse_jobs,
        )
    )
