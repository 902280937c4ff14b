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

The served path — cold compiles, warm store reads, the Fig. 14 grid
through the farm — is measured by ``perfbench/run.py``, not here.
"""

from __future__ import annotations

import argparse
import json
import math
from pathlib import Path

from repro.baselines.layout import trivial_layout
from repro.baselines.sabre import SabreOptions, SabreRouter
from repro.circuit import random_cx_circuit
from repro.core.generic_router import GenericRouter
from repro.core.qaoa_router import QAOARouter
from repro.core.qsim_router import QSimRouter
from repro.hardware import grid_device
from repro.obs import TrajectoryRecorder, time_call
from repro.utils.reporting import format_table
from repro.workloads import qsim_workload, random_graph_edges

REPO_ROOT = Path(__file__).resolve().parent.parent
TRAJECTORY_PATH = REPO_ROOT / "BENCH_compile.json"

#: Default qubit-count sweep; with GATE_FACTOR=5 the largest point is the
#: 100-qubit / 500-gate headline circuit.  SABRE runs on the smallest
#: square grid that fits each size.
SIZES = (20, 40, 70, 100)
GATE_FACTOR = 5
REPEATS = 3
SEED = 42

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


def run_compile_speed_sweep(
    *,
    sizes: tuple[int, ...] | list[int] = SIZES,
    gate_factor: int = GATE_FACTOR,
    repeats: int = REPEATS,
    include_sabre: bool = True,
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
    }
    if include_sabre:
        entry["sabre_num_swaps"] = sabre_num_swaps
        entry["headline_sabre_100q_500g_s"] = results["sabre"].get("100")
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
    return parser.parse_args()


if __name__ == "__main__":
    args = _parse_args()
    _print_entry(
        run_compile_speed_sweep(
            sizes=args.sizes,
            gate_factor=args.gate_factor,
            repeats=args.repeats,
            include_sabre=not args.no_sabre,
        )
    )
