#!/usr/bin/env python
"""Router-in-the-loop FPQA architecture exploration (the Fig. 14 study).

Run with ``python examples/architecture_exploration.py``
(add ``--executor process --jobs 4`` to fan the grid across worker
processes, or ``--executor both`` to race the two backends).

The compiler's fast performance evaluator makes it cheap to recompile the
same workload against many candidate FPQA array shapes.  This example
sweeps the array width (number of SLM/AOD columns) for three workload
families at 50 qubits, reports the compiled depth and estimated fidelity of
every design point, and highlights the best width per workload — showing
the same effect as the paper: QAOA prefers wide arrays while random and
quantum-simulation workloads peak at moderate widths.

Farm usage (`repro.core.farm`): workloads are declared as picklable
:class:`~repro.workloads.spec.WorkloadSpec` values —

    specs = [WorkloadSpec.random_circuit(50, 10, seed=1),
             WorkloadSpec.qsim(50, 0.3, num_strings=25, seed=2),
             WorkloadSpec.qaoa_random_graph(50, 0.3, seed=3)]
    sweep = sweep_grid(specs, widths=(8, 16, 32, 64, 128),
                       executor="process")      # or "reference" (serial oracle)
    for name, family in sweep.by_workload().items():
        print(name, family.best("depth").width)
    archive = sweep.to_json(canonical=True)     # DSE trajectory archiving

The whole ``workloads × widths`` grid becomes one batch of farm jobs:
duplicates are memoised, ``executor="process"`` spreads the rest over a
process pool, and the deterministic ``reference`` executor produces
identical design points (the differential suite in ``tests/test_farm.py``
pins that), so parallelism is a pure wall-clock win.
"""

from __future__ import annotations

import argparse
import time

from repro.core import WorkloadSpec, available_workers, sweep_grid
from repro.utils.reporting import format_table

NUM_QUBITS = 50
WIDTHS = (8, 16, 32, 64, 128)


def workload_specs() -> list[WorkloadSpec]:
    """One declarative spec per workload family (built lazily in workers)."""
    return [
        WorkloadSpec.random_circuit(NUM_QUBITS, 10, seed=1, name="random_10x"),
        WorkloadSpec.qsim(NUM_QUBITS, 0.3, num_strings=25, seed=2, name="qsim_p0.3"),
        WorkloadSpec.qaoa_random_graph(NUM_QUBITS, 0.3, seed=3, name="qaoa_p0.3"),
    ]


def run_sweep(executor: str, jobs: int | None):
    start = time.perf_counter()
    sweep = sweep_grid(
        workload_specs(),
        widths=WIDTHS,
        executor=executor,
        max_workers=jobs,
        name="fig14_example",
    )
    return sweep, time.perf_counter() - start


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[1])
    parser.add_argument(
        "--executor",
        choices=("reference", "process", "both"),
        default="reference",
        help="farm backend: serial oracle, process pool, or race both (default: reference)",
    )
    parser.add_argument(
        "--jobs",
        type=int,
        default=None,
        help=f"worker processes for --executor process (default: all {available_workers()})",
    )
    args = parser.parse_args()

    executors = ("reference", "process") if args.executor == "both" else (args.executor,)
    sweep = None
    for executor in executors:
        sweep, wall = run_sweep(executor, args.jobs)
        print(
            f"{executor:>9} executor: {sweep.meta['num_unique_jobs']} unique jobs "
            f"(of {sweep.meta['num_jobs']}) in {wall:.2f}s"
        )

    all_rows = []
    best_rows = []
    for name, family in sweep.by_workload().items():
        best = family.best("depth")
        for point in family.points:
            all_rows.append(
                {
                    "workload": name,
                    "width": point.width,
                    "rows": point.config.slm_rows,
                    "depth": point.depth,
                    "2q_gates": point.num_two_qubit_gates,
                    "error_rate": round(point.error_rate, 4),
                    "best": "*" if point.width == best.width else "",
                }
            )
        best_rows.append(
            {
                "workload": name,
                "best_width": best.width,
                "best_depth": best.depth,
                "worst_depth": max(p.depth for p in family.points),
            }
        )

    print(format_table(all_rows, title=f"Array-width sweep at {NUM_QUBITS} qubits"))
    print(format_table(best_rows, title="Best array width per workload"))
    print(
        "Note how the optimal width differs per workload family — the trade-off\n"
        "between in-row parallelism and cross-row movement the paper highlights."
    )


if __name__ == "__main__":
    main()
