"""Compile-time regression guard (tier-1).

A single mid-size compile under a generous wall-clock ceiling.  The point
is not precision benchmarking (that lives in
``benchmarks/bench_compile_speed.py``) but catching accidental complexity
regressions: with the incremental front-layer DAG and the O(k log k)
legality scan this compile takes ~0.1 s, while the original full-scan
implementation needs ~4 s — so the ceiling has ~20x headroom for slow CI
machines yet still fails loudly if a quadratic hot path sneaks back in.
"""

from __future__ import annotations

import time

import pytest

from repro.baselines.layout import trivial_layout
from repro.baselines.sabre import SabreOptions, SabreRouter
from repro.circuit import random_cx_circuit
from repro.core import sweep_grid
from repro.core.generic_router import GenericRouter
from repro.core.qaoa_router import QAOARouter
from repro.hardware import grid_device
from repro.workloads import fig14_workload_specs, regular_graph_edges

#: Generous wall-clock budget (seconds) for the smoke compile.
_CEILING_S = 2.0

#: Ceiling for the 100-qubit QAOA cost-layer compile.  The incremental
#: stage planner needs ~0.015 s; the seed O(front²) planner needed ~0.06 s
#: on the same input and ~0.35 s on denser graphs, so 1 s fails loudly if a
#: full-rescan planning loop sneaks back in while still tolerating slow CI.
_QAOA_CEILING_S = 1.0

#: Ceiling for the SABRE baseline's 100-qubit / 500-gate route.  The
#: vectorised scorer needs ~0.3 s; the scalar per-candidate scorer needed
#: ~2.4 s, so 1.5 s fails loudly if a quadratic (per-candidate layout copy
#: or Python pair sum) scoring loop sneaks back in.
_SABRE_CEILING_S = 1.5

#: Ceiling for the Fig. 14 DSE grid (3 workload families × 5 widths at
#: 50 qubits) through the compile farm's serial reference executor.  The
#: whole batch needs ~0.3 s; 5 s fails loudly if per-job overhead (workload
#: rebuilds per cell, lost memoisation) or a router regression sneaks in,
#: while still tolerating slow single-core CI runners.
_DSE_CEILING_S = 5.0


@pytest.mark.perf
def test_midsize_compile_stays_fast():
    circuit = random_cx_circuit(150, 1500, seed=11)
    router = GenericRouter()
    start = time.perf_counter()
    schedule = router.compile(circuit)
    elapsed = time.perf_counter() - start
    assert schedule.metadata["num_macro_stages"] > 0
    assert elapsed < _CEILING_S, (
        f"mid-size compile took {elapsed:.2f}s (ceiling {_CEILING_S}s); "
        "a quadratic hot path may have regressed — see "
        "benchmarks/bench_compile_speed.py and BENCH_compile.json"
    )


@pytest.mark.perf
def test_qaoa_100q_cost_layer_stays_fast():
    """100-qubit / 3-regular QAOA cost layer under a generous 1 s ceiling."""
    edges = regular_graph_edges(100, 3, seed=7)
    router = QAOARouter()
    start = time.perf_counter()
    schedule = router.compile(100, edges)
    elapsed = time.perf_counter() - start
    assert schedule.metadata["stages_per_layer"][0] > 0
    assert schedule.num_two_qubit_gates() == 2 * 100 + len(edges)
    assert elapsed < _QAOA_CEILING_S, (
        f"100q QAOA cost-layer compile took {elapsed:.2f}s (ceiling "
        f"{_QAOA_CEILING_S}s); an O(front²) stage-planning loop may have "
        "regressed — see repro/core/stage_planner.py and BENCH_compile.json"
    )


@pytest.mark.perf
def test_sabre_100q_route_stays_fast():
    """SABRE baseline 100q/500g route under a generous 1.5 s ceiling."""
    circuit = random_cx_circuit(100, 500, seed=42)
    device = grid_device(10, 10)
    router = SabreRouter(device, SabreOptions(layout_trials=1))
    layout = trivial_layout(circuit, device)
    start = time.perf_counter()
    routed = router.run(circuit, layout)
    elapsed = time.perf_counter() - start
    assert routed.num_swaps > 0
    assert elapsed < _SABRE_CEILING_S, (
        f"SABRE 100q/500g route took {elapsed:.2f}s (ceiling {_SABRE_CEILING_S}s); "
        "the vectorized swap scorer may have regressed to a per-candidate "
        "Python loop — see repro/baselines/sabre.py and BENCH_compile.json"
    )


@pytest.mark.perf
def test_dse_fig14_sweep_stays_fast():
    """50-qubit, 3-workload Fig. 14 farm sweep under a generous 5 s ceiling."""
    specs = fig14_workload_specs(50)
    start = time.perf_counter()
    sweep = sweep_grid(specs, widths=(8, 16, 32, 64, 128), executor="reference")
    elapsed = time.perf_counter() - start
    assert len(sweep.points) == 15
    assert all(point.depth > 0 for point in sweep.points)
    assert elapsed < _DSE_CEILING_S, (
        f"Fig. 14 DSE sweep took {elapsed:.2f}s (ceiling {_DSE_CEILING_S}s); "
        "the compile farm's batching (workload memoisation, per-worker "
        "caches) may have regressed — see repro/core/farm.py and "
        "perfbench's dse-grid-100q workload"
    )
