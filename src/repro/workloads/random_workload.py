"""Random-workload generators matching the paper's evaluation methodology.

Three workload families are used throughout the evaluation:

* random circuits with a fixed 2-qubit-gate budget (Fig. 11),
* quantum-simulation workloads of 100 random Pauli strings with per-qubit
  Pauli probability p (Fig. 12), and
* QAOA graphs (Fig. 13, generated in :mod:`repro.workloads.graphs`).

This module wraps the circuit-level generators with the exact parameter
grids the paper reports so benchmarks and examples stay declarative.
"""

from __future__ import annotations

import numpy as np

from repro.circuit.circuit import QuantumCircuit
from repro.circuit.pauli import PauliString, random_pauli_strings
from repro.circuit.random_circuits import random_cx_circuit
from repro.exceptions import WorkloadError
from repro.utils.rng import ensure_rng
from repro.workloads.spec import WorkloadSpec

#: Qubit counts used across the paper's figures.
PAPER_QUBIT_SIZES: tuple[int, ...] = (5, 10, 20, 50, 100)
#: 2-qubit gate multiples of the random-circuit study.
PAPER_GATE_MULTIPLES: tuple[int, ...] = (2, 5, 10, 20, 50)
#: Pauli probabilities of the quantum-simulation study.
PAPER_PAULI_PROBABILITIES: tuple[float, ...] = (0.1, 0.2, 0.3, 0.5)
#: Number of Pauli strings per quantum-simulation workload.
PAPER_NUM_PAULI_STRINGS: int = 100


def random_circuit_workload(
    num_qubits: int, gate_multiple: int, *, seed: int | np.random.Generator | None = 2024
) -> QuantumCircuit:
    """Random circuit with ``gate_multiple * num_qubits`` CX gates."""
    if gate_multiple < 1:
        raise WorkloadError("gate_multiple must be >= 1")
    return random_cx_circuit(num_qubits, gate_multiple * num_qubits, seed=seed)


def qsim_workload(
    num_qubits: int,
    pauli_probability: float,
    *,
    num_strings: int = PAPER_NUM_PAULI_STRINGS,
    seed: int | np.random.Generator | None = 2024,
) -> list[PauliString]:
    """Quantum-simulation workload: random Pauli strings with probability p."""
    return random_pauli_strings(num_qubits, num_strings, pauli_probability, seed=seed)


def fig14_workload_specs(num_qubits: int, *, num_pauli_strings: int = 20) -> list:
    """The Fig. 14 DSE grid's three workload families as compile-farm specs.

    One declarative, picklable :class:`~repro.workloads.spec.WorkloadSpec`
    per family (random circuit at 10× gates, p=0.3 quantum simulation, p=0.3
    QAOA graph), with the fixed seeds the benchmark suite pins.  Shared by
    ``benchmarks/bench_fig14_array_width.py`` and the DSE perf smoke
    test, so both always measure the same grid.
    """
    return [
        WorkloadSpec.random_circuit(num_qubits, 10, seed=31, name="random"),
        WorkloadSpec.qsim(
            num_qubits, 0.3, num_strings=num_pauli_strings, seed=32, name="qsim"
        ),
        WorkloadSpec.qaoa_random_graph(num_qubits, 0.3, seed=33, name="qaoa"),
    ]


def scaled_qsim_suite(
    sizes: tuple[int, ...] = PAPER_QUBIT_SIZES,
    probabilities: tuple[float, ...] = (0.1, 0.5),
    *,
    num_strings: int = PAPER_NUM_PAULI_STRINGS,
    seed: int = 2024,
) -> dict[tuple[int, float], list[PauliString]]:
    """The full quantum-simulation grid of Fig. 12."""
    rng = ensure_rng(seed)
    suite: dict[tuple[int, float], list[PauliString]] = {}
    for n in sizes:
        for p in probabilities:
            suite[(n, p)] = random_pauli_strings(n, num_strings, p, seed=rng)
    return suite


def scaled_random_circuit_suite(
    sizes: tuple[int, ...] = PAPER_QUBIT_SIZES,
    multiples: tuple[int, ...] = (2, 10),
    *,
    seed: int = 2024,
) -> dict[tuple[int, int], QuantumCircuit]:
    """The random-circuit grid of Fig. 11 (2x and 10x gate multiples)."""
    suite: dict[tuple[int, int], QuantumCircuit] = {}
    for i, n in enumerate(sizes):
        for j, multiple in enumerate(multiples):
            suite[(n, multiple)] = random_cx_circuit(n, multiple * n, seed=seed + 31 * i + j)
    return suite
