"""Quantum circuit intermediate representation.

Public surface: :class:`Gate`, :class:`QuantumCircuit`, the dependency DAG,
decomposition passes, and the workload circuit builders (random circuits,
Pauli-string evolution, QAOA).
"""

from repro.circuit.circuit import QuantumCircuit
from repro.circuit.dag import DependencyDAG
from repro.circuit.decompose import (
    basis_check,
    cancel_adjacent_inverses,
    count_basis_gates,
    decompose_to_cx,
    decompose_to_cz,
)
from repro.circuit.gate import Gate, gate_matrix
from repro.circuit.pauli import (
    PauliString,
    pauli_evolution_circuit,
    random_pauli_string,
    random_pauli_strings,
    trotter_circuit,
)
from repro.circuit.qaoa import (
    edges_from_circuit,
    maxcut_value,
    normalise_edges,
    qaoa_cost_layer,
    qaoa_maxcut_circuit,
)
from repro.circuit.qasm import DEFAULT_LIMITS, CircuitLimits, from_qasm, to_qasm, validate_qasm
from repro.circuit.random_circuits import (
    bernstein_vazirani_circuit,
    ghz_circuit,
    qft_circuit,
    random_circuit,
    random_cx_circuit,
    standard_random_suite,
)

__all__ = [
    "Gate",
    "QuantumCircuit",
    "DependencyDAG",
    "gate_matrix",
    "decompose_to_cx",
    "decompose_to_cz",
    "cancel_adjacent_inverses",
    "basis_check",
    "count_basis_gates",
    "PauliString",
    "pauli_evolution_circuit",
    "trotter_circuit",
    "random_pauli_string",
    "random_pauli_strings",
    "qaoa_maxcut_circuit",
    "qaoa_cost_layer",
    "normalise_edges",
    "edges_from_circuit",
    "maxcut_value",
    "random_circuit",
    "random_cx_circuit",
    "standard_random_suite",
    "ghz_circuit",
    "qft_circuit",
    "bernstein_vazirani_circuit",
    "to_qasm",
    "from_qasm",
    "validate_qasm",
    "CircuitLimits",
    "DEFAULT_LIMITS",
]
