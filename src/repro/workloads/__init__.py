"""Benchmark workload generators (random circuits, Pauli strings, graphs, molecules)
and the workload specs (:mod:`repro.workloads.spec`) that describe them to the farm."""

from repro.workloads.graphs import (
    complete_graph_edges,
    graph_degree_histogram,
    qaoa_benchmark_suite,
    random_graph_edges,
    regular_graph_edges,
    ring_graph_edges,
)
from repro.workloads.qec import (
    Stabilizer,
    qec_workload_summary,
    repetition_code_stabilizers,
    stabilizers_commute,
    surface_code_stabilizers,
    surface_code_syndrome_circuit,
    syndrome_extraction_circuit,
)
from repro.workloads.molecules import (
    MOLECULES,
    MoleculeSpec,
    molecule_catalogue,
    molecule_pauli_strings,
    molecule_summary,
)
from repro.workloads.random_workload import (
    PAPER_GATE_MULTIPLES,
    PAPER_NUM_PAULI_STRINGS,
    PAPER_PAULI_PROBABILITIES,
    PAPER_QUBIT_SIZES,
    fig14_workload_specs,
    qsim_workload,
    random_circuit_workload,
    scaled_qsim_suite,
    scaled_random_circuit_suite,
)

__all__ = [
    "Stabilizer",
    "repetition_code_stabilizers",
    "surface_code_stabilizers",
    "stabilizers_commute",
    "syndrome_extraction_circuit",
    "surface_code_syndrome_circuit",
    "qec_workload_summary",
    "random_graph_edges",
    "regular_graph_edges",
    "ring_graph_edges",
    "complete_graph_edges",
    "graph_degree_histogram",
    "qaoa_benchmark_suite",
    "MOLECULES",
    "MoleculeSpec",
    "molecule_pauli_strings",
    "molecule_catalogue",
    "molecule_summary",
    "PAPER_QUBIT_SIZES",
    "PAPER_GATE_MULTIPLES",
    "PAPER_PAULI_PROBABILITIES",
    "PAPER_NUM_PAULI_STRINGS",
    "fig14_workload_specs",
    "random_circuit_workload",
    "qsim_workload",
    "scaled_qsim_suite",
    "scaled_random_circuit_suite",
]
