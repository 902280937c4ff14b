"""Shared fixtures for the test suite."""

from __future__ import annotations

import numpy as np
import pytest


def pytest_configure(config: pytest.Config) -> None:
    config.addinivalue_line(
        "markers",
        "perf: wall-clock guarded performance smoke tests (kept fast enough for tier-1)",
    )

from repro.circuit import QuantumCircuit, random_cx_circuit, random_pauli_strings
from repro.hardware import FPQAConfig, grid_device, ibm_washington_device, linear_device


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(1234)


@pytest.fixture
def small_circuit() -> QuantumCircuit:
    """A deterministic 4-qubit circuit touching several gate kinds."""
    circuit = QuantumCircuit(4, name="small")
    circuit.h(0)
    circuit.cx(0, 1)
    circuit.rz(0.3, 1)
    circuit.cz(1, 2)
    circuit.cx(2, 3)
    circuit.rx(0.7, 3)
    circuit.cz(3, 0)
    return circuit


@pytest.fixture
def random_small_circuit() -> QuantumCircuit:
    return random_cx_circuit(5, 8, seed=77)


@pytest.fixture
def small_pauli_strings():
    return random_pauli_strings(5, 4, 0.5, seed=5)


@pytest.fixture
def ring_edges() -> list[tuple[int, int]]:
    return [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (0, 5)]


@pytest.fixture
def line_device_5():
    return linear_device(5)


@pytest.fixture
def grid_4x4():
    return grid_device(4, 4)


@pytest.fixture(scope="session")
def washington():
    return ibm_washington_device()


@pytest.fixture
def small_fpqa_config() -> FPQAConfig:
    return FPQAConfig(slm_rows=3, slm_cols=4)


@pytest.fixture
def qasm_parses(monkeypatch) -> list[str]:
    """An empty QASM validation memo, and the text of every ``from_qasm`` call."""
    from collections import OrderedDict

    from repro.circuit import qasm

    monkeypatch.setattr(qasm, "_VALIDATED", OrderedDict())
    parses: list[str] = []
    real_from_qasm = qasm.from_qasm

    def counting_from_qasm(text, **kwargs):
        parses.append(text)
        return real_from_qasm(text, **kwargs)

    monkeypatch.setattr(qasm, "from_qasm", counting_from_qasm)
    return parses
