"""Seeded input generation: every request the program sees is made here.

All randomness flows from one ``random.Random(seed)``, so a seed fixes
the whole request stream and two seeds give different streams.  The
QASM uploads are written as text directly (not exported by the program
under test), so the ingest layer parses input it did not produce.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from typing import Iterator

#: The paper's evaluation scale, shared by all three workloads.
NUM_QUBITS = 100
#: Two-qubit gates per random circuit (Fig. 11's 5x gate factor at 100q).
NUM_GATES = 500
#: Pauli-string and edge probability of the qsim and QAOA families.
FAMILY_PROBABILITY = 0.1
#: Array width of the service workloads: the square 10x10 SLM for 100 atoms.
SERVICE_WIDTH = 10
#: Fig. 14's array-width axis for the design-space sweep.
GRID_WIDTHS = (8, 16, 32, 64, 128)
#: Request families, in the round-robin order of every stream.
FAMILIES = ("qasm", "qsim", "qaoa")
#: Design-space-sweep families: the generic router's random circuits go
#: in as specs, since the sweep never touches the ingest layer.
GRID_FAMILIES = ("circuit", "qsim", "qaoa")


@dataclass(frozen=True)
class Request:
    """One generated client request: a family plus its seeded payload.

    ``payload`` is OpenQASM text for ``qasm`` and an integer workload
    seed for ``qsim``/``qaoa``.
    """

    family: str
    payload: str | int


def random_qasm(num_qubits: int, num_gates: int, rng: random.Random) -> str:
    """OpenQASM 2.0 text of ``num_gates`` CX gates on random distinct pairs."""
    lines = ["OPENQASM 2.0;", 'include "qelib1.inc";', f"qreg q[{num_qubits}];"]
    for _ in range(num_gates):
        a, b = rng.sample(range(num_qubits), 2)
        lines.append(f"cx q[{a}],q[{b}];")
    return "\n".join(lines) + "\n"


def small_gate_list(num_qubits: int, num_gates: int, rng: random.Random) -> list[tuple]:
    """A mixed H / RZ / CX gate list for the statevector equivalence check."""
    gates: list[tuple] = []
    for _ in range(num_gates):
        roll = rng.random()
        if roll < 0.25:
            gates.append(("h", rng.randrange(num_qubits)))
        elif roll < 0.45:
            gates.append(("rz", rng.randrange(num_qubits), round(rng.uniform(-3.0, 3.0), 6)))
        else:
            gates.append(("cx", *rng.sample(range(num_qubits), 2)))
    return gates


class RequestStream:
    """Endless stream of distinct requests, families in round-robin order.

    Distinctness is by construction: every workload seed is drawn once
    and never reused, and every QASM text is checked against the ones
    already produced.
    """

    def __init__(self, rng: random.Random):
        self._rng = rng
        self._seeds: set[int] = set()
        self._texts: set[str] = set()
        self._count = 0

    def _fresh_seed(self) -> int:
        while True:
            seed = self._rng.getrandbits(31)
            if seed not in self._seeds:
                self._seeds.add(seed)
                return seed

    def __iter__(self) -> Iterator[Request]:
        return self

    def __next__(self) -> Request:
        family = FAMILIES[self._count % len(FAMILIES)]
        self._count += 1
        if family != "qasm":
            return Request(family, self._fresh_seed())
        while True:
            text = random_qasm(NUM_QUBITS, NUM_GATES, self._rng)
            if text not in self._texts:
                self._texts.add(text)
                return Request(family, text)

    def take(self, count: int) -> list[Request]:
        return [next(self) for _ in range(count)]


def zipf_stream(universe: int, *, s: float, rng: random.Random) -> Iterator[int]:
    """Endless ranks drawn with P(rank) proportional to 1 / (rank + 1)^s."""
    weights = [1.0 / (rank + 1) ** s for rank in range(universe)]
    cumulative = list(itertools.accumulate(weights))
    population = range(universe)
    while True:
        yield rng.choices(population, cum_weights=cumulative)[0]


def grid_seeds(rng: random.Random) -> dict[str, int]:
    """Fresh workload seeds for one Fig. 14 grid, one per grid family."""
    return {family: rng.getrandbits(31) for family in GRID_FAMILIES}
