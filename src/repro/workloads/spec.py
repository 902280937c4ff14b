"""Workload specs: which workload kinds exist, what each needs, how each is built.

Q-Pilot compiles each application with its own router, so a spec's
*kind* decides both how it is materialised and which router compiles it
(:meth:`WorkloadSpec.build`, :meth:`WorkloadSpec.compile_with`).  A spec
stores only scalars, so farm jobs cross process boundaries as tiny
messages, and construction is the single check every kind goes through:
no spec exists whose params ``build`` could not use, whether it came from
a constructor, a hand-built tuple or an archived sweep.  Nothing from
:mod:`repro.core` or :mod:`repro.service` is imported at run time.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Iterable

from repro.circuit import qasm as qasm_module
from repro.circuit.pauli import random_pauli_strings
from repro.circuit.random_circuits import random_cx_circuit
from repro.exceptions import QPilotError
from repro.workloads.graphs import random_graph_edges, regular_graph_edges
from repro.workloads.molecules import MOLECULES, molecule_pauli_strings
from repro.workloads.qec import surface_code_syndrome_circuit

if TYPE_CHECKING:
    from repro.circuit.qasm import CircuitLimits
    from repro.core.compiler import CompilationResult, QPilotCompiler

#: Workload families a spec can describe.  ``circuit``/``qsim``/``qaoa``
#: are the synthetic paper benchmarks; ``qasm`` carries untrusted
#: user-uploaded OpenQASM text (content-addressed by its sha1); ``qec``
#: and ``molecule`` expose the surface-code and chemistry workloads.
WORKLOAD_KINDS = ("circuit", "qsim", "qaoa", "qasm", "qec", "molecule")

_REAL = (int, float)


def _canonical_params(params: dict[str, Any]) -> tuple[tuple[str, Any], ...]:
    """Sorted, tuple-ified (hashable) view of a params dict."""

    def freeze(value):
        if isinstance(value, (list, tuple)):
            return tuple(freeze(v) for v in value)
        return value

    return tuple(sorted((k, freeze(v)) for k, v in params.items()))


def _text_sha1(text: str) -> str:
    return hashlib.sha1(text.encode("utf-8", errors="surrogatepass")).hexdigest()


def _surface_code_qubits(distance: int) -> int:
    """``distance²`` data qubits plus ``distance² − 1`` stabilizer ancillas."""
    return 2 * distance * distance - 1


@dataclass(frozen=True)
class WorkloadSpec:
    """Declarative, picklable description of one workload.

    The spec stores only scalars (sizes, probabilities, seeds, edge lists)
    and builds the actual workload object on demand with :meth:`build` —
    in a farm, inside the worker process.  Construction is deterministic:
    equal specs always build equal workloads, which is what makes the
    parallel/serial differential oracle meaningful.
    """

    kind: str
    name: str
    num_qubits: int
    params: tuple[tuple[str, Any], ...] = ()

    def __post_init__(self) -> None:
        """Reject any spec :meth:`build` could not materialise.

        Every param ``build``/``compile_with`` reads must be present
        (``rounds`` and ``layers`` default to 1) and of the right type,
        and qasm/qec/molecule specs must claim the size their params
        imply.  QASM text is re-validated unbounded: ingestion
        (:meth:`qasm`) applied the real limits, and text it just accepted
        is answered from :func:`repro.circuit.validate_qasm`'s memo.
        """
        if self.kind not in WORKLOAD_KINDS:
            raise QPilotError(
                f"unknown workload kind {self.kind!r}; expected one of {WORKLOAD_KINDS}"
            )
        require = self._require
        expected = self.num_qubits
        if self.kind == "circuit":
            require("gate_multiple", int)
            require("seed", int)
        elif self.kind == "qsim":
            require("pauli_probability", _REAL)
            require("num_strings", int)
            require("seed", int)
        elif self.kind == "qaoa":
            require("layers", int, default=1)
            graph = self.param("graph")
            if graph == "random":
                require("edge_probability", _REAL)
                require("seed", int)
            elif graph == "regular":
                require("degree", int)
                require("seed", int)
            elif graph == "edges":
                edges = require("edges", tuple)
                if not all(isinstance(e, tuple) and len(e) == 2 for e in edges) or not all(
                    isinstance(v, int) and 0 <= v < self.num_qubits for e in edges for v in e
                ):
                    raise QPilotError(f"qaoa workload needs vertex pairs as edges, got {edges!r}")
            else:
                raise QPilotError(
                    f"qaoa workload needs graph 'random', 'regular' or 'edges', got {graph!r}"
                )
        elif self.kind == "qasm":
            text = self.param("qasm")
            if not isinstance(text, str) or not text.strip():
                raise QPilotError("qasm workload needs a non-empty 'qasm' text param")
            expected = qasm_module.validate_qasm(
                text, limits=qasm_module.CircuitLimits.unbounded()
            )
        elif self.kind == "qec":
            require("rounds", int, minimum=1, default=1)
            expected = _surface_code_qubits(require("distance", int, minimum=2))
        else:
            molecule = self.param("molecule")
            if not isinstance(molecule, str) or molecule not in MOLECULES:
                raise QPilotError(
                    f"unknown molecule {molecule!r}; choose from {sorted(MOLECULES)}"
                )
            expected = MOLECULES[molecule].num_qubits
        if self.num_qubits != expected:
            raise QPilotError(
                f"{self.kind} workload {self.name!r} uses {expected} qubits, "
                f"spec claims {self.num_qubits}"
            )
        if self.num_qubits < 1:
            raise QPilotError("workload needs at least one qubit")

    def _require(self, key: str, types, *, minimum: int | None = None, default=None):
        value = self.param(key, default)
        if (
            isinstance(value, bool)
            or not isinstance(value, types)
            or (minimum is not None and value < minimum)
        ):
            kind = {int: "an int", tuple: "a list"}.get(types, "a number")
            bound = "" if minimum is None else f" >= {minimum}"
            raise QPilotError(f"{self.kind} workload needs {kind} {key}{bound}, got {value!r}")
        return value

    # -- constructors ---------------------------------------------------
    @classmethod
    def random_circuit(
        cls, num_qubits: int, gate_multiple: int, *, seed: int = 2024, name: str | None = None
    ) -> "WorkloadSpec":
        """Random circuit with ``gate_multiple * num_qubits`` CX gates (Fig. 11)."""
        return cls(
            kind="circuit",
            name=name or f"random_{gate_multiple}x_{num_qubits}q",
            num_qubits=num_qubits,
            params=_canonical_params({"gate_multiple": int(gate_multiple), "seed": int(seed)}),
        )

    @classmethod
    def qsim(
        cls,
        num_qubits: int,
        pauli_probability: float,
        *,
        num_strings: int = 100,
        seed: int = 2024,
        name: str | None = None,
    ) -> "WorkloadSpec":
        """Quantum-simulation workload of random Pauli strings (Fig. 12)."""
        return cls(
            kind="qsim",
            name=name or f"qsim_p{pauli_probability}_{num_qubits}q",
            num_qubits=num_qubits,
            params=_canonical_params(
                {
                    "pauli_probability": float(pauli_probability),
                    "num_strings": int(num_strings),
                    "seed": int(seed),
                }
            ),
        )

    @classmethod
    def qaoa_random_graph(
        cls,
        num_qubits: int,
        edge_probability: float,
        *,
        seed: int = 2024,
        layers: int = 1,
        name: str | None = None,
    ) -> "WorkloadSpec":
        """QAOA on an Erdős–Rényi G(n, p) graph (Fig. 13)."""
        return cls(
            kind="qaoa",
            name=name or f"qaoa_p{edge_probability}_{num_qubits}q",
            num_qubits=num_qubits,
            params=_canonical_params(
                {
                    "graph": "random",
                    "edge_probability": float(edge_probability),
                    "seed": int(seed),
                    "layers": int(layers),
                }
            ),
        )

    @classmethod
    def qaoa_regular_graph(
        cls,
        num_qubits: int,
        degree: int,
        *,
        seed: int = 2024,
        layers: int = 1,
        name: str | None = None,
    ) -> "WorkloadSpec":
        """QAOA on a random d-regular graph (Fig. 13)."""
        return cls(
            kind="qaoa",
            name=name or f"qaoa_{degree}reg_{num_qubits}q",
            num_qubits=num_qubits,
            params=_canonical_params(
                {
                    "graph": "regular",
                    "degree": int(degree),
                    "seed": int(seed),
                    "layers": int(layers),
                }
            ),
        )

    @classmethod
    def qaoa_edges(
        cls,
        num_qubits: int,
        edges: Iterable[tuple[int, int]],
        *,
        layers: int = 1,
        name: str | None = None,
    ) -> "WorkloadSpec":
        """QAOA on an explicit edge list."""
        edge_tuple = tuple(sorted((min(a, b), max(a, b)) for a, b in edges))
        return cls(
            kind="qaoa",
            name=name or f"qaoa_edges_{num_qubits}q",
            num_qubits=num_qubits,
            params=_canonical_params({"graph": "edges", "edges": edge_tuple, "layers": layers}),
        )

    @classmethod
    def qasm(
        cls, text: str, *, limits: "CircuitLimits | None" = None, name: str | None = None
    ) -> "WorkloadSpec":
        """Untrusted OpenQASM 2.0 upload, content-addressed by its sha1.

        The text is validated under ``limits`` (default
        :data:`repro.circuit.DEFAULT_LIMITS`) *here*, before the spec —
        and therefore any farm job — exists; a :class:`CircuitError`
        with line/column escapes on anything malformed, hostile or
        oversized.  Validation goes through
        :func:`repro.circuit.validate_qasm`, so a repeat upload accepted
        under limits at least as tight is not parsed again.  Identical
        text yields an identical :meth:`fingerprint` (the name is
        excluded from it), so repeat uploads coalesce in the queue and
        warm-serve from the store exactly like synthetic workloads.
        """
        return cls(
            kind="qasm",
            num_qubits=qasm_module.validate_qasm(text, limits=limits),
            name=name or f"qasm_{_text_sha1(text)[:12]}",
            params=_canonical_params({"qasm": text}),
        )

    @classmethod
    def qec_surface_code(
        cls, distance: int, *, rounds: int = 1, name: str | None = None
    ) -> "WorkloadSpec":
        """Surface-code syndrome-extraction circuit (``workloads/qec.py``).

        ``distance²`` data qubits plus ``distance² − 1`` stabilizer
        ancillas, measured ``rounds`` times.
        """
        distance = int(distance)
        rounds = int(rounds)
        return cls(
            kind="qec",
            name=name or f"surface_d{distance}_r{rounds}",
            num_qubits=_surface_code_qubits(distance),
            params=_canonical_params(
                {"code": "surface", "distance": distance, "rounds": rounds}
            ),
        )

    @classmethod
    def molecule(cls, molecule: str, *, name: str | None = None) -> "WorkloadSpec":
        """Table 1 molecular Hamiltonian (``workloads/molecules.py``)."""
        return cls(
            kind="molecule",
            name=name or f"molecule_{molecule}",
            # an unknown molecule is rejected by name in __post_init__
            num_qubits=getattr(MOLECULES.get(molecule), "num_qubits", 0),
            params=_canonical_params({"molecule": molecule}),
        )

    # -- materialisation ------------------------------------------------
    def param(self, key: str, default=None):
        return dict(self.params).get(key, default)

    def qasm_sha1(self) -> str:
        """Content hash of an uploaded QASM text (the upload's identity)."""
        if self.kind != "qasm":
            raise QPilotError(f"qasm_sha1 is only defined for qasm workloads, not {self.kind}")
        return _text_sha1(self.param("qasm"))

    def build(self):
        """Materialise the workload object (circuit / strings / edge list)."""
        if self.kind == "qasm":
            # Ingestion already validated under real limits; the unbounded
            # re-parse here just rebuilds the (content-addressed) circuit.
            return qasm_module.from_qasm(
                self.param("qasm"), limits=qasm_module.CircuitLimits.unbounded()
            )
        if self.kind == "qec":
            return surface_code_syndrome_circuit(
                self.param("distance"), rounds=self.param("rounds", 1)
            )
        if self.kind == "molecule":
            return molecule_pauli_strings(self.param("molecule"))
        if self.kind == "circuit":
            return random_cx_circuit(
                self.num_qubits,
                self.param("gate_multiple") * self.num_qubits,
                seed=self.param("seed"),
            )
        if self.kind == "qsim":
            return random_pauli_strings(
                self.num_qubits,
                self.param("num_strings"),
                self.param("pauli_probability"),
                seed=self.param("seed"),
            )
        graph = self.param("graph")
        if graph == "edges":
            return [tuple(edge) for edge in self.param("edges")]
        if graph == "regular":
            return regular_graph_edges(
                self.num_qubits, self.param("degree"), seed=self.param("seed")
            )
        return random_graph_edges(
            self.num_qubits, self.param("edge_probability"), seed=self.param("seed")
        )

    def compile_with(self, compiler: "QPilotCompiler", built=None) -> "CompilationResult":
        """Compile this workload with the right router of ``compiler``."""
        workload = self.build() if built is None else built
        if self.kind in ("circuit", "qasm", "qec"):
            return compiler.compile_circuit(workload)
        if self.kind in ("qsim", "molecule"):
            return compiler.compile_pauli_strings(workload)
        return compiler.compile_qaoa(
            self.num_qubits, workload, layers=int(self.param("layers", 1))
        )

    def fingerprint(self) -> str:
        """Stable content hash — the workload axis of the farm's memo key."""
        payload = json.dumps(
            {"kind": self.kind, "num_qubits": self.num_qubits, "params": self.params},
            sort_keys=True,
            default=list,
        )
        return hashlib.sha1(payload.encode()).hexdigest()

    # -- archiving ------------------------------------------------------
    def to_dict(self) -> dict[str, Any]:
        """JSON-able spec, the workload half of a sweep archive's job record."""
        return {
            "kind": self.kind,
            "name": self.name,
            "num_qubits": self.num_qubits,
            "params": [[key, value] for key, value in self.params],
        }

    @classmethod
    def from_dict(cls, data: dict[str, Any]) -> "WorkloadSpec":
        """Rebuild a spec from :meth:`to_dict` (or its JSON round-trip).

        ``_canonical_params`` re-freezes list values back into tuples, so
        a round-tripped spec is *equal* to the original and shares its
        :meth:`fingerprint` — which is what lets an archived sweep warm
        the schedule store under the exact digests live traffic will ask
        for.  Construction validates the params, so a tampered archive
        record raises :class:`QPilotError` here instead of failing in a
        farm worker.
        """
        return cls(
            kind=str(data["kind"]),
            name=str(data["name"]),
            num_qubits=int(data["num_qubits"]),
            params=_canonical_params({str(k): v for k, v in data.get("params", ())}),
        )
