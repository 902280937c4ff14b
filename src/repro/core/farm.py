"""Compile farm: batched, parallel router-in-the-loop compilation.

Design-space exploration (the Fig. 14 study) recompiles the *same*
workload against many candidate FPQA configurations: an embarrassingly
parallel grid of independent compilations.  Three pieces describe it:

* :class:`WorkloadSpec` — a declarative, picklable description of one
  workload (random circuit, Pauli strings, QAOA graph, uploaded QASM,
  surface code, molecule).  The heavy workload object is built lazily
  inside the worker from a few scalars, so jobs cross process boundaries
  as tiny messages.
* :class:`FarmJob` — one grid cell: ``(WorkloadSpec, FPQAConfig,
  FarmOptions)``.  Duplicate cells share a ``(workload fingerprint,
  config, options)`` memo key and compile once.
* :class:`CompileFarm` — runs a list of jobs and streams ``(index,
  result)`` pairs (:meth:`CompileFarm.iter_results`; ``run`` drains it
  into submission order).

Every worker keeps module-level caches of built workloads and SABRE
routers, so a sweep of W widths pays for each workload build and each
distance matrix once per worker, not once per grid cell.

**One attempt loop.**  A run keeps a per-slot ledger: each unique job
(a *slot*) has its job, its result indices, its loosest deadline and its
failure count, and the ledger alone decides what happens to it.  A
failed attempt retries with seeded exponential backoff or, once the
:class:`FarmPolicy` retry budget is spent, finalises as a
:class:`FarmJobError` record (yielded, never raised, so one poisoned
cell cannot take down the sweep).  Before every attempt a slot whose
deadline has passed is cooperatively cancelled; an in-flight attempt
past its deadline is abandoned — the caller never waits for it — and
expires the same terminal way, while a ``timeout_s`` overrun retries.

Attempts run on one of two backends.  The *inline* backend is the loop
calling the job itself, one attempt per round in submission order (a
retry runs at once): ``executor="reference"``, the deterministic oracle
the differential suite pins every pooled backend against.  The *pool*
backend submits them to a thread or process pool
(``executor="thread"``/``"process"``), waits with each attempt's due
time, and respawns a pool that a dead worker broke, charging the crash
to every in-flight job in slot order.  When the respawn budget is
exhausted the run *degrades*: the unresolved slots move to the inline
backend inside the same loop, so the sweep always completes.

Faults are data: a seeded :class:`~repro.utils.faults.FaultPlan` on
:class:`FarmOptions` (default off, zero overhead) makes every failure
path reproducible, and the chaos suite (``tests/test_faults.py``) pins
that a recovered run is byte-identical to the fault-free ``reference``
run.  The ``stall-dispatch`` fault sleeps in the loop itself, which is
how the overload suite forces deterministic expiries.
"""

from __future__ import annotations

import hashlib
import json
import logging
import os
import time
import traceback as traceback_module
from collections import deque
from concurrent.futures import (
    FIRST_COMPLETED,
    BrokenExecutor,
    Future,
    ProcessPoolExecutor,
    ThreadPoolExecutor,
    wait,
)
from dataclasses import asdict, dataclass, field, fields, replace
from typing import Any, ClassVar, Iterable, Iterator, Sequence

from repro.utils.faults import (
    STALL_DISPATCH,
    FaultPlan,
    deterministic_draw,
    inject_compile_faults,
)

from repro.core.compiler import CompilationResult, QPilotCompiler
from repro.core.generic_router import GenericRouterOptions
from repro.core.qaoa_router import QAOARouterOptions
from repro.core.qsim_router import QSimRouterOptions
from repro.exceptions import DeadlineExceeded, QPilotError
from repro.hardware.fpqa import FPQAConfig
from repro.obs.events import log_event
from repro.obs.metrics import MetricsRegistry
from repro.obs.tracing import SpanRecord, Tracer, activate, span

logger = logging.getLogger(__name__)

#: Workload families the farm understands.  ``circuit``/``qsim``/``qaoa``
#: are the synthetic paper benchmarks; ``qasm`` carries untrusted
#: user-uploaded OpenQASM text (content-addressed by its sha1); ``qec``
#: and ``molecule`` expose the seed repo's surface-code and chemistry
#: workloads to the farm and the serving stack.
WORKLOAD_KINDS = ("circuit", "qsim", "qaoa", "qasm", "qec", "molecule")


def _canonical_params(params: dict[str, Any]) -> tuple[tuple[str, Any], ...]:
    """Sorted, tuple-ified (hashable) view of a params dict."""

    def freeze(value):
        if isinstance(value, (list, tuple)):
            return tuple(freeze(v) for v in value)
        return value

    return tuple(sorted((k, freeze(v)) for k, v in params.items()))


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
        if self.kind not in WORKLOAD_KINDS:
            raise QPilotError(
                f"unknown workload kind {self.kind!r}; expected one of {WORKLOAD_KINDS}"
            )
        if self.num_qubits < 1:
            raise QPilotError("workload needs at least one qubit")
        if self.kind == "qasm":
            self._validate_qasm()
        elif self.kind == "qec":
            self._validate_qec()
        elif self.kind == "molecule":
            self._validate_molecule()

    def _validate_qasm(self) -> None:
        """A qasm spec cannot exist with unparsable text or a wrong size.

        The ingestion boundary (:meth:`qasm` / ``CompileService.submit_qasm``)
        already applied a :class:`repro.circuit.CircuitLimits` guard; this
        check (unbounded, structural only) guarantees that hand-built or
        archived specs are equally incapable of smuggling invalid text past
        the validators and into a farm worker.  It goes through
        :func:`repro.circuit.validate_qasm`, so text that ingestion just
        accepted is answered from the validation memo, not re-parsed;
        the qubit count is compared with the spec's on every call.
        """
        from repro.circuit.qasm import CircuitLimits, validate_qasm

        text = self.param("qasm")
        if not isinstance(text, str) or not text.strip():
            raise QPilotError("qasm workload needs a non-empty 'qasm' text param")
        num_qubits = validate_qasm(text, limits=CircuitLimits.unbounded())
        if num_qubits != self.num_qubits:
            raise QPilotError(
                f"qasm spec claims {self.num_qubits} qubits but the text declares "
                f"qreg[{num_qubits}]"
            )

    def _validate_qec(self) -> None:
        distance = self.param("distance")
        rounds = self.param("rounds", 1)
        if not isinstance(distance, int) or distance < 2:
            raise QPilotError(f"qec workload needs an int distance >= 2, got {distance!r}")
        if not isinstance(rounds, int) or rounds < 1:
            raise QPilotError(f"qec workload needs an int rounds >= 1, got {rounds!r}")
        expected = 2 * distance * distance - 1
        if self.num_qubits != expected:
            raise QPilotError(
                f"distance-{distance} surface code uses {expected} qubits "
                f"(data + ancilla), spec claims {self.num_qubits}"
            )

    def _validate_molecule(self) -> None:
        from repro.workloads.molecules import MOLECULES

        molecule = self.param("molecule")
        if molecule not in MOLECULES:
            raise QPilotError(
                f"unknown molecule {molecule!r}; choose from {sorted(MOLECULES)}"
            )
        expected = MOLECULES[molecule].num_qubits
        if self.num_qubits != expected:
            raise QPilotError(
                f"molecule {molecule} uses {expected} qubits, spec claims {self.num_qubits}"
            )

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
        from repro.circuit.qasm import validate_qasm

        num_qubits = validate_qasm(text, limits=limits)
        sha1 = hashlib.sha1(text.encode("utf-8", errors="surrogatepass")).hexdigest()
        return cls(
            kind="qasm",
            name=name or f"qasm_{sha1[:12]}",
            num_qubits=num_qubits,
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
            num_qubits=2 * distance * distance - 1,
            params=_canonical_params(
                {"code": "surface", "distance": distance, "rounds": rounds}
            ),
        )

    @classmethod
    def molecule(cls, molecule: str, *, name: str | None = None) -> "WorkloadSpec":
        """Table 1 molecular Hamiltonian (``workloads/molecules.py``)."""
        from repro.workloads.molecules import MOLECULES

        if molecule not in MOLECULES:
            raise QPilotError(
                f"unknown molecule {molecule!r}; choose from {sorted(MOLECULES)}"
            )
        return cls(
            kind="molecule",
            name=name or f"molecule_{molecule}",
            num_qubits=MOLECULES[molecule].num_qubits,
            params=_canonical_params({"molecule": molecule}),
        )

    # -- materialisation ------------------------------------------------
    def param(self, key: str, default=None):
        for k, v in self.params:
            if k == key:
                return v
        return default

    def qasm_sha1(self) -> str:
        """Content hash of an uploaded QASM text (the upload's identity)."""
        if self.kind != "qasm":
            raise QPilotError(f"qasm_sha1 is only defined for qasm workloads, not {self.kind}")
        text = self.param("qasm")
        return hashlib.sha1(text.encode("utf-8", errors="surrogatepass")).hexdigest()

    def build(self):
        """Materialise the workload object (circuit / strings / edge list)."""
        if self.kind == "qasm":
            from repro.circuit.qasm import CircuitLimits, from_qasm

            # Ingestion already validated under real limits; the unbounded
            # re-parse here just rebuilds the (content-addressed) circuit.
            return from_qasm(self.param("qasm"), limits=CircuitLimits.unbounded())
        if self.kind == "qec":
            from repro.workloads.qec import surface_code_syndrome_circuit

            return surface_code_syndrome_circuit(
                self.param("distance"), rounds=self.param("rounds", 1)
            )
        if self.kind == "molecule":
            from repro.workloads.molecules import molecule_pauli_strings

            return molecule_pauli_strings(self.param("molecule"))
        if self.kind == "circuit":
            from repro.circuit.random_circuits import random_cx_circuit

            return random_cx_circuit(
                self.num_qubits,
                self.param("gate_multiple") * self.num_qubits,
                seed=self.param("seed"),
            )
        if self.kind == "qsim":
            from repro.circuit.pauli import random_pauli_strings

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
            from repro.workloads.graphs import regular_graph_edges

            return regular_graph_edges(
                self.num_qubits, self.param("degree"), seed=self.param("seed")
            )
        from repro.workloads.graphs import random_graph_edges

        return random_graph_edges(
            self.num_qubits, self.param("edge_probability"), seed=self.param("seed")
        )

    def compile_with(self, compiler: QPilotCompiler, built=None) -> CompilationResult:
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
        for.
        """
        return cls(
            kind=str(data["kind"]),
            name=str(data["name"]),
            num_qubits=int(data["num_qubits"]),
            params=_canonical_params({str(k): v for k, v in data.get("params", ())}),
        )


@dataclass(frozen=True)
class FarmOptions:
    """Router knobs + extras for one farm job (the grid's *router axis*).

    ``label`` names the option set in sweep axes; ``include_sabre`` also
    routes circuit-kind workloads through the SABRE baseline on the
    smallest square grid device and records the swap count, so design
    points carry a baseline fingerprint.

    ``faults`` attaches a seeded :class:`~repro.utils.faults.FaultPlan`
    (default ``None`` — injection entirely off).  Riding on the options
    is what carries the plan into worker processes without globals, but
    like ``label`` it is *excluded* from :meth:`key` and hence from
    :meth:`FarmJob.digest`: injected faults must never change what a job
    computes, only how bumpy the road there is — a recovered run stays
    byte-identical (and cache-compatible) with a fault-free one.  Jobs
    differing only in their plan are therefore memoised together; use
    one plan per run.

    ``trace`` follows the same precedent for observability: when set,
    the worker entry points run the compile under a throwaway
    :class:`~repro.obs.tracing.Tracer` and return the finished span
    records on the result object.  Tracing never changes what a job
    computes, so ``trace`` is excluded from :meth:`key`, :meth:`digest`
    and :meth:`to_dict` exactly like ``faults``.
    """

    label: str = "default"
    generic: GenericRouterOptions | None = None
    qsim: QSimRouterOptions | None = None
    qaoa: QAOARouterOptions | None = None
    include_sabre: bool = False
    faults: FaultPlan | None = None
    trace: bool = False

    def key(self) -> str:
        """Canonical memo key (dataclass reprs are deterministic)."""
        return repr((self.generic, self.qsim, self.qaoa, self.include_sabre))

    # -- archiving ------------------------------------------------------
    def to_dict(self) -> dict[str, Any]:
        """JSON-able options — ``faults`` excluded, exactly like :meth:`key`.

        A fault plan never changes what a job computes, so it has no
        place in an archive meant to reproduce the job.
        """
        data: dict[str, Any] = {"label": self.label, "include_sabre": self.include_sabre}
        for name in ("generic", "qsim", "qaoa"):
            value = getattr(self, name)
            data[name] = None if value is None else asdict(value)
        return data

    @classmethod
    def from_dict(cls, data: dict[str, Any]) -> "FarmOptions":
        """Rebuild options from :meth:`to_dict` (or its JSON round-trip)."""

        def freeze(value):
            if isinstance(value, list):
                return tuple(freeze(v) for v in value)
            return value

        router_classes = {
            "generic": GenericRouterOptions,
            "qsim": QSimRouterOptions,
            "qaoa": QAOARouterOptions,
        }
        kwargs: dict[str, Any] = {
            "label": str(data.get("label", "default")),
            "include_sabre": bool(data.get("include_sabre", False)),
        }
        for name, klass in router_classes.items():
            value = data.get(name)
            kwargs[name] = (
                None
                if value is None
                else klass(**{k: freeze(v) for k, v in value.items()})
            )
        return cls(**kwargs)


@dataclass(frozen=True)
class FarmJob:
    """One grid cell: compile ``workload`` on ``config`` with ``options``."""

    workload: WorkloadSpec
    config: FPQAConfig
    options: FarmOptions = field(default_factory=FarmOptions)

    def key(self) -> tuple:
        """Memo key: jobs with equal keys produce identical metrics."""
        return (self.workload.fingerprint(), self.config, self.options.key())

    def digest(self) -> str:
        """Content-addressed sha1 of :meth:`key` — the schedule-store key.

        Two jobs share a digest exactly when they share a memo key, so a
        disk cache addressed by digest answers any repeat of a grid cell
        the farm would have memoised in memory.
        """
        from repro.utils.serialization import config_to_dict

        payload = json.dumps(
            {
                "workload": self.workload.fingerprint(),
                "config": config_to_dict(self.config),
                "options": self.options.key(),
            },
            sort_keys=True,
        )
        return hashlib.sha1(payload.encode()).hexdigest()

    def fault_key(self) -> str:
        """Human-matchable key fault rules filter on (stable per job).

        A pure function of the job (kind, display name, array width), so
        a :class:`~repro.utils.faults.FaultPlan` decision is identical on
        every executor — the precondition for the chaos differential
        suite.  Display names appear here (unlike in :meth:`digest`)
        because rules match by substring and names are what humans write.
        """
        return f"{self.workload.kind}:{self.workload.name}@w{self.config.slm_cols}"


@dataclass(frozen=True)
class PointMetrics:
    """Compact, picklable metrics of one compiled design point.

    Workers return these instead of full schedules so results cross the
    process boundary as a few floats.  All values except the wall-clock
    ``compile_time_s`` are deterministic functions of the job.

    ``spans`` carries the worker-side trace records when the job ran
    with ``FarmOptions(trace=True)`` (``None`` otherwise — the default
    path pays nothing).  Like ``compile_time_s`` it is volatile
    observability state: excluded from :meth:`to_dict` (and therefore
    from store entries and sweep archives) and cleared by
    :meth:`deterministic`.
    """

    #: Discriminator shared with :class:`FarmJobResult`/:class:`FarmJobError`.
    failed: ClassVar[bool] = False

    depth: int
    error_rate: float
    success_probability: float
    num_two_qubit_gates: int
    num_one_qubit_gates: int
    num_atoms: int
    total_movement_distance: float
    execution_time_us: float
    average_parallelism: float
    compile_time_s: float | None = None
    sabre_num_swaps: int | None = None
    spans: tuple[SpanRecord, ...] | None = None

    @classmethod
    def from_result(
        cls, result: CompilationResult, *, sabre_num_swaps: int | None = None
    ) -> "PointMetrics":
        ev = result.evaluation
        return cls(
            depth=ev.depth,
            error_rate=ev.error_rate,
            success_probability=ev.success_probability,
            num_two_qubit_gates=ev.num_two_qubit_gates,
            num_one_qubit_gates=ev.num_one_qubit_gates,
            num_atoms=ev.num_atoms,
            total_movement_distance=ev.total_movement_distance,
            execution_time_us=ev.execution_time_us,
            average_parallelism=ev.average_parallelism,
            compile_time_s=ev.compile_time_s,
            sabre_num_swaps=sabre_num_swaps,
        )

    def to_dict(self) -> dict[str, Any]:
        # spans are volatile observability state and never enter the
        # serialised form (store entries / archives stay byte-stable)
        return {
            f.name: getattr(self, f.name) for f in fields(self) if f.name != "spans"
        }

    @classmethod
    def from_dict(cls, data: dict[str, Any]) -> "PointMetrics":
        names = {f.name for f in fields(cls)} - {"spans"}
        return cls(**{k: v for k, v in data.items() if k in names})

    def deterministic(self) -> "PointMetrics":
        """Copy with the volatile fields cleared (for comparisons)."""
        return replace(self, compile_time_s=None, spans=None)


@dataclass(frozen=True)
class FarmJobResult:
    """A compiled grid cell *with* its schedule, for service/store use.

    The default farm path returns bare :class:`PointMetrics` (schedules
    stay in the worker); the compile service needs the schedule itself to
    persist it, so ``CompileFarm.run(..., with_schedules=True)`` returns
    these instead.  ``schedule`` is the canonical serialised dict
    (:func:`repro.utils.serialization.schedule_to_dict` with
    ``canonical=True``) — a plain JSON-compatible payload that crosses
    process boundaries cheaply and is byte-stable across identical
    compiles, which is what makes the content-addressed store testable.
    """

    failed: ClassVar[bool] = False

    metrics: PointMetrics
    router: str
    schedule: dict[str, Any]
    #: Worker-side trace records (populated when ``FarmOptions.trace`` is
    #: set; empty otherwise).  Volatile observability state — the service
    #: grafts these into its own tracer and never persists them.
    spans: tuple[SpanRecord, ...] = ()


@dataclass(frozen=True)
class FarmJobError:
    """Terminal failure record of one grid cell (yielded, never raised).

    When a job exhausts its retry budget the farm yields one of these in
    the result slot instead of letting the exception escape
    :meth:`CompileFarm.iter_results` — one poisoned cell must not lose
    the rest of the sweep.  Carries the original exception type and
    traceback so service-layer waiters can re-raise a faithful, typed
    :class:`~repro.exceptions.CompileError`.
    """

    failed: ClassVar[bool] = True

    error_type: str
    message: str
    traceback: str
    attempts: int
    fault_key: str

    @classmethod
    def from_exception(
        cls, exc: BaseException, *, attempts: int, fault_key: str
    ) -> "FarmJobError":
        return cls(
            error_type=type(exc).__name__,
            message=str(exc),
            traceback="".join(
                traceback_module.format_exception(type(exc), exc, exc.__traceback__)
            ),
            attempts=attempts,
            fault_key=fault_key,
        )

    def to_dict(self) -> dict[str, Any]:
        return {f.name: getattr(self, f.name) for f in fields(self)}


@dataclass(frozen=True)
class FarmPolicy:
    """Fault-tolerance knobs of one farm run (the degradation ladder).

    * ``timeout_s`` — per-job wall-clock budget on pooled executors; an
      overdue job counts as one failed attempt and is retried.  The
      in-process (reference/degraded) path cannot interrupt a compile,
      so timeouts apply only to pooled backends.
    * ``max_retries`` — failed attempts a job may retry (beyond its
      first attempt) before it finalises as a :class:`FarmJobError`.
    * ``backoff_base_s``/``backoff_max_s``/``backoff_jitter`` — retry
      delay ``min(max, base * 2**(failures-1))``, stretched by up to
      ``jitter`` fraction of itself using a *seeded* draw
      (:func:`~repro.utils.faults.deterministic_draw`), so backoff
      schedules are reproducible run to run.
    * ``max_pool_respawns`` — broken process pools respawned per run
      (only unfinished jobs are resubmitted; memoised results are kept).
      Once exhausted the run degrades to the in-process reference
      executor and always completes.
    """

    timeout_s: float | None = None
    max_retries: int = 2
    backoff_base_s: float = 0.02
    backoff_max_s: float = 1.0
    backoff_jitter: float = 0.25
    seed: int = 0
    max_pool_respawns: int = 1

    def __post_init__(self) -> None:
        if self.timeout_s is not None and self.timeout_s <= 0:
            raise QPilotError("timeout_s must be positive (or None to disable)")
        if self.max_retries < 0:
            raise QPilotError("max_retries must be non-negative")
        if self.backoff_base_s < 0 or self.backoff_max_s < 0:
            raise QPilotError("backoff delays must be non-negative")
        if not 0.0 <= self.backoff_jitter <= 1.0:
            raise QPilotError("backoff_jitter must be in [0, 1]")
        if self.max_pool_respawns < 0:
            raise QPilotError("max_pool_respawns must be non-negative")

    def backoff_s(self, key: str, failures: int) -> float:
        """Delay before retry number ``failures`` of job ``key``."""
        if self.backoff_base_s <= 0:
            return 0.0
        base = min(self.backoff_max_s, self.backoff_base_s * 2 ** max(0, failures - 1))
        return base * (1.0 + self.backoff_jitter * deterministic_draw(self.seed, "backoff", key, failures))


# ---------------------------------------------------------------------------
# Worker side: module-level so it pickles by reference, with per-process
# caches of the expensive immutables.

#: Built workloads keyed by spec fingerprint (one build per worker, not per job).
_WORKLOAD_CACHE: dict[str, Any] = {}
#: SABRE routers keyed by grid side; each holds the cached all-pairs distance matrix.
_SABRE_ROUTER_CACHE: dict[int, Any] = {}
_CACHE_LIMIT = 64


def _cached_workload(spec: WorkloadSpec):
    # thread executor shares this cache across workers: hold the built
    # workload in a local so a concurrent clear() can't turn the final
    # lookup into a KeyError
    key = spec.fingerprint()
    workload = _WORKLOAD_CACHE.get(key)
    if workload is None:
        workload = spec.build()
        if len(_WORKLOAD_CACHE) >= _CACHE_LIMIT:
            _WORKLOAD_CACHE.clear()
        _WORKLOAD_CACHE[key] = workload
    return workload


def _sabre_swap_count(spec: WorkloadSpec, circuit) -> int:
    """Route a circuit workload through the SABRE baseline; cache the router."""
    import math

    from repro.baselines.layout import trivial_layout
    from repro.baselines.sabre import SabreOptions, SabreRouter
    from repro.hardware import grid_device

    side = int(math.ceil(math.sqrt(spec.num_qubits)))
    router = _SABRE_ROUTER_CACHE.get(side)
    if router is None:
        router = SabreRouter(grid_device(side, side), SabreOptions(layout_trials=1))
        if len(_SABRE_ROUTER_CACHE) >= _CACHE_LIMIT:
            _SABRE_ROUTER_CACHE.clear()
        _SABRE_ROUTER_CACHE[side] = router
    layout = trivial_layout(circuit, router.device)
    return router.run(circuit, layout).num_swaps


#: True only inside a process-pool worker (set by the initialiser there);
#: gates the ``crash-worker`` fault so in-process execution never _exits.
_IN_PROCESS_WORKER = False


def _worker_init(in_process_worker: bool = False) -> None:
    """Per-worker initialiser: warm the shared gate-matrix caches once."""
    global _IN_PROCESS_WORKER
    _IN_PROCESS_WORKER = _IN_PROCESS_WORKER or in_process_worker
    from repro.circuit.gate import gate_diagonal, gate_matrix_readonly

    for name in ("h", "x", "cx", "cz", "swap"):
        gate_matrix_readonly(name)
        gate_diagonal(name)


def _compile_attempt(job: FarmJob, attempt: int) -> tuple[CompilationResult, PointMetrics]:
    """One compile attempt: fault injection, workload build, route, SABRE.

    Span calls are the shared no-op unless a tracer is active (worker
    tracer when ``options.trace``, or a caller's tracer on the inline
    reference path), so the default path pays a single attribute check.
    """
    workload_spec = job.workload
    with span("compile", workload=workload_spec.name, kind=workload_spec.kind, attempt=attempt):
        if job.options.faults is not None:
            inject_compile_faults(
                job.options.faults,
                job.fault_key(),
                attempt,
                in_process_worker=_IN_PROCESS_WORKER,
            )
        options = job.options
        compiler = QPilotCompiler(
            job.config,
            generic_options=options.generic,
            qsim_options=options.qsim,
            qaoa_options=options.qaoa,
        )
        with span("workload-build", kind=workload_spec.kind):
            workload = _cached_workload(workload_spec)
        start = time.perf_counter()
        result = workload_spec.compile_with(compiler, built=workload)
        elapsed = time.perf_counter() - start
        sabre_swaps = None
        if options.include_sabre and workload_spec.kind == "circuit":
            with span("sabre"):
                sabre_swaps = _sabre_swap_count(workload_spec, workload)
        metrics = PointMetrics.from_result(result, sabre_num_swaps=sabre_swaps)
        if metrics.compile_time_s is None:
            metrics = replace(metrics, compile_time_s=elapsed)
        return result, metrics


def _compile_job(
    job: FarmJob, attempt: int = 0
) -> tuple[CompilationResult, PointMetrics, tuple[SpanRecord, ...] | None]:
    """Compile one grid cell; shared body of the two worker entry points.

    ``attempt`` is the number of failed attempts before this one.  It is
    threaded from the executor so fault-plan decisions — pure functions
    of ``(seed, kind, fault_key, attempt)`` — fire identically on every
    backend, and a bounded fault stops firing once retries pass it.

    With ``options.trace`` the attempt runs under a throwaway worker-local
    :class:`Tracer` and the finished records come back as the third
    element (picklable, ready for the caller to :func:`adopt`); otherwise
    the third element is ``None`` and no tracer is created.
    """
    if not job.options.trace:
        result, metrics = _compile_attempt(job, attempt)
        return result, metrics, None
    tracer = Tracer()
    with activate(tracer):
        result, metrics = _compile_attempt(job, attempt)
    return result, metrics, tuple(tracer.records())


def compile_farm_job(job: FarmJob, attempt: int = 0) -> PointMetrics:
    """Compile one grid cell and return its metrics (runs in the worker)."""
    _, metrics, spans = _compile_job(job, attempt)
    if spans:
        metrics = replace(metrics, spans=spans)
    return metrics


def compile_farm_job_with_schedule(job: FarmJob, attempt: int = 0) -> FarmJobResult:
    """Compile one grid cell and return metrics *plus* the canonical schedule.

    The schedule is serialised to its canonical dict inside the worker, so
    only JSON-compatible data crosses the process boundary.
    """
    from repro.utils.serialization import schedule_to_dict

    result, metrics, spans = _compile_job(job, attempt)
    return FarmJobResult(
        metrics=metrics,
        router=result.router,
        schedule=schedule_to_dict(result.schedule, canonical=True),
        spans=spans or (),
    )


# ---------------------------------------------------------------------------
# Executor side.

#: Executor backends.  ``reference`` is the deterministic in-process oracle
#: the differential suite pins the pooled backends against; ``process``
#: fans jobs across worker processes.  ``thread`` adds no parallelism (the
#: compiler is pure Python under the GIL) but stays: it is the only
#: in-process backend that can return before an overdue attempt finishes,
#: because an abandoned attempt keeps its worker thread, not the caller.
EXECUTORS = ("reference", "process", "thread")

#: ``last_stats`` fault-tolerance counters, in report order.
_RUN_COUNTERS = ("retries", "pool_respawns", "timeouts", "failed_jobs", "expired")


def available_workers() -> int:
    """Worker processes a ``process`` farm would use by default.

    Prefers the scheduler affinity mask (which honours cgroup/container
    CPU limits) over the raw host core count.
    """
    try:
        return max(1, len(os.sched_getaffinity(0)))
    except (AttributeError, OSError):  # platforms without sched_getaffinity
        return max(1, os.cpu_count() or 1)


class _Ledger:
    """Per-slot record of one run, and the only place a slot's fate is decided.

    A *slot* is one unique job; memoised duplicates share it.  Each slot
    has its job, the result indices it fills, its loosest deadline and its
    failure count.  ``todo`` queues the slots awaiting a first attempt and
    ``retry`` the slots charged a failure, in the order charged; retries go
    first (:meth:`next_slot`).  A slot leaves the run through exactly one
    of :meth:`report`, :meth:`expire` or a finalising
    :meth:`attempt_failed`, each of which returns the ``(index, result)``
    pairs to yield.
    """

    def __init__(
        self, jobs: list[FarmJob], deadlines: list[float | None] | None, policy: FarmPolicy
    ):
        self.policy = policy
        self.jobs: list[FarmJob] = []
        self.indices: list[list[int]] = []
        slots: dict[tuple, int] = {}
        for index, job in enumerate(jobs):
            slot = slots.setdefault(job.key(), len(self.jobs))
            if slot == len(self.jobs):
                self.jobs.append(job)
                self.indices.append([])
            self.indices[slot].append(index)
        # absolute deadlines from the start of the run; duplicates share
        # the loosest budget (None = unbounded)
        start = time.monotonic()
        self.deadline_at: list[float | None] = [None] * len(self.jobs)
        for slot, indices in enumerate(self.indices if deadlines is not None else ()):
            budgets = [deadlines[i] for i in indices]
            if all(budget is not None for budget in budgets):
                self.deadline_at[slot] = start + max(budgets)
        self.failures = [0] * len(self.jobs)
        self.todo = deque(range(len(self.jobs)))
        self.retry: deque[int] = deque()
        self.reports: dict[int, dict[str, Any]] = {}
        self.counters = dict.fromkeys(_RUN_COUNTERS, 0)

    def waiting(self) -> int:
        return len(self.retry) + len(self.todo)

    def next_slot(self) -> int:
        """The next slot to attempt: a retried one (inline, the same job
        again at once; pooled, the order the failures were charged) before
        any first attempt."""
        return (self.retry or self.todo).popleft()

    def expired_at_dispatch(self, slot: int) -> bool:
        """Deadline check before an attempt, after any ``stall-dispatch`` sleep.

        The stall burns the job's own budget: the overload suite's
        deterministic lever for expiries.
        """
        job = self.jobs[slot]
        if job.options.faults is not None:
            stall = job.options.faults.fire_duration(
                STALL_DISPATCH, job.fault_key(), self.failures[slot]
            )
            if stall > 0:
                time.sleep(stall)
        deadline_at = self.deadline_at[slot]
        return deadline_at is not None and time.monotonic() >= deadline_at

    def report(self, slot: int, result: Any) -> list[tuple[int, Any]]:
        """Record a slot's terminal outcome in ``job_reports``."""
        if isinstance(result, FarmJobError):
            self.counters["failed_jobs"] += 1
            entry = {"status": "failed", "attempts": result.attempts, "error": result.to_dict()}
        else:
            failures = self.failures[slot]
            status = "retried" if failures else "ok"
            entry = {"status": status, "attempts": failures + 1, "error": None}
        for index in self.indices[slot]:
            self.reports[index] = entry
        return [(index, result) for index in self.indices[slot]]

    def _finalise(self, slot: int, exc: BaseException) -> list[tuple[int, Any]]:
        key = self.jobs[slot].fault_key()
        return self.report(
            slot, FarmJobError.from_exception(exc, attempts=self.failures[slot], fault_key=key)
        )

    def expire(self, slot: int) -> list[tuple[int, Any]]:
        """End a slot whose deadline passed: terminal, no retries."""
        self.counters["expired"] += 1
        job = self.jobs[slot]
        log_event(logger, "job-expired", job=job.fault_key(), failures=self.failures[slot])
        return self._finalise(slot, DeadlineExceeded(
            f"farm job {job.fault_key()!r} deadline expired before completion",
            digest=job.digest(),
        ))

    def overdue(self, slot: int) -> list[tuple[int, Any]]:
        """An abandoned in-flight attempt: it expires past the slot's own
        deadline, while a ``timeout_s`` overrun is a failed attempt."""
        deadline_at = self.deadline_at[slot]
        if deadline_at is not None and deadline_at <= time.monotonic():
            return self.expire(slot)
        self.counters["timeouts"] += 1
        return self.attempt_failed(slot, TimeoutError(
            f"farm job {self.jobs[slot].fault_key()!r} exceeded "
            f"timeout_s={self.policy.timeout_s}"
        ))

    def attempt_failed(self, slot: int, exc: BaseException) -> list[tuple[int, Any]]:
        """Charge one failed attempt: requeue the slot after backoff, or finalise it."""
        self.failures[slot] += 1
        failures = self.failures[slot]
        key = self.jobs[slot].fault_key()
        if failures > self.policy.max_retries:
            log_event(logger, "job-failed", job=key, attempts=failures, error=type(exc).__name__)
            return self._finalise(slot, exc)
        self.counters["retries"] += 1
        log_event(logger, "job-retry", job=key, failures=failures, error=type(exc).__name__)
        delay = self.policy.backoff_s(key, failures)
        if delay:
            time.sleep(delay)
        self.retry.append(slot)
        return []


class _PoolBackend:
    """Runs attempts on a thread or process pool, each with a due time.

    An attempt is due at the earlier of its ``timeout_s`` (counted from
    submission) and its slot's deadline.  An overdue attempt is abandoned:
    cancelled if still queued, otherwise left to finish unobserved.
    """

    def __init__(self, kind: str, workers: int, job_fn, ledger: _Ledger):
        self.kind = kind
        self.workers = workers
        self.job_fn = job_fn
        self.ledger = ledger
        self.futures: dict[Future, int] = {}
        self.due: dict[Future, float] = {}
        self.abandoned: list[Future] = []
        self.pool = self._new_pool()

    def _new_pool(self):
        if self.kind == "thread":
            _worker_init()  # threads share this process's gate-matrix caches
            return ThreadPoolExecutor(max_workers=self.workers)
        return ProcessPoolExecutor(
            max_workers=self.workers, initializer=_worker_init, initargs=(True,)
        )

    def submit(self, slot: int) -> None:
        ledger = self.ledger
        future = self.pool.submit(self.job_fn, ledger.jobs[slot], ledger.failures[slot])
        self.futures[future] = slot
        timeout_s = ledger.policy.timeout_s
        timeout_at = None if timeout_s is None else time.monotonic() + timeout_s
        due = [at for at in (timeout_at, ledger.deadline_at[slot]) if at is not None]
        if due:
            self.due[future] = min(due)

    def collect(self) -> tuple[list[tuple[int, Any, BaseException | None]], list[int]]:
        """Wait for the first finished attempt or the first due time.

        Returns the finished attempts as ``(slot, result, exception)``,
        successes first (when the pool breaks, completed results must land
        before the crash is charged to the rest), and the slots abandoned
        as overdue.
        """
        timeout = None
        if self.due:
            timeout = max(0.005, min(self.due.values()) - time.monotonic())
        done, _ = wait(list(self.futures), timeout=timeout, return_when=FIRST_COMPLETED)
        if not done:
            now = time.monotonic()
            overdue = [future for future, at in self.due.items() if at <= now]
            for future in overdue:
                del self.due[future]
                future.cancel()
                self.abandoned.append(future)
            return [], [self.futures.pop(future) for future in overdue]
        finished = []
        for future in sorted(done, key=lambda f: f.exception() is not None):
            self.due.pop(future, None)
            exc = future.exception()
            finished.append((self.futures.pop(future), None if exc else future.result(), exc))
        return finished, []

    def drop_in_flight(self) -> list[int]:
        """Forget every in-flight attempt (the pool died with them)."""
        slots = list(self.futures.values())
        self.futures.clear()
        self.due.clear()
        return slots

    def respawn(self) -> None:
        self.pool.shutdown(wait=False, cancel_futures=True)
        self.pool = self._new_pool()

    def close(self) -> None:
        """Cancel queued attempts; wait for the workers only when none is busy,
        so an abandoned attempt never holds the caller."""
        busy = any(not future.done() for future in [*self.futures, *self.abandoned])
        self.pool.shutdown(wait=not busy, cancel_futures=True)


class CompileFarm:
    """Batch executor for grids of :class:`FarmJob` compilations.

    ``run`` memoises duplicate jobs by :meth:`FarmJob.key` (each unique
    cell compiles once) and preserves submission order in the returned
    list regardless of executor, so serial and parallel runs are
    positionally comparable.  :meth:`iter_results` is the streaming
    variant: it yields ``(index, result)`` pairs as jobs finish, holding
    only in-flight results in memory.

    Failure handling is governed by :class:`FarmPolicy`: failed attempts
    retry with seeded exponential backoff, overdue pooled jobs time out
    and retry, a broken process pool is respawned (resubmitting only the
    unfinished jobs), and once the respawn budget is exhausted the rest
    of the run degrades to the in-process backend.  A job that exhausts
    its retries lands as a :class:`FarmJobError` in its result slot —
    exceptions never escape :meth:`iter_results`.  ``job_reports`` maps
    each job index of the last run to its ``status``
    (``ok``/``retried``/``failed``), attempt count and error record.
    """

    def __init__(
        self,
        executor: str = "process",
        *,
        max_workers: int | None = None,
        policy: FarmPolicy | None = None,
        registry: MetricsRegistry | None = None,
    ):
        if executor not in EXECUTORS:
            raise QPilotError(f"unknown farm executor {executor!r}; expected one of {EXECUTORS}")
        self.executor = executor
        self.max_workers = max_workers
        self.policy = policy or FarmPolicy()
        #: Optional metrics sink: cumulative ``farm_*`` counters across
        #: runs (``last_stats`` stays the per-run snapshot API).
        self.registry = registry
        self.last_stats: dict[str, Any] = {}
        self.job_reports: dict[int, dict[str, Any]] = {}

    def _record_run_stats(self, stats: dict[str, Any]) -> None:
        """Fold one run's ``last_stats`` into the cumulative registry."""
        registry = self.registry
        if registry is None:
            return
        registry.counter("farm_runs_total").inc()
        registry.counter("farm_jobs_total").inc(stats["num_jobs"])
        registry.counter("farm_unique_jobs_total").inc(stats["num_unique_jobs"])
        for name in _RUN_COUNTERS:
            if stats[name]:
                registry.counter(f"farm_{name}_total").inc(stats[name])
        if stats["degraded"]:
            registry.counter("farm_degraded_total").inc()
        registry.histogram("farm_run_wall_seconds").observe(stats["wall_s"])

    def iter_results(
        self,
        jobs: Sequence[FarmJob],
        *,
        with_schedules: bool = False,
        deadlines: Sequence[float | None] | None = None,
    ) -> Iterator[tuple[int, PointMetrics | FarmJobResult | FarmJobError]]:
        """Stream ``(index, result)`` pairs as jobs finish.

        ``index`` is the job's position in ``jobs``; memoised duplicates
        are yielded (with the shared result object) as soon as their
        unique cell finishes.  Pooled backends yield in completion order,
        the ``reference`` oracle in submission order — every *pair* is
        deterministic either way, only the interleaving differs.  Grids
        too large to hold as a list can be consumed incrementally;
        ``last_stats`` is populated once the iterator is exhausted or
        closed.

        With ``with_schedules=True`` each successful result is a
        :class:`FarmJobResult` carrying the canonical schedule dict.  A
        job that exhausts the :class:`FarmPolicy` retry budget yields a
        :class:`FarmJobError` record in its slot instead of raising
        (check ``result.failed``); ``job_reports[index]`` carries the
        per-job status/attempts picture as soon as the pair is yielded.

        ``deadlines`` gives each job a *relative* wall-clock budget in
        seconds from the start of this call (None = no deadline).  A job
        past its budget — before an attempt or in flight — finalises as a
        :class:`FarmJobError` wrapping
        :class:`~repro.exceptions.DeadlineExceeded`, without retries.
        Duplicate jobs share the *loosest* of their budgets; waiters with
        tighter deadlines are expired by the service layer.
        """
        jobs = list(jobs)
        if deadlines is not None:
            deadlines = list(deadlines)
            if len(deadlines) != len(jobs):
                raise QPilotError(
                    f"deadlines must match jobs: got {len(deadlines)} for {len(jobs)} jobs"
                )
        policy = self.policy
        ledger = _Ledger(jobs, deadlines, policy)
        self.job_reports = ledger.reports
        job_fn = compile_farm_job_with_schedule if with_schedules else compile_farm_job
        # a single unique job gains nothing from a pool; run it inline and
        # report the backend that actually ran
        name, workers, pool = "reference", 1, None
        if self.executor != "reference" and len(ledger.jobs) > 1:
            name = self.executor
            workers = min(self.max_workers or available_workers(), len(ledger.jobs))
            pool = _PoolBackend(name, workers, job_fn, ledger)
        respawns = 0
        degraded = False
        start = time.perf_counter()
        try:
            while ledger.waiting() or (pool is not None and pool.futures):
                events: list[tuple[int, Any]] = []
                if pool is None:
                    # inline backend: one attempt per round, so a stream
                    # stays lazy
                    slot = ledger.next_slot()
                    if ledger.expired_at_dispatch(slot):
                        events = ledger.expire(slot)
                    else:
                        try:
                            result = job_fn(ledger.jobs[slot], ledger.failures[slot])
                        except Exception as exc:
                            events = ledger.attempt_failed(slot, exc)
                        else:
                            events = ledger.report(slot, result)
                    yield from events
                    continue
                # pool backend: submit every waiting slot, then wait for one
                # finished attempt or the first due time
                broken: list[tuple[int, BaseException]] = []
                while ledger.waiting():
                    slot = ledger.next_slot()
                    if ledger.expired_at_dispatch(slot):
                        events += ledger.expire(slot)
                        continue
                    try:
                        pool.submit(slot)
                    except BrokenExecutor as exc:
                        broken.append((slot, exc))
                finished, overdue = pool.collect()
                for slot in overdue:
                    events += ledger.overdue(slot)
                for slot, result, exc in finished:
                    if exc is None:
                        events += ledger.report(slot, result)
                    elif isinstance(exc, BrokenExecutor):
                        broken.append((slot, exc))
                    else:
                        events += ledger.attempt_failed(slot, exc)
                if broken:
                    # the pool died and every in-flight job with it; the
                    # crash counts as one failed attempt for each, charged
                    # in slot order (the crasher is indeterminate, and
                    # charging all of them keeps a determined crasher from
                    # respawning the pool at the same attempt number forever)
                    broken += [
                        (slot, BrokenExecutor("process pool died with this job in flight"))
                        for slot in pool.drop_in_flight()
                    ]
                    broken.sort(key=lambda item: item[0])
                    if respawns < policy.max_pool_respawns:
                        respawns += 1
                        ledger.counters["pool_respawns"] += 1
                        log_event(logger, "pool-respawn", respawns=respawns, in_flight=len(broken))
                        pool.respawn()
                        for slot, exc in broken:
                            events += ledger.attempt_failed(slot, exc)
                    else:
                        # respawn budget exhausted: degrade by moving every
                        # unresolved slot to the inline backend, where the
                        # crash fault cannot fire and the run always ends
                        for slot, _ in broken:
                            ledger.failures[slot] += 1
                        unresolved = {*ledger.retry, *ledger.todo, *(s for s, _ in broken)}
                        ledger.retry, ledger.todo = deque(), deque(sorted(unresolved))
                        log_event(
                            logger, "farm-degraded", remaining=len(ledger.todo), respawns=respawns
                        )
                        pool.close()
                        pool = None
                        degraded = True
                yield from events
        finally:
            # an early close cancels the queued remainder of the grid and
            # still records what the run did so far
            if pool is not None:
                pool.close()
            self.last_stats = {
                "executor": name,
                "requested_executor": self.executor,
                "num_jobs": len(jobs),
                "num_unique_jobs": len(ledger.jobs),
                "wall_s": time.perf_counter() - start,
                "max_workers": workers,
                "degraded": degraded,
                **ledger.counters,
            }
            self._record_run_stats(self.last_stats)

    def run(
        self,
        jobs: Sequence[FarmJob],
        *,
        with_schedules: bool = False,
        deadlines: Sequence[float | None] | None = None,
    ) -> list[PointMetrics | FarmJobResult | FarmJobError]:
        jobs = list(jobs)
        results: list[Any] = [None] * len(jobs)
        for index, result in self.iter_results(
            jobs, with_schedules=with_schedules, deadlines=deadlines
        ):
            results[index] = result
        return results
