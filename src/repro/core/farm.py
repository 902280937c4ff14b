"""Compile-farm: batched, parallel router-in-the-loop compilation.

Design-space exploration (the Fig. 14 study) recompiles the *same*
workload against many candidate FPQA configurations.  After PRs 1-3 made
each single compile fast, the remaining order of magnitude comes from
batching: a sweep is an embarrassingly parallel grid of independent
compilations, so the farm fans them out across a
:class:`concurrent.futures.ProcessPoolExecutor`.

Three pieces make that possible:

* :class:`WorkloadSpec` — a declarative, picklable description of one
  workload (random circuit / Pauli strings / QAOA graph).  The heavy
  workload object is built *lazily inside the worker process* from a few
  scalars, so jobs cross process boundaries as tiny messages instead of
  pickled circuits.  Specs replace the closure-only ``compile_fn`` API
  (closures cannot be pickled); the legacy closure path survives as a
  compatibility shim in :func:`repro.core.dse.sweep_array_width`.
* :class:`FarmJob` — one grid cell: ``(WorkloadSpec, FPQAConfig,
  FarmOptions)``.  Duplicate cells are memoised by a
  ``(workload fingerprint, config, options)`` key and compiled once.
* :class:`CompileFarm` — the executor.  ``executor="process"`` fans jobs
  across worker processes; ``executor="reference"`` is the deterministic
  in-process serial backend that runs the *same* job function in
  submission order — the oracle the differential suite pins the parallel
  backend against (the ROADMAP oracle pattern applied to batching).

Per-config immutables are shared, not re-built per job: every worker
process warms the gate-matrix ``lru_cache`` in its initialiser and keeps
module-level caches of built workloads (keyed by fingerprint) and SABRE
routers (whose all-pairs distance matrix is the expensive part), so a
sweep of W widths pays for each workload build and each distance matrix
once per worker instead of once per grid cell.

Two service-facing extensions (PR 5) ride on the same job model:

* ``executor="thread"`` fans jobs across a
  :class:`~concurrent.futures.ThreadPoolExecutor` — no process-spawn or
  pickling cost, which suits a long-lived compile service whose traffic
  is dominated by cache lookups and other IO.  It joins the same
  executor-oracle differential suite as the process backend.
* :meth:`CompileFarm.iter_results` streams ``(index, result)`` pairs as
  jobs finish instead of materialising the whole grid, so sweeps too
  large to hold in memory can be consumed incrementally
  (``sweep_grid(..., stream=True)`` builds on it).  ``run`` is a thin
  order-restoring wrapper around it.

Fault tolerance (PR 6): a sweep must survive partial failure — a worker
death previously raised ``BrokenProcessPool`` out of ``iter_results``
and lost the whole grid.  :class:`FarmPolicy` configures per-job
``timeout_s``, bounded retries with exponential backoff and seeded
jitter, and ``max_pool_respawns``.  The executor loop recovers a broken
process pool by respawning it once and resubmitting only the unfinished
jobs (memoised results are kept); when the respawn budget is exhausted
it *degrades* to the in-process reference executor so the sweep always
completes.  A job that exhausts its retry budget yields a
:class:`FarmJobError` record instead of raising, so one poisoned grid
cell cannot take down its neighbours.  The degradation ladder is
pinned by the chaos differential suite (``tests/test_faults.py``): with
a seeded :class:`~repro.utils.faults.FaultPlan` attached to
:class:`FarmOptions` (default off — zero overhead), a recovered run is
byte-identical to the fault-free ``reference`` run.

Overload robustness (PR 8): the serving layer propagates end-to-end
request deadlines into the farm as *relative* per-job budgets
(``iter_results(..., deadlines=...)``).  A job whose budget is already
spent when the dispatch loop reaches it is **cooperatively cancelled**
before it touches an executor — its slot finalises as a
:class:`FarmJobError` wrapping :class:`~repro.exceptions.DeadlineExceeded`
with no retries, so shed or expired work never burns a worker.  An
in-flight job whose deadline passes is abandoned the same way (terminal,
unlike a ``timeout_s`` overrun, which retries).  The ``stall-dispatch``
fault kind sleeps in the dispatch loop itself, which is how the overload
chaos suite forces deterministic expiries and breaker trips.
"""

from __future__ import annotations

import hashlib
import json
import logging
import os
import time
import traceback as traceback_module
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

#: Executor backends: the serial one is the deterministic oracle the
#: differential suite pins the pooled backends against.  ``thread`` keeps
#: everything in-process (no spawn/pickle cost — the compile-service
#: backend); ``process`` fans across worker processes.
EXECUTORS = ("reference", "serial", "process", "parallel", "thread", "threads")

#: Aliases accepted by :class:`CompileFarm` -> canonical backend name.
_EXECUTOR_ALIASES = {
    "serial": "reference",
    "parallel": "process",
    "threads": "thread",
}


def available_workers() -> int:
    """Worker processes a ``process`` farm would use by default.

    Prefers the scheduler affinity mask (which honours cgroup/container
    CPU limits) over the raw host core count.
    """
    try:
        return max(1, len(os.sched_getaffinity(0)))
    except (AttributeError, OSError):  # platforms without sched_getaffinity
        return max(1, os.cpu_count() or 1)


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
    of the run degrades to the in-process reference path.  A job that
    exhausts its retries lands as a :class:`FarmJobError` in its result
    slot — exceptions never escape :meth:`iter_results`.  ``job_reports``
    maps each job index of the last run to its ``status``
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
        self.executor = _EXECUTOR_ALIASES.get(executor, executor)
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
        for name in ("retries", "pool_respawns", "timeouts", "failed_jobs", "expired"):
            if stats[name]:
                registry.counter(f"farm_{name}_total").inc(stats[name])
        if stats["degraded"]:
            registry.counter("farm_degraded_total").inc()
        registry.histogram("farm_run_wall_seconds").observe(stats["wall_s"])

    def _new_pool(self, backend: str, workers: int):
        if backend == "thread":
            _worker_init()  # threads share this process's gate-matrix caches
            return ThreadPoolExecutor(max_workers=workers)
        return ProcessPoolExecutor(
            max_workers=workers, initializer=_worker_init, initargs=(True,)
        )

    def _stall_dispatch(self, job: FarmJob, attempt: int) -> None:
        """Fire a ``stall-dispatch`` fault: sleep in the dispatch loop.

        Runs *before* the deadline check at each (re)submission site, so
        a stalled dispatch burns the job's own budget — the overload
        chaos suite's deterministic lever for deadline expiries.
        """
        plan = job.options.faults
        if plan is None:
            return
        duration = plan.fire_duration(STALL_DISPATCH, job.fault_key(), attempt)
        if duration > 0:
            time.sleep(duration)

    def _run_job_with_retry(
        self, job_fn, job: FarmJob, failures: int, counters: dict[str, int]
    ) -> tuple[Any, int]:
        """In-process attempt loop (reference backend and degraded mode).

        Starts from ``failures`` already on the job's ledger (pool
        crashes that preceded degradation) but always makes at least one
        attempt, so a degraded run finishes every job one way or the
        other.  Returns ``(result-or-FarmJobError, total failures)``.
        """
        policy = self.policy
        key = job.fault_key()
        while True:
            try:
                return job_fn(job, failures), failures
            except Exception as exc:
                failures += 1
                if failures > policy.max_retries:
                    log_event(
                        logger,
                        "job-failed",
                        job=key,
                        attempts=failures,
                        error=type(exc).__name__,
                    )
                    return (
                        FarmJobError.from_exception(exc, attempts=failures, fault_key=key),
                        failures,
                    )
                counters["retries"] += 1
                log_event(
                    logger, "job-retry", job=key, failures=failures, error=type(exc).__name__
                )
                delay = policy.backoff_s(key, failures)
                if delay:
                    time.sleep(delay)

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
        ``last_stats`` is populated once the iterator is exhausted.

        With ``with_schedules=True`` each successful result is a
        :class:`FarmJobResult` carrying the canonical schedule dict.  A
        job that exhausts the :class:`FarmPolicy` retry budget yields a
        :class:`FarmJobError` record in its slot instead of raising
        (check ``result.failed``); ``job_reports[index]`` carries the
        per-job status/attempts picture as soon as the pair is yielded.

        ``deadlines`` gives each job a *relative* wall-clock budget in
        seconds from the start of this call (None = no deadline; the
        service derives these from request ``deadline_s``).  A job whose
        budget expires before it is submitted is cooperatively cancelled
        — finalised as a :class:`FarmJobError` wrapping
        :class:`~repro.exceptions.DeadlineExceeded`, no executor time, no
        retries — and an in-flight job past its deadline is abandoned
        the same terminal way (a ``timeout_s`` overrun, by contrast,
        retries).  Duplicate jobs share the *loosest* of their budgets;
        waiters with tighter deadlines are expired by the service layer.
        """
        jobs = list(jobs)
        if deadlines is not None:
            deadlines = list(deadlines)
            if len(deadlines) != len(jobs):
                raise QPilotError(
                    f"deadlines must match jobs: got {len(deadlines)} for {len(jobs)} jobs"
                )
        unique: dict[tuple, int] = {}
        unique_jobs: list[FarmJob] = []
        indices_by_unique: list[list[int]] = []
        for index, job in enumerate(jobs):
            key = job.key()
            if key not in unique:
                unique[key] = len(unique_jobs)
                unique_jobs.append(job)
                indices_by_unique.append([])
            indices_by_unique[unique[key]].append(index)

        job_fn = compile_farm_job_with_schedule if with_schedules else compile_farm_job
        policy = self.policy
        self.job_reports = {}
        counters = {
            "retries": 0,
            "pool_respawns": 0,
            "timeouts": 0,
            "failed_jobs": 0,
            "expired": 0,
        }
        failures = [0] * len(unique_jobs)
        degraded = False

        # absolute per-slot deadlines, measured from the start of this
        # call; duplicates share the loosest budget (None = unbounded)
        t0 = time.monotonic()
        slot_deadline_at: list[float | None] = [None] * len(unique_jobs)
        if deadlines is not None:
            for slot, indices in enumerate(indices_by_unique):
                budgets = [deadlines[i] for i in indices]
                if all(budget is not None for budget in budgets):
                    slot_deadline_at[slot] = t0 + max(budgets)

        def report(slot: int, result: Any) -> list[tuple[int, Any]]:
            """Record a slot's terminal outcome; return its (index, result) pairs."""
            if isinstance(result, FarmJobError):
                counters["failed_jobs"] += 1
                entry = {
                    "status": "failed",
                    "attempts": result.attempts,
                    "error": result.to_dict(),
                }
            else:
                entry = {
                    "status": "retried" if failures[slot] else "ok",
                    "attempts": failures[slot] + 1,
                    "error": None,
                }
            for index in indices_by_unique[slot]:
                self.job_reports[index] = entry
            return [(index, result) for index in indices_by_unique[slot]]

        def expire_slot(slot: int) -> list[tuple[int, Any]]:
            """Finalise a slot whose deadline passed: terminal, no retries."""
            counters["expired"] += 1
            job = unique_jobs[slot]
            log_event(logger, "job-expired", job=job.fault_key(), failures=failures[slot])
            exc = DeadlineExceeded(
                f"farm job {job.fault_key()!r} deadline expired before completion",
                digest=job.digest(),
            )
            record = FarmJobError.from_exception(
                exc, attempts=failures[slot], fault_key=job.fault_key()
            )
            return report(slot, record)

        def dispatch_expired(slot: int) -> bool:
            """Cooperative-cancellation check at a (re)submission site."""
            at = slot_deadline_at[slot]
            return at is not None and time.monotonic() >= at

        start = time.perf_counter()
        if self.executor == "reference" or len(unique_jobs) <= 1:
            # A single unique job gains nothing from a pool; run it
            # in-process and report the backend that actually ran.
            backend, workers = "reference", 1
            for slot, job in enumerate(unique_jobs):
                self._stall_dispatch(job, failures[slot])
                if dispatch_expired(slot):
                    for pair in expire_slot(slot):
                        yield pair
                    continue
                result, failures[slot] = self._run_job_with_retry(
                    job_fn, job, failures[slot], counters
                )
                for pair in report(slot, result):
                    yield pair
        else:
            backend = self.executor
            workers = min(self.max_workers or available_workers(), len(unique_jobs))
            pool = self._new_pool(backend, workers)
            pending: dict[Future, int] = {}
            future_deadlines: dict[Future, float] = {}
            unresolved = set(range(len(unique_jobs)))
            respawns = 0

            def submit(slot: int) -> list[tuple[int, Any]]:
                """(Re)submit a slot — or cooperatively cancel it if expired."""
                self._stall_dispatch(unique_jobs[slot], failures[slot])
                if dispatch_expired(slot):
                    unresolved.discard(slot)
                    return expire_slot(slot)
                future = pool.submit(job_fn, unique_jobs[slot], failures[slot])
                pending[future] = slot
                now = time.monotonic()
                candidates = []
                if policy.timeout_s is not None:
                    candidates.append(now + policy.timeout_s)
                if slot_deadline_at[slot] is not None:
                    candidates.append(slot_deadline_at[slot])
                if candidates:
                    future_deadlines[future] = min(candidates)
                return []

            def register_failure(slot: int, exc: BaseException) -> list[tuple[int, Any]]:
                """One failed attempt: retry with backoff, or finalise the slot."""
                nonlocal degraded
                failures[slot] += 1
                key = unique_jobs[slot].fault_key()
                if failures[slot] > policy.max_retries:
                    unresolved.discard(slot)
                    log_event(
                        logger,
                        "job-failed",
                        job=key,
                        attempts=failures[slot],
                        error=type(exc).__name__,
                    )
                    record = FarmJobError.from_exception(
                        exc, attempts=failures[slot], fault_key=key
                    )
                    return report(slot, record)
                counters["retries"] += 1
                log_event(
                    logger, "job-retry", job=key, failures=failures[slot], error=type(exc).__name__
                )
                delay = policy.backoff_s(unique_jobs[slot].fault_key(), failures[slot])
                if delay:
                    time.sleep(delay)
                try:
                    return submit(slot)
                except BrokenExecutor:
                    degraded = True  # no pool left to retry on; drain inline
                return []

            try:
                initial_events: list[tuple[int, Any]] = []
                try:
                    for slot in range(len(unique_jobs)):
                        initial_events.extend(submit(slot))
                except BrokenExecutor:
                    degraded = True  # pool unusable from the start
                for pair in initial_events:
                    yield pair
                while unresolved:
                    if degraded:
                        # respawn budget exhausted: finish the remaining
                        # jobs on the in-process reference path so the
                        # sweep completes (memoised results are kept)
                        log_event(
                            logger,
                            "farm-degraded",
                            remaining=len(unresolved),
                            respawns=respawns,
                        )
                        for slot in sorted(unresolved):
                            self._stall_dispatch(unique_jobs[slot], failures[slot])
                            if dispatch_expired(slot):
                                for pair in expire_slot(slot):
                                    yield pair
                                continue
                            result, failures[slot] = self._run_job_with_retry(
                                job_fn, unique_jobs[slot], failures[slot], counters
                            )
                            for pair in report(slot, result):
                                yield pair
                        unresolved.clear()
                        break
                    if not pending:
                        degraded = True  # nothing in flight yet jobs remain
                        continue
                    timeout = None
                    if future_deadlines:
                        timeout = max(0.005, min(future_deadlines.values()) - time.monotonic())
                    done, _ = wait(list(pending), timeout=timeout, return_when=FIRST_COMPLETED)
                    events: list[tuple[int, Any]] = []
                    if not done:
                        # overdue jobs: queued ones are cancelled, running
                        # ones abandoned (their late results are discarded).
                        # A job past its *own* deadline expires terminally;
                        # a policy ``timeout_s`` overrun is a failed attempt
                        # and retries apply
                        now = time.monotonic()
                        overdue = [
                            future
                            for future, deadline in future_deadlines.items()
                            if future in pending and deadline <= now
                        ]
                        for future in overdue:
                            slot = pending.pop(future)
                            future_deadlines.pop(future, None)
                            future.cancel()
                            slot_at = slot_deadline_at[slot]
                            if slot_at is not None and slot_at <= now:
                                unresolved.discard(slot)
                                events.extend(expire_slot(slot))
                                continue
                            counters["timeouts"] += 1
                            exc = TimeoutError(
                                f"farm job {unique_jobs[slot].fault_key()!r} exceeded "
                                f"timeout_s={policy.timeout_s}"
                            )
                            events.extend(register_failure(slot, exc))
                        for pair in events:
                            yield pair
                        continue
                    # successes first: when a pool breaks, completed results
                    # must land before the crash sweep resubmits survivors
                    ordered = sorted(
                        done,
                        key=lambda f: 0 if (not f.cancelled() and f.exception() is None) else 1,
                    )
                    broken: list[tuple[int, BaseException]] = []
                    for future in ordered:
                        slot = pending.pop(future, None)
                        future_deadlines.pop(future, None)
                        if slot is None or future.cancelled():
                            continue  # abandoned after timeout, or cancelled
                        exc = future.exception()
                        if exc is None:
                            unresolved.discard(slot)
                            events.extend(report(slot, future.result()))
                        elif isinstance(exc, BrokenExecutor):
                            broken.append((slot, exc))
                        else:
                            events.extend(register_failure(slot, exc))
                    if broken:
                        # the pool is dead and every in-flight job died with
                        # it; the crash counts as one failed attempt for each
                        # (the crasher is indeterminate, and charging all of
                        # them keeps a determined crasher from respawning the
                        # pool at the same attempt number forever)
                        for future, slot in pending.items():
                            broken.append(
                                (slot, BrokenExecutor("process pool died with this job in flight"))
                            )
                        pending.clear()
                        future_deadlines.clear()
                        pool.shutdown(wait=False, cancel_futures=True)
                        if respawns < policy.max_pool_respawns:
                            respawns += 1
                            counters["pool_respawns"] += 1
                            log_event(
                                logger,
                                "pool-respawn",
                                respawns=respawns,
                                in_flight=len(broken),
                            )
                            pool = self._new_pool(backend, workers)
                            for slot, exc in broken:
                                events.extend(register_failure(slot, exc))
                        else:
                            degraded = True
                            for slot, _ in broken:
                                failures[slot] += 1
                    for pair in events:
                        yield pair
            finally:
                # an abandoned stream (consumer closed the generator early)
                # must cancel the queued remainder of the grid, not compile it
                pool.shutdown(wait=True, cancel_futures=True)
        wall = time.perf_counter() - start

        self.last_stats = {
            "executor": backend,
            "requested_executor": self.executor,
            "num_jobs": len(jobs),
            "num_unique_jobs": len(unique_jobs),
            "wall_s": wall,
            "max_workers": workers,
            "degraded": degraded,
            **counters,
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
