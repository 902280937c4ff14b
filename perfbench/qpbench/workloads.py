"""The three workloads: what one op is, how it is checked, what it costs.

Each workload builds its inputs from the seed, sets the program up,
hands out ops (one thing one client waits for) and checks every
output.  Checks on a single response run right after its op, outside
the op's timer; checks that need the whole run (the correctness gate)
run in :meth:`Workload.gate` after the timed phases.
"""

from __future__ import annotations

import hashlib
import os
import random
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable

from qpbench.inputs import (
    FAMILY_PROBABILITY,
    GRID_WIDTHS,
    NUM_GATES,
    NUM_QUBITS,
    SERVICE_WIDTH,
    Request,
    RequestStream,
    grid_seeds,
    small_gate_list,
    zipf_stream,
)

#: Farm workers: the closed loop never uses more than two cores, so
#: figures from a larger host stay comparable.
WORKERS = min(2, len(os.sched_getaffinity(0)))

#: warm-zipf-100q shape: universe size, memory-tier size and Zipf exponent.
WARM_UNIVERSE = 24
WARM_MEMORY_ENTRIES = 16
ZIPF_S = 1.1

#: Statevector check: one small generic instance per run.
CHECK_QUBITS = 10
CHECK_GATES = 40
CHECK_WIDTH = 4


@dataclass
class Op:
    """One op: its kind, the call to time, and its per-response check."""

    kind: str
    call: Callable[[], Any]
    check: Callable[[Any], list[str]]


def _spec(family: str, seed: int):
    from repro.core.farm import WorkloadSpec

    if family == "qsim":
        return WorkloadSpec.qsim(NUM_QUBITS, FAMILY_PROBABILITY, seed=seed)
    if family == "qaoa":
        return WorkloadSpec.qaoa_random_graph(NUM_QUBITS, FAMILY_PROBABILITY, seed=seed)
    return WorkloadSpec.random_circuit(NUM_QUBITS, NUM_GATES // NUM_QUBITS, seed=seed)


def _check_circuit(rng: random.Random):
    """A small circuit built with the builder API, plus its QASM text."""
    from repro.circuit.circuit import QuantumCircuit

    circuit = QuantumCircuit(CHECK_QUBITS)
    lines = ["OPENQASM 2.0;", 'include "qelib1.inc";', f"qreg q[{CHECK_QUBITS}];"]
    for gate in small_gate_list(CHECK_QUBITS, CHECK_GATES, rng):
        if gate[0] == "h":
            circuit.h(gate[1])
            lines.append(f"h q[{gate[1]}];")
        elif gate[0] == "rz":
            circuit.rz(gate[2], gate[1])
            lines.append(f"rz({gate[2]!r}) q[{gate[1]}];")
        else:
            circuit.cx(gate[1], gate[2])
            lines.append(f"cx q[{gate[1]}],q[{gate[2]}];")
    return circuit, "\n".join(lines) + "\n"


def check_served_schedule(schedule: dict, metrics) -> list[str]:
    """Reload, validate and recount one served schedule."""
    from repro.utils.serialization import schedule_from_dict

    try:
        loaded = schedule_from_dict(schedule)
        loaded.validate()
    except Exception as exc:  # any failure here is a wrong output
        return [f"schedule does not reload and validate: {type(exc).__name__}: {exc}"]
    errors = []
    if loaded.two_qubit_depth() != metrics.depth:
        errors.append(f"depth {loaded.two_qubit_depth()} != reported {metrics.depth}")
    if loaded.num_two_qubit_gates() != metrics.num_two_qubit_gates:
        errors.append(
            f"2q gates {loaded.num_two_qubit_gates()} != reported {metrics.num_two_qubit_gates}"
        )
    if abs(loaded.execution_time_us() - metrics.execution_time_us) > 1e-6 * max(
        1.0, metrics.execution_time_us
    ):
        errors.append("execution time does not recompute")
    return errors


class Workload:
    """Base: shared request plumbing and the statevector check."""

    name = ""
    #: Ops every untraced phase completes before it may stop; the quality
    #: totals and the memory reading are taken over exactly these ops.
    panel_ops = 1

    def __init__(self, seed: int, work_dir: Path):
        self.seed = seed
        self.work_dir = work_dir
        self.rng = random.Random(seed)
        #: Seconds of set-up spent on the benchmark's own bookkeeping
        #: (reference hashes), subtracted from the program's set-up time.
        self.bookkeeping_s = 0.0
        self.service = None

    # hooks ---------------------------------------------------------------
    def setup(self) -> None:
        raise NotImplementedError

    def next_op(self) -> Op:
        raise NotImplementedError

    def panel_quality(self) -> dict[str, float]:
        raise NotImplementedError

    def gate(self) -> list[str]:
        raise NotImplementedError

    def counters(self) -> dict[str, int]:
        """Service and store counters, for deltas across the traced phase."""
        if self.service is None:
            return {"requests": 0, "completed": 0, "coalesced": 0, "evictions": 0}
        stats = self.service.stats
        store = self.service.store.stats
        return {
            "requests": stats.requests,
            "completed": stats.completed,
            "coalesced": stats.coalesced,
            "evictions": store.evictions + store.memory_evictions,
        }

    def kb_per_entry(self) -> float:
        """On-disk KB per stored entry (0 for a workload without a store)."""
        if self.service is None or not len(self.service.store):
            return 0.0
        return self.service.store.disk_bytes() / len(self.service.store) / 1024.0

    # shared pieces -------------------------------------------------------
    def _new_service(self, **kwargs):
        from repro.service import CompileService

        return CompileService(self.work_dir / "store", **kwargs)

    def _request(self, spec):
        from repro.service import CompileRequest

        return CompileRequest.for_width(spec, SERVICE_WIDTH)

    def _service_call(self, request: Request) -> tuple[Any, Callable[[], Any]]:
        """The op for one request, and the compile request it amounts to.

        The compile request's digest is the one the response must carry.
        """
        service = self.service
        if request.family == "qasm":
            text = request.payload
            compile_request = self._request(service.ingest_qasm(text))
            return compile_request, lambda: service.compile_qasm(text, width=SERVICE_WIDTH)
        compile_request = self._request(_spec(request.family, request.payload))
        return compile_request, lambda: service.compile(compile_request)

    def statevector_check(self, compile_qasm: Callable[[str], Any] | None = None) -> list[str]:
        """Compile a small generic instance and simulate it against its source."""
        from repro.core.farm import CompileFarm, FarmJob, WorkloadSpec
        from repro.hardware.fpqa import FPQAConfig
        from repro.sim.verification import verify_schedule_equivalence
        from repro.utils.serialization import schedule_from_dict

        circuit, text = _check_circuit(random.Random(f"{self.seed}-statevector"))
        if compile_qasm is not None:
            schedule = compile_qasm(text).schedule
        else:
            job = FarmJob(
                workload=WorkloadSpec.qasm(text),
                config=FPQAConfig.with_width(CHECK_QUBITS, CHECK_WIDTH),
            )
            (result,) = CompileFarm("reference").run([job], with_schedules=True)
            if result.failed:
                return [f"statevector instance failed to compile: {result.message}"]
            schedule = result.schedule
        try:
            verify_schedule_equivalence(circuit, schedule_from_dict(schedule), seed=self.seed)
        except Exception as exc:  # VerificationError or a malformed schedule
            return [f"statevector check failed: {type(exc).__name__}: {exc}"]
        return []


class ColdWorkload(Workload):
    """cold-100q: every request is a distinct miss through CompileService."""

    name = "cold-100q"
    panel_ops = 18

    def setup(self) -> None:
        self.service = self._new_service()
        # warm lazy imports and caches on requests the timed phase never sends
        for request in RequestStream(random.Random(f"{self.seed}-prewarm")).take(3):
            self._service_call(request)[1]()
        self.stream = RequestStream(self.rng)
        self.served: list[tuple[str, Any]] = []

    def next_op(self) -> Op:
        request = next(self.stream)
        compile_request, call = self._service_call(request)
        digest = compile_request.digest()

        def check(response) -> list[str]:
            errors = []
            if response.digest != digest:
                errors.append("response digest does not match the request")
            if response.cached:
                errors.append("cold request was served from the cache")
            self.served.append((request.family, response))
            return errors

        return Op(request.family, call, check)

    def panel_quality(self) -> dict[str, float]:
        panel = [response for _, response in self.served[: self.panel_ops]]
        return _quality(response.metrics for response in panel) | {
            "stages": sum(len(response.schedule["stages"]) for response in panel)
        }

    def gate(self) -> list[str]:
        errors = []
        for family, response in self.served:
            errors += [f"{family} {response.digest[:12]}: {e}" for e in
                       check_served_schedule(response.schedule, response.metrics)]
        return errors + self.statevector_check(
            lambda text: self.service.compile_qasm(text, width=CHECK_WIDTH)
        )


class WarmWorkload(Workload):
    """warm-zipf-100q: a Zipf replay over a universe compiled during set-up."""

    name = "warm-zipf-100q"
    panel_ops = 100

    def setup(self) -> None:
        # misses never happen in the timed phase, so the executor only
        # shapes set-up; the memory tier holds two thirds of the universe
        self.service = self._new_service(
            executor="process", max_workers=WORKERS, memory_entries=WARM_MEMORY_ENTRIES
        )
        # rank r is stream request r + 1, so the hottest rank is a spec
        # and the QASM uploads sit at ranks 2, 5, 8, ...
        stream = RequestStream(self.rng).take(WARM_UNIVERSE)
        self.universe = stream[1:] + stream[:1]
        calls = [self._service_call(request) for request in self.universe]
        self.reference: dict[str, tuple[str, Any, str, int]] = {}
        for response in self.service.stream(request for request, _ in calls):
            start = time.perf_counter()
            self.reference[response.digest] = (
                response.router,
                response.metrics.deterministic(),
                _schedule_hash(response.schedule),
                len(response.schedule["stages"]),
            )
            self.bookkeeping_s += time.perf_counter() - start
        self.calls = [(request.digest(), call) for request, call in calls]
        self.ranks = zipf_stream(WARM_UNIVERSE, s=ZIPF_S, rng=random.Random(f"{self.seed}-zipf"))
        self.checked: set[str] = set()
        self.misses_at_start = self.service.store.stats.misses

    def next_op(self) -> Op:
        rank = next(self.ranks)
        digest, call = self.calls[rank]
        family = self.universe[rank].family

        def check(response) -> list[str]:
            router, metrics, expected_hash, stages = self.reference[digest]
            errors = []
            if response.digest != digest:
                errors.append("response digest does not match the request")
            if not response.cached:
                errors.append("warm request was not served from the cache")
            if response.router != router or response.metrics.deterministic() != metrics:
                errors.append("served metrics differ from the first compile")
            if len(response.schedule["stages"]) != stages:
                errors.append("served schedule differs from the first compile")
            if digest not in self.checked:
                # full check once per digest, inline so no response is kept
                self.checked.add(digest)
                if _schedule_hash(response.schedule) != expected_hash:
                    errors.append("served bytes differ from the first compile")
                errors += check_served_schedule(response.schedule, response.metrics)
            return errors

        return Op(family, call, check)

    def panel_quality(self) -> dict[str, float]:
        metrics = [reference[1] for reference in self.reference.values()]
        return _quality(metrics) | {
            "stages": sum(reference[3] for reference in self.reference.values())
        }

    def gate(self) -> list[str]:
        errors = []
        if len(self.reference) != WARM_UNIVERSE:
            errors.append(f"set-up compiled {len(self.reference)} of {WARM_UNIVERSE} requests")
        if self.service.store.stats.misses != self.misses_at_start:
            errors.append("the timed phase missed the store")
        return errors + self.statevector_check(
            lambda text: self.service.compile_qasm(text, width=CHECK_WIDTH)
        )


class GridWorkload(Workload):
    """dse-grid-100q: repeated Fig. 14 grids through the process farm."""

    name = "dse-grid-100q"
    panel_ops = 8

    def setup(self) -> None:
        from repro.core import dse
        from repro.core.farm import WorkloadSpec

        # import the routers and warm the gate caches before any fork
        small = [
            WorkloadSpec.random_circuit(16, 2, seed=0),
            WorkloadSpec.qsim(16, FAMILY_PROBABILITY, seed=0),
            WorkloadSpec.qaoa_random_graph(16, FAMILY_PROBABILITY, seed=0),
        ]
        dse.sweep_grid(small, widths=(4,), executor="reference")
        self.grids: list[tuple[list, Any]] = []

    def _grid_specs(self) -> list:
        seeds = grid_seeds(self.rng)
        return [_spec(family, seed) for family, seed in seeds.items()]

    def _sweep(self, specs, executor: str):
        from repro.core import dse

        return dse.sweep_grid(
            specs, widths=GRID_WIDTHS, executor=executor, max_workers=WORKERS, name="fig14"
        )

    def next_op(self) -> Op:
        specs = self._grid_specs()

        def check(sweep) -> list[str]:
            expected = len(specs) * len(GRID_WIDTHS)
            if len(sweep.points) != expected:
                return [f"grid returned {len(sweep.points)} of {expected} points"]
            if sweep.partial or any(point.metrics is None for point in sweep.points):
                return ["grid has failed points"]
            self.grids.append((specs, sweep))
            return []

        return Op("grid", lambda: self._sweep(specs, "process"), check)

    def panel_quality(self) -> dict[str, float]:
        metrics = [p.metrics for _, sweep in self.grids[: self.panel_ops] for p in sweep.points]
        return _quality(metrics) | {"stages": 0}

    def gate(self) -> list[str]:
        errors = []
        if not self.grids:
            return ["no grid completed"]
        specs, sweep = self.grids[0]
        reference = self._sweep(specs, "reference")
        for got, want in zip(sweep.points, reference.points):
            if (got.width, got.axes, got.job) != (want.width, want.axes, want.job) or (
                got.metrics.deterministic() != want.metrics.deterministic()
            ):
                errors.append(f"grid point {got.axes} w={got.width} differs from reference")
        if len(sweep.points) != len(reference.points):
            errors.append("grid and reference sweep differ in size")
        return errors + self.statevector_check()


def _quality(metrics) -> dict[str, float]:
    metrics = list(metrics)
    return {
        "depth_total": sum(m.depth for m in metrics),
        "two_qubit_gates_total": sum(m.num_two_qubit_gates for m in metrics),
        "exec_time_us_total": sum(m.execution_time_us for m in metrics),
    }


def _schedule_hash(schedule: dict) -> str:
    from repro.utils.serialization import canonical_json

    return hashlib.sha256(canonical_json(schedule).encode()).hexdigest()


WORKLOADS = {cls.name: cls for cls in (ColdWorkload, WarmWorkload, GridWorkload)}
