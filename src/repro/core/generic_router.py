"""Generic high-parallelism router for arbitrary circuits (Alg. 1).

The generic router compiles any quantum circuit onto the FPQA:

1. the circuit is transpiled into the native ``CZ + 1Q`` basis;
2. gates are consumed front-layer by front-layer;
3. 1-qubit gates execute immediately in Raman stages;
4. from the remaining front-layer CZ gates, a greedy scan (sorted by the
   first operand's index) selects the *maximum legal subset* — the largest
   prefix-compatible set of gates whose ancillas can share one AOD
   configuration without any row or column order reversal;
5. the selected gates execute as a flying-ancilla macro: one parallel
   fan-out CNOT layer (ancilla creation), an AOD move, one parallel CZ
   layer, a move back, and one parallel CNOT layer (ancilla recycle).

Every Rydberg macro therefore contributes three 2-qubit layers and
``3 k`` 2-qubit gates for ``k`` routed CZs, exactly the cost model of
Fig. 1(c) in the paper.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

from repro.circuit.circuit import QuantumCircuit
from repro.circuit.dag import DependencyDAG
from repro.circuit.decompose import decompose_to_cz
from repro.core.movement import AtomMove
from repro.core.schedule import (
    AncillaCreationStage,
    AncillaRecycleStage,
    FPQASchedule,
    MeasurementStage,
    MovementStage,
    OneQubitStage,
    RydbergStage,
    ScheduledGate,
    aod,
    slm,
)
from repro.exceptions import RoutingError
from repro.hardware.constraints import (
    GatePlacement,
    assign_aod_crosses,
    greedy_legal_subset,
)
from repro.hardware.fpqa import FPQAConfig, SLMArray
from repro.core.movement import MovementStep
from repro.obs.tracing import span


@dataclass
class GenericRouterOptions:
    """Knobs of the generic router."""

    #: Sort candidate gates by their first operand before the greedy scan
    #: (the paper's ordering).  Disabling this is used by ablation studies.
    sort_candidates: bool = True
    #: Emit a measurement stage at the end when the input circuit measures.
    include_measurement: bool = True
    #: Cap on gates accepted into a single Rydberg stage (None = unlimited).
    max_gates_per_stage: int | None = None


class GenericRouter:
    """Flying-ancilla router for arbitrary circuits."""

    def __init__(self, config: FPQAConfig | None = None, options: GenericRouterOptions | None = None):
        self.config = config
        self.options = options or GenericRouterOptions()

    # ------------------------------------------------------------------
    def compile(self, circuit: QuantumCircuit) -> FPQASchedule:
        """Compile a circuit into an :class:`FPQASchedule`.

        The SLM array defaults to a near-square array just large enough for
        the circuit when no configuration was supplied.
        """
        start_time = time.perf_counter()
        config = self.config or FPQAConfig.square_for(circuit.num_qubits)
        if config.num_slm_sites < circuit.num_qubits:
            config = config.for_qubits(circuit.num_qubits)
        array = SLMArray(config, circuit.num_qubits)

        had_measurements = any(g.name == "measure" for g in circuit.gates)
        native = decompose_to_cz(circuit)
        dag = DependencyDAG(native)

        schedule = FPQASchedule(
            config=config,
            num_data_qubits=circuit.num_qubits,
            name=f"qpilot_generic[{circuit.name}]",
        )

        # one bounds-checked divmod per qubit instead of per stage visit
        positions = [array.position(q) for q in range(circuit.num_qubits)]

        stage_index = 0
        while not dag.is_done():
            # the per-stage span is the shared no-op object unless a
            # tracer is active on this thread (disabled tracing must not
            # show up in the 150q/1500g perf smoke)
            with span("stage", index=stage_index):
                progressed = self._flush_one_qubit_gates(dag, schedule)
                if dag.is_done():
                    break
                front = sorted(
                    i for i in dag.front_layer_unsorted() if dag.gate(i).num_qubits == 2
                )
                if not front:
                    if progressed:
                        continue
                    raise RoutingError("front layer contains no executable gates")
                selected = self._select_legal_subset(front, dag, positions)
                if not selected:
                    raise RoutingError(
                        "could not select any front-layer gate (internal error)"
                    )
                self._emit_macro(selected, dag, array, schedule, stage_index)
                stage_index += 1

        if had_measurements and self.options.include_measurement:
            schedule.append(MeasurementStage(qubits=list(range(circuit.num_qubits)), label="measure"))

        schedule.metadata.update(
            {
                "router": "generic",
                "compile_time_s": time.perf_counter() - start_time,
                "num_macro_stages": stage_index,
                "source_2q_gates": native.num_two_qubit_gates(),
            }
        )
        return schedule

    # ------------------------------------------------------------------
    # helpers
    # ------------------------------------------------------------------
    def _flush_one_qubit_gates(self, dag: DependencyDAG, schedule: FPQASchedule) -> bool:
        """Execute every 1-qubit gate reachable in the front layer."""
        progressed = False
        while True:
            one_qubit = sorted(
                i for i in dag.front_layer_unsorted() if dag.gate(i).num_qubits == 1
            )
            if not one_qubit:
                return progressed
            gates = []
            for index in one_qubit:
                gate = dag.gate(index)
                if not gate.is_directive:
                    gates.append(
                        ScheduledGate(gate.name, (slm(gate.qubits[0]),), gate.params)
                    )
                dag.execute(index)
            if gates:
                schedule.append(OneQubitStage(gates=gates, label="raman"))
                progressed = True

    def _select_legal_subset(
        self, front: list[int], dag: DependencyDAG, positions: list[tuple[int, int]]
    ) -> list[tuple[int, GatePlacement]]:
        """Greedy maximum legal subset of the front-layer CZ gates."""
        candidates: list[tuple[int, GatePlacement]] = []
        for index in front:
            gate = dag.gate(index)
            qubit_a, qubit_b = gate.qubits
            placement = GatePlacement(index, positions[qubit_a], positions[qubit_b])
            candidates.append((index, placement))
        if self.options.sort_candidates:
            candidates.sort(key=lambda item: min(dag.gate(item[0]).qubits))
        accepted_placements = greedy_legal_subset([p for _, p in candidates])
        accepted_ids = {p.gate_index for p in accepted_placements}
        selected = [(i, p) for i, p in candidates if i in accepted_ids]
        limit = self.options.max_gates_per_stage
        if limit is not None:
            selected = selected[:limit]
        return selected

    def _emit_macro(
        self,
        selected: list[tuple[int, GatePlacement]],
        dag: DependencyDAG,
        array: SLMArray,
        schedule: FPQASchedule,
        stage_index: int,
    ) -> None:
        """Emit create / move / execute / move-back / recycle stages."""
        placements = [p for _, p in selected]
        # the subset came from greedy_legal_subset, so skip the O(k²) re-check
        crosses = assign_aod_crosses(placements, validate=False)

        copies = []
        moves_out = []
        rydberg_gates = []
        moves_back = []
        for slot, (gate_index, placement) in enumerate(selected):
            gate = dag.gate(gate_index)
            qubit_a, qubit_b = gate.qubits
            copies.append((slm(qubit_a), slot))
            source_pos = (float(placement.source_row), float(placement.source_col))
            target_pos = (float(placement.target_row), float(placement.target_col))
            moves_out.append(AtomMove(slot, source_pos, target_pos))
            rydberg_gates.append(ScheduledGate(gate.name, (aod(slot), slm(qubit_b)), gate.params))
            moves_back.append(AtomMove(slot, target_pos, source_pos))
            dag.execute(gate_index)

        label = f"macro{stage_index}"
        schedule.append(
            AncillaCreationStage(copies=copies, uses_atom_transfer=True, label=f"{label}:create")
        )
        schedule.append(MovementStage(step=MovementStep(moves=moves_out), label=f"{label}:move"))
        schedule.append(RydbergStage(gates=rydberg_gates, label=f"{label}:rydberg"))
        schedule.append(MovementStage(step=MovementStep(moves=moves_back), label=f"{label}:return"))
        schedule.append(
            AncillaRecycleStage(copies=copies, uses_atom_transfer=True, label=f"{label}:recycle")
        )
        # str keys and list values: metadata is JSON-native, so a schedule
        # served from disk equals the freshly compiled one
        schedule.metadata.setdefault("aod_crosses", {})[str(stage_index)] = {
            str(gate_index): list(crosses[placement.gate_index])
            for gate_index, placement in selected
        }


def route_circuit(
    circuit: QuantumCircuit,
    config: FPQAConfig | None = None,
    options: GenericRouterOptions | None = None,
) -> FPQASchedule:
    """Convenience wrapper: compile ``circuit`` with the generic router."""
    return GenericRouter(config, options).compile(circuit)
