"""Unit tests for FPQA schedule JSON serialisation."""

from __future__ import annotations

import json

import pytest

from repro.circuit import random_cx_circuit, random_pauli_strings
from repro.core import QPilotCompiler, route_circuit, route_qaoa
from repro.exceptions import ScheduleError
from repro.sim import verify_schedule_equivalence
from repro.utils.serialization import (
    canonical_json,
    schedule_from_dict,
    schedule_from_json,
    schedule_to_dict,
    schedule_to_json,
    stage_from_dict,
)
from repro.workloads import random_graph_edges, ring_graph_edges


class TestRoundTrip:
    def test_generic_schedule_round_trip(self, random_small_circuit):
        schedule = route_circuit(random_small_circuit)
        restored = schedule_from_json(schedule_to_json(schedule))
        assert restored.name == schedule.name
        assert restored.num_data_qubits == schedule.num_data_qubits
        assert restored.num_stages == schedule.num_stages
        assert restored.two_qubit_depth() == schedule.two_qubit_depth()
        assert restored.num_two_qubit_gates() == schedule.num_two_qubit_gates()
        assert restored.total_movement_distance() == pytest.approx(schedule.total_movement_distance())
        restored.validate()

    def test_restored_schedule_still_verifies(self, random_small_circuit):
        schedule = route_circuit(random_small_circuit)
        restored = schedule_from_json(schedule_to_json(schedule))
        assert verify_schedule_equivalence(random_small_circuit, restored, seed=3)

    def test_qaoa_schedule_round_trip(self):
        schedule = route_qaoa(6, ring_graph_edges(6))
        restored = schedule_from_dict(schedule_to_dict(schedule))
        assert restored.num_two_qubit_gates() == schedule.num_two_qubit_gates()
        assert restored.parallelism_histogram() == schedule.parallelism_histogram()
        assert restored.config.slm_cols == schedule.config.slm_cols

    def test_qsim_schedule_round_trip(self, small_pauli_strings):
        schedule = QPilotCompiler().compile_pauli_strings(small_pauli_strings).schedule
        restored = schedule_from_json(schedule_to_json(schedule))
        assert restored.two_qubit_depth() == schedule.two_qubit_depth()
        assert restored.max_concurrent_ancillas() == schedule.max_concurrent_ancillas()

    @pytest.mark.parametrize(
        "build",
        [
            lambda: route_circuit(random_cx_circuit(8, 24, seed=21)),
            lambda: QPilotCompiler()
            .compile_pauli_strings(random_pauli_strings(8, 12, 0.3, seed=22))
            .schedule,
            lambda: route_qaoa(8, random_graph_edges(8, 0.4, seed=23)),
        ],
        ids=["generic", "qsim", "qaoa"],
    )
    def test_canonical_dict_is_json_native(self, build):
        """Every router's canonical dict survives a JSON round-trip unchanged
        (no int keys, no tuples), so its canonical bytes are the same whether
        it was freshly compiled or read back from disk."""
        schedule = build()
        if schedule.metadata["router"] == "generic":
            # past 10 stages, int and str stage keys sort differently
            assert schedule.metadata["num_macro_stages"] >= 10
        data = schedule_to_dict(schedule, canonical=True)
        round_tripped = json.loads(json.dumps(data))
        assert data == round_tripped
        assert canonical_json(data) == canonical_json(round_tripped)

    def test_json_is_valid_and_versioned(self, random_small_circuit):
        text = schedule_to_json(route_circuit(random_small_circuit))
        payload = json.loads(text)
        assert payload["schema_version"] == 1
        assert "metrics" in payload and "stages" in payload


class TestErrors:
    def test_unknown_schema_version(self, random_small_circuit):
        data = schedule_to_dict(route_circuit(random_small_circuit))
        data["schema_version"] = 99
        with pytest.raises(ScheduleError):
            schedule_from_dict(data)

    def test_unknown_stage_kind(self):
        with pytest.raises(ScheduleError):
            stage_from_dict({"kind": "WarpDriveStage", "label": "x"})

    def test_non_jsonable_metadata_dropped(self, random_small_circuit):
        schedule = route_circuit(random_small_circuit)
        schedule.metadata["weird"] = object()
        data = schedule_to_dict(schedule)
        assert "weird" not in data["metadata"]
        assert "router" in data["metadata"]
