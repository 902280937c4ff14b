"""Unit tests for the hardened OpenQASM 2 import/export round-trip."""

from __future__ import annotations

import math
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.circuit import CircuitLimits, Gate, QuantumCircuit, from_qasm, random_cx_circuit, to_qasm
from repro.circuit.qasm import _parse_angle
from repro.exceptions import CircuitError
from repro.sim import circuits_equivalent


class TestExport:
    def test_header_and_register(self):
        text = to_qasm(QuantumCircuit(3).h(0))
        assert "OPENQASM 2.0;" in text
        assert "qreg q[3];" in text
        assert "h q[0];" in text

    def test_measure_creates_creg(self):
        text = to_qasm(QuantumCircuit(2).h(0).measure(0))
        assert "creg c[2];" in text
        assert "measure q[0] -> c[0];" in text

    def test_parameter_formatting(self):
        text = to_qasm(QuantumCircuit(1).rz(math.pi / 2, 0).rz(0.123, 0))
        assert "rz(pi/2)" in text
        assert "0.123" in text

    def test_two_qubit_operands(self):
        text = to_qasm(QuantumCircuit(3).cx(2, 0).rzz(0.5, 0, 1))
        assert "cx q[2], q[0];" in text
        assert "rzz(0.5) q[0], q[1];" in text


class TestRoundTrip:
    def test_simple_circuit(self, small_circuit):
        restored = from_qasm(to_qasm(small_circuit))
        assert restored.num_qubits == small_circuit.num_qubits
        assert circuits_equivalent(restored, small_circuit)

    def test_random_circuit(self):
        circuit = random_cx_circuit(5, 10, seed=12)
        restored = from_qasm(to_qasm(circuit))
        assert restored.num_two_qubit_gates() == circuit.num_two_qubit_gates()
        assert circuits_equivalent(restored, circuit)

    def test_measurements_preserved(self):
        circuit = QuantumCircuit(2).h(0).cx(0, 1).measure(0).measure(1)
        restored = from_qasm(to_qasm(circuit))
        assert sum(1 for g in restored.gates if g.name == "measure") == 2


class TestImportErrors:
    def test_missing_qreg(self):
        with pytest.raises(CircuitError):
            from_qasm("OPENQASM 2.0;\nh q[0];")

    def test_unknown_gate(self):
        with pytest.raises(CircuitError):
            from_qasm("OPENQASM 2.0;\nqreg q[1];\nfrobnicate q[0];")

    def test_bad_parameter_count(self):
        with pytest.raises(CircuitError):
            from_qasm("OPENQASM 2.0;\nqreg q[1];\nrz q[0];")

    def test_comments_and_blank_lines_ignored(self):
        text = """
        OPENQASM 2.0;
        include "qelib1.inc";
        // a comment
        qreg q[2];

        h q[0]; // trailing comment
        cx q[0], q[1];
        """
        circuit = from_qasm(text)
        assert len(circuit) == 2

    def test_pi_expressions_parsed(self):
        circuit = from_qasm("OPENQASM 2.0;\nqreg q[1];\nrz(-pi/4) q[0];\nrx(2*pi) q[0];\n")
        assert circuit.gates[0].params[0] == pytest.approx(-math.pi / 4)
        assert circuit.gates[1].params[0] == pytest.approx(2 * math.pi)


def _qasm(*body: str) -> str:
    return "OPENQASM 2.0;\nqreg q[4];\n" + "\n".join(body) + "\n"


class TestEvalDoSRegression:
    """The _parse_angle eval CVE: hostile expressions must fail fast, typed."""

    @pytest.mark.parametrize(
        "expression",
        ["9**9**9", "__import__('os').system('true')", "().__class__", "1e99999", "pi/0"],
    )
    def test_hostile_angle_rejected_under_100ms(self, expression):
        text = _qasm(f"rx({expression}) q[0];")
        start = time.perf_counter()
        with pytest.raises(CircuitError) as excinfo:
            from_qasm(text)
        assert time.perf_counter() - start < 0.1
        assert excinfo.value.line == 3
        assert excinfo.value.column is not None

    def test_angle_grammar(self):
        assert _parse_angle("pi") == math.pi
        assert _parse_angle("-pi/4") == -math.pi / 4
        assert _parse_angle("3*pi/4 - pi/8") == 3 * math.pi / 4 - math.pi / 8
        assert _parse_angle("((1.5e-3))") == 1.5e-3
        assert _parse_angle("+.5") == 0.5
        assert _parse_angle("--2") == 2.0
        for bad in ("", "pi pi", "1 + ", "(pi", "pi)", "2**3", "tau", "0x10", "1,2"):
            with pytest.raises(CircuitError):
                _parse_angle(bad)


class TestOperandValidation:
    """Out-of-range / duplicate operands are rejected naming the line."""

    def test_out_of_range_index(self):
        with pytest.raises(CircuitError) as excinfo:
            from_qasm("OPENQASM 2.0;\nqreg q[2];\ncx q[0], q[9];\n")
        assert excinfo.value.line == 3
        assert "out of range" in str(excinfo.value)
        assert "line 3" in str(excinfo.value)

    def test_duplicate_operand(self):
        with pytest.raises(CircuitError) as excinfo:
            from_qasm("OPENQASM 2.0;\nqreg q[2];\ncx q[1], q[1];\n")
        assert excinfo.value.line == 3
        assert "duplicate operand" in str(excinfo.value)

    def test_undeclared_register_operand(self):
        with pytest.raises(CircuitError, match="undeclared register"):
            from_qasm("OPENQASM 2.0;\nqreg q[2];\ncx q[0], r[1];\n")

    def test_conflicting_qreg(self):
        with pytest.raises(CircuitError, match="conflicting qreg"):
            from_qasm("OPENQASM 2.0;\nqreg q[2];\nqreg r[2];\n")

    def test_statement_before_qreg(self):
        with pytest.raises(CircuitError) as excinfo:
            from_qasm("OPENQASM 2.0;\nh q[0];\nqreg q[2];\n")
        assert excinfo.value.line == 2

    def test_measure_out_of_range(self):
        with pytest.raises(CircuitError, match="out of range"):
            from_qasm("OPENQASM 2.0;\nqreg q[2];\ncreg c[2];\nmeasure q[5] -> c[0];\n")

    def test_missing_semicolon(self):
        with pytest.raises(CircuitError, match="missing ';'"):
            from_qasm("OPENQASM 2.0;\nqreg q[2];\nh q[0]\n")

    def test_gate_arity_error_carries_line(self):
        with pytest.raises(CircuitError) as excinfo:
            from_qasm("OPENQASM 2.0;\nqreg q[3];\nccx q[0], q[1];\n")
        assert excinfo.value.line == 3

    @pytest.mark.parametrize(
        "body, column",
        [
            ("qreg q[{digits}];\n", 1),
            ("qreg q[2];\ncx q[0], q[{digits}];\n", 10),
            ("qreg q[2];\ncreg c[2];\nmeasure q[{digits}] -> c[0];\n", 1),
        ],
        ids=["qreg", "operand", "measure"],
    )
    def test_huge_integer_literal_rejected_typed(self, body, column):
        text = "OPENQASM 2.0;\n" + body.format(digits="9" * 5000)
        with pytest.raises(CircuitError, match="significant digits") as excinfo:
            from_qasm(text, limits=CircuitLimits.unbounded())
        assert excinfo.value.line == text.count("\n")
        assert excinfo.value.column == column

    def test_leading_zeros_do_not_count_as_digits(self):
        circuit = from_qasm("OPENQASM 2.0;\nqreg q[" + "0" * 40 + "3];\nh q[0002];\n")
        assert circuit.num_qubits == 3
        assert circuit.gates[0].qubits == (2,)

    def test_barrier_bare_register_expands(self):
        circuit = from_qasm("OPENQASM 2.0;\nqreg q[3];\nbarrier q;\n")
        assert circuit.gates[0].name == "barrier"
        assert circuit.gates[0].qubits == (0, 1, 2)

    def test_multiple_statements_per_line(self):
        circuit = from_qasm("OPENQASM 2.0;\nqreg q[3];\nh q[0]; cx q[0], q[1]; h q[2];\n")
        assert [g.name for g in circuit.gates] == ["h", "cx", "h"]


class TestCircuitLimits:
    def test_defaults_are_positive(self):
        limits = CircuitLimits()
        assert limits.max_qubits >= 64
        assert limits.max_gates >= 10_000

    def test_invalid_limit_rejected(self):
        with pytest.raises(CircuitError):
            CircuitLimits(max_qubits=0)

    def test_max_qubits_enforced_at_qreg(self):
        with pytest.raises(CircuitError, match="qubit limit"):
            from_qasm("OPENQASM 2.0;\nqreg q[9];\n", limits=CircuitLimits(max_qubits=8))

    def test_max_gates_enforced_before_gate_objects(self):
        text = "OPENQASM 2.0;\nqreg q[1];\n" + "x q[0];\n" * 10
        with pytest.raises(CircuitError, match="gate limit"):
            from_qasm(text, limits=CircuitLimits(max_gates=5))

    def test_max_text_bytes_enforced_first(self):
        with pytest.raises(CircuitError, match="byte limit"):
            from_qasm("x" * 2000, limits=CircuitLimits(max_text_bytes=1000))

    def test_max_parse_depth_enforced(self):
        text = _qasm("rx(" + "(" * 40 + "pi" + ")" * 40 + ") q[0];")
        with pytest.raises(CircuitError, match="nested deeper"):
            from_qasm(text)

    def test_unbounded_parses_over_default_limits(self):
        text = "OPENQASM 2.0;\nqreg q[300];\nh q[0];\n"
        with pytest.raises(CircuitError):
            from_qasm(text)
        assert from_qasm(text, limits=CircuitLimits.unbounded()).num_qubits == 300


class TestCircuitConvenienceMethods:
    def test_method_round_trip(self):
        circuit = QuantumCircuit(3).h(0).cx(0, 1).rz(0.25, 2)
        restored = QuantumCircuit.from_qasm(circuit.to_qasm())
        assert restored.gates == circuit.gates

    def test_from_qasm_accepts_limits(self):
        with pytest.raises(CircuitError):
            QuantumCircuit.from_qasm(
                "OPENQASM 2.0;\nqreg q[9];\n", limits=CircuitLimits(max_qubits=4)
            )


_GATE_STRATEGY = st.one_of(
    st.tuples(
        st.sampled_from(["h", "x", "y", "z", "s", "t", "sx"]),
        st.integers(0, 4),
    ).map(lambda t: ("1q", *t)),
    st.tuples(
        st.sampled_from(["rx", "ry", "rz", "p"]),
        st.integers(0, 4),
        st.floats(-10.0, 10.0, allow_nan=False, allow_infinity=False),
    ).map(lambda t: ("rot", *t)),
    st.tuples(
        st.sampled_from(["cx", "cz", "swap"]),
        st.integers(0, 4),
        st.integers(0, 4),
    ).filter(lambda t: t[1] != t[2]).map(lambda t: ("2q", *t)),
    st.tuples(
        st.sampled_from(["rzz", "rxx"]),
        st.integers(0, 4),
        st.integers(0, 4),
        st.floats(-10.0, 10.0, allow_nan=False, allow_infinity=False),
    ).filter(lambda t: t[1] != t[2]).map(lambda t: ("2q_rot", *t)),
)


def _build_circuit(gate_specs) -> QuantumCircuit:
    circuit = QuantumCircuit(5, name="hypothesis")
    for spec in gate_specs:
        tag = spec[0]
        if tag == "1q":
            circuit.append(Gate(spec[1], (spec[2],)))
        elif tag == "rot":
            circuit.append(Gate(spec[1], (spec[2],), (spec[3],)))
        elif tag == "2q":
            circuit.append(Gate(spec[1], (spec[2], spec[3])))
        else:
            circuit.append(Gate(spec[1], (spec[2], spec[3]), (spec[4],)))
    return circuit


class TestHypothesisRoundTrip:
    """Property: export → import preserves structure over random circuits."""

    @settings(max_examples=60, deadline=None)
    @given(st.lists(_GATE_STRATEGY, min_size=0, max_size=25))
    def test_export_import_round_trip(self, gate_specs):
        circuit = _build_circuit(gate_specs)
        restored = from_qasm(to_qasm(circuit))
        assert restored.num_qubits == circuit.num_qubits
        assert len(restored) == len(circuit)
        for original, back in zip(circuit.gates, restored.gates):
            assert back.name == original.name
            assert back.qubits == original.qubits
            assert back.params == pytest.approx(original.params, abs=1e-9)
