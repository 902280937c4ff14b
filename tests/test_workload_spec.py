"""WorkloadSpec tests: pinned content digests and construction-time validation.

Every store entry and farm memo key is addressed by a spec's
``fingerprint()`` and its job's ``FarmJob.digest()``, so the literals
below pin them byte for byte: a refactor that changes either silently
orphans every archived sweep and stored schedule.  The validation suite
pins the other half of the spec contract: a spec that ``build`` could
not materialise cannot be constructed — in particular not from a
tampered sweep archive, which must then be skipped without a dispatch.
"""

from __future__ import annotations

import copy
import json

import pytest

from repro.core import FarmJob, WorkloadSpec, sweep_grid
from repro.core.dse import SweepResult
from repro.exceptions import QPilotError
from repro.hardware.fpqa import FPQAConfig
from repro.service import CompileService

PIN_QASM = (
    'OPENQASM 2.0;\ninclude "qelib1.inc";\nqreg q[3];\n'
    "h q[0];\ncx q[0],q[1];\ncx q[1],q[2];\n"
)

#: One spec per constructor with its (fingerprint, digest on a width-4 array).
PINNED = {
    "random_circuit": (
        WorkloadSpec.random_circuit(12, 5, seed=7),
        "e52ad138a47f00d43f95434aa8641ddebdbeeef7",
        "31ddf5290f5485269f1a009f53aeb4f87b044430",
    ),
    "qsim": (
        WorkloadSpec.qsim(10, 0.3, num_strings=20, seed=8),
        "ba5f201e66d189033f0e65310f002fc3dee43c69",
        "acffcff13c7728a2983aee8cc4eb385e30013a76",
    ),
    "qaoa_random_graph": (
        WorkloadSpec.qaoa_random_graph(12, 0.3, seed=9, layers=2),
        "d4756c6db81a24951702816e954034671e43397f",
        "3b80eeb94161fc27a7963e3f63516121d90a3f00",
    ),
    "qaoa_regular_graph": (
        WorkloadSpec.qaoa_regular_graph(12, 3, seed=10),
        "08afcfea751da3caea9d4643bb69c6e25c23b404",
        "50349a530c159257cda75d9bd8aabe759d069147",
    ),
    "qaoa_edges": (
        WorkloadSpec.qaoa_edges(5, [(1, 0), (2, 3), (4, 1)]),
        "fb496ede5c1695017123f7ac7780124f65465bdb",
        "8f290b30add277d0663fd1389f22154946f624c5",
    ),
    "qasm": (
        WorkloadSpec.qasm(PIN_QASM),
        "792b00da8acfe102c182b387189d1adc79aff553",
        "38a612ae13e871ea9cb8bb5412e41e83cd20cca9",
    ),
    "qec_surface_code": (
        WorkloadSpec.qec_surface_code(3, rounds=2),
        "8d0babf308d49190898d00caa3c7f1df35db13c7",
        "b0bfa326f60aa491bb6a08b20ba113387b83c91c",
    ),
    "molecule": (
        WorkloadSpec.molecule("H2"),
        "7b47f4a7830f90c73b0608b3382b73784729b397",
        "10d6dd4102b72e12f722eca9e6c4bd029f375c31",
    ),
}


@pytest.mark.parametrize("constructor", sorted(PINNED))
def test_fingerprint_and_digest_are_pinned(constructor):
    spec, fingerprint, digest = PINNED[constructor]
    assert spec.fingerprint() == fingerprint
    assert FarmJob(spec, FPQAConfig.with_width(spec.num_qubits, 4)).digest() == digest
    archived = WorkloadSpec.from_dict(json.loads(json.dumps(spec.to_dict())))
    assert archived == spec and archived.fingerprint() == fingerprint


def _tampered(spec: WorkloadSpec, *, drop: str | None = None, **values) -> dict:
    """``spec.to_dict()`` with one param dropped and/or others overwritten."""
    record = spec.to_dict()
    params = {key: value for key, value in record["params"] if key != drop}
    params.update(values)
    record["params"] = [[key, value] for key, value in params.items()]
    return record


_CIRCUIT = WorkloadSpec.random_circuit(8, 3, seed=1)
_QSIM = WorkloadSpec.qsim(8, 0.3, num_strings=6, seed=2)
_QAOA_RANDOM = WorkloadSpec.qaoa_random_graph(8, 0.4, seed=3)
_QAOA_REGULAR = WorkloadSpec.qaoa_regular_graph(8, 3, seed=4)
_QAOA_EDGES = WorkloadSpec.qaoa_edges(4, [(0, 1), (2, 3)])
_QASM = WorkloadSpec.qasm(PIN_QASM)
_QEC = WorkloadSpec.qec_surface_code(2)
_MOLECULE = WorkloadSpec.molecule("H2")

#: Archive records ``build`` could not use: a required param dropped, a
#: param mistyped, or an unknown qaoa graph — every kind covered.
MALFORMED_RECORDS = {
    "circuit-missing-gate_multiple": _tampered(_CIRCUIT, drop="gate_multiple"),
    "circuit-str-seed": _tampered(_CIRCUIT, seed="1"),
    "qsim-missing-num_strings": _tampered(_QSIM, drop="num_strings"),
    "qsim-str-pauli_probability": _tampered(_QSIM, pauli_probability="0.3"),
    "qaoa-missing-edge_probability": _tampered(_QAOA_RANDOM, drop="edge_probability"),
    "qaoa-float-seed": _tampered(_QAOA_RANDOM, seed=3.5),
    "qaoa-missing-degree": _tampered(_QAOA_REGULAR, drop="degree"),
    "qaoa-str-layers": _tampered(_QAOA_REGULAR, layers="1"),
    "qaoa-missing-edges": _tampered(_QAOA_EDGES, drop="edges"),
    "qaoa-str-vertex": _tampered(_QAOA_EDGES, edges=[[0, "1"]]),
    "qaoa-unknown-graph": _tampered(_QAOA_RANDOM, graph="complete"),
    "qaoa-missing-graph": _tampered(_QAOA_RANDOM, drop="graph"),
    "qasm-missing-qasm": _tampered(_QASM, drop="qasm"),
    "qasm-int-qasm": _tampered(_QASM, qasm=3),
    "qec-missing-distance": _tampered(_QEC, drop="distance"),
    "qec-str-rounds": _tampered(_QEC, rounds="1"),
    "molecule-missing-molecule": _tampered(_MOLECULE, drop="molecule"),
    "molecule-int-molecule": _tampered(_MOLECULE, molecule=4),
}


@pytest.mark.parametrize("case", sorted(MALFORMED_RECORDS))
def test_malformed_record_is_rejected_at_construction(case):
    record = json.loads(json.dumps(MALFORMED_RECORDS[case]))
    with pytest.raises(QPilotError):
        WorkloadSpec.from_dict(record)


def test_every_kind_has_a_malformed_case():
    kinds = {record["kind"] for record in MALFORMED_RECORDS.values()}
    assert kinds == {spec.kind for spec, _, _ in PINNED.values()}


def test_warm_from_skips_tampered_records_without_dispatch(tmp_path):
    """A tampered archive is outside input: every malformed point is
    skipped before dispatch, so nothing is dead-lettered or charged to
    the breaker."""
    sweep = sweep_grid(_CIRCUIT, widths=(4,), executor="reference")
    data = json.loads(sweep.to_json())
    template = data["points"][0]
    data["points"] = []
    for record in MALFORMED_RECORDS.values():
        point = copy.deepcopy(template)
        point["job"]["workload"] = record
        data["points"].append(point)
    service = CompileService(tmp_path / "store", executor="reference")
    counts = service.warm_from(SweepResult.from_json(json.dumps(data)))
    assert counts == {
        "points": len(MALFORMED_RECORDS),
        "warmed": 0,
        "already": 0,
        "skipped": len(MALFORMED_RECORDS),
        "failed": 0,
    }
    assert service.stats.farm_dispatches == 0
    assert service.queue.dead_letters == []
    assert service.breaker.consecutive_failures == 0
