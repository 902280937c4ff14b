"""JSON serialisation of compiled FPQA schedules.

Downstream tools (visualisers, hardware control stacks, external
evaluators) need compiled programs in a machine-readable form.  This module
converts an :class:`~repro.core.schedule.FPQASchedule` to and from a plain
JSON-compatible dictionary.  The round-trip is lossless for everything the
executor needs: stage order, gates (with operand kinds), ancilla
creation/recycle pairs, and atom moves.
"""

from __future__ import annotations

import json
from typing import Any

from repro.core.movement import AtomMove, MovementStep
from repro.core.schedule import (
    AncillaCreationStage,
    AncillaRecycleStage,
    FPQASchedule,
    MeasurementStage,
    MovementStage,
    OneQubitStage,
    RydbergStage,
    ScheduledGate,
    Stage,
)
from repro.exceptions import ScheduleError
from repro.hardware.fpqa import FPQAConfig

_SCHEMA_VERSION = 1

#: Metadata keys that vary run-to-run (wall-clock timings) and are dropped
#: from canonical serialisations so golden files stay byte-stable.
VOLATILE_METADATA_KEYS = frozenset({"compile_time_s"})


def canonical_json(data: Any, *, indent: int | None = 2) -> str:
    """Canonical JSON text: sorted keys, fixed layout — byte-stable.

    Equal data always renders to equal bytes, so content-addressed
    storage and byte-diff regression tests work on the text directly.
    The default ``indent=2`` is the human-readable form of the golden
    schedule files, the DSE trajectory archives and ``schedule_json()``.
    ``indent=None`` is the compact form (no whitespace at all) that the
    compile-service schedule store writes: CPython encodes it in one C
    pass, several times faster and about 3x smaller than ``indent=2``,
    which CPython before 3.14 renders with the pure-Python encoder.
    """
    separators = (",", ":") if indent is None else None
    return json.dumps(data, indent=indent, separators=separators, sort_keys=True)


def _gate_to_dict(gate: ScheduledGate) -> dict[str, Any]:
    return {
        "name": gate.name,
        "operands": [[kind, index] for kind, index in gate.operands],
        "params": list(gate.params),
    }


def _gate_from_dict(data: dict[str, Any]) -> ScheduledGate:
    return ScheduledGate(
        name=data["name"],
        operands=tuple((kind, int(index)) for kind, index in data["operands"]),
        params=tuple(float(p) for p in data.get("params", [])),
    )


def _copies_to_list(copies) -> list:
    return [[[kind, index], slot] for (kind, index), slot in copies]


def _copies_from_list(data) -> list:
    return [((kind, int(index)), int(slot)) for (kind, index), slot in data]


def stage_to_dict(stage: Stage) -> dict[str, Any]:
    """Serialise one schedule stage."""
    base: dict[str, Any] = {"kind": type(stage).__name__, "label": stage.label}
    if isinstance(stage, OneQubitStage):
        base["gates"] = [_gate_to_dict(g) for g in stage.gates]
    elif isinstance(stage, RydbergStage):
        base["gates"] = [_gate_to_dict(g) for g in stage.gates]
    elif isinstance(stage, (AncillaCreationStage, AncillaRecycleStage)):
        base["copies"] = _copies_to_list(stage.copies)
        base["uses_atom_transfer"] = stage.uses_atom_transfer
    elif isinstance(stage, MovementStage):
        base["moves"] = [
            {"ancilla": m.ancilla, "from": list(m.from_pos), "to": list(m.to_pos)}
            for m in stage.step.moves
        ]
    elif isinstance(stage, MeasurementStage):
        base["qubits"] = list(stage.qubits)
    else:  # pragma: no cover - future stage types
        raise ScheduleError(f"cannot serialise stage type {type(stage).__name__}")
    return base


def stage_from_dict(data: dict[str, Any]) -> Stage:
    """Deserialise one schedule stage."""
    kind = data.get("kind")
    label = data.get("label", "")
    if kind == "OneQubitStage":
        return OneQubitStage(label=label, gates=[_gate_from_dict(g) for g in data["gates"]])
    if kind == "RydbergStage":
        return RydbergStage(label=label, gates=[_gate_from_dict(g) for g in data["gates"]])
    if kind == "AncillaCreationStage":
        return AncillaCreationStage(
            label=label,
            copies=_copies_from_list(data["copies"]),
            uses_atom_transfer=bool(data.get("uses_atom_transfer", True)),
        )
    if kind == "AncillaRecycleStage":
        return AncillaRecycleStage(
            label=label,
            copies=_copies_from_list(data["copies"]),
            uses_atom_transfer=bool(data.get("uses_atom_transfer", True)),
        )
    if kind == "MovementStage":
        moves = [
            AtomMove(int(m["ancilla"]), tuple(m["from"]), tuple(m["to"]))
            for m in data.get("moves", [])
        ]
        return MovementStage(label=label, step=MovementStep(moves=moves))
    if kind == "MeasurementStage":
        return MeasurementStage(label=label, qubits=[int(q) for q in data.get("qubits", [])])
    raise ScheduleError(f"unknown stage kind {kind!r} in serialised schedule")


def config_to_dict(config: FPQAConfig) -> dict[str, Any]:
    """Serialise the FPQA configuration."""
    return {
        "slm_rows": config.slm_rows,
        "slm_cols": config.slm_cols,
        "aod_rows": config.aod_rows,
        "aod_cols": config.aod_cols,
        "rydberg_radius_um": config.rydberg_radius_um,
        "site_spacing_um": config.site_spacing_um,
        "interaction_offset_um": config.interaction_offset_um,
        "move_speed_um_per_s": config.move_speed_um_per_s,
        "t0_us": config.t0_us,
        "t2_s": config.t2_s,
        "one_qubit_fidelity": config.one_qubit_fidelity,
        "two_qubit_fidelity": config.two_qubit_fidelity,
        "one_qubit_time_us": config.one_qubit_time_us,
        "two_qubit_time_us": config.two_qubit_time_us,
        "atom_transfer_time_us": config.atom_transfer_time_us,
    }


def schedule_to_dict(schedule: FPQASchedule, *, canonical: bool = False) -> dict[str, Any]:
    """Serialise a full schedule (config, stages, metadata, metrics).

    With ``canonical=True`` the volatile metadata keys (wall-clock compile
    timings) are dropped, so serialising the same logical schedule twice —
    or a deserialised round-trip of it — yields identical output.  Golden
    regression files use this mode.
    """
    metadata = {k: v for k, v in schedule.metadata.items() if _is_jsonable(v)}
    if canonical:
        metadata = {k: v for k, v in metadata.items() if k not in VOLATILE_METADATA_KEYS}
    # Normalise through one JSON round-trip: routers stash dicts with int
    # keys (and tuples) in metadata, which ``sort_keys`` orders numerically
    # on the way out but lexicographically after deserialisation — the
    # serialised form must be identical either way for content-addressed
    # storage and golden byte-diffs to work.
    metadata = json.loads(json.dumps(metadata))
    return {
        "schema_version": _SCHEMA_VERSION,
        "name": schedule.name,
        "num_data_qubits": schedule.num_data_qubits,
        "config": config_to_dict(schedule.config),
        "stages": [stage_to_dict(stage) for stage in schedule.stages],
        "metadata": metadata,
        "metrics": schedule.summary(),
    }


def schedule_from_dict(data: dict[str, Any]) -> FPQASchedule:
    """Rebuild a schedule from :func:`schedule_to_dict` output."""
    if data.get("schema_version") != _SCHEMA_VERSION:
        raise ScheduleError(f"unsupported schedule schema version {data.get('schema_version')!r}")
    config = FPQAConfig(**data["config"])
    schedule = FPQASchedule(
        config=config,
        num_data_qubits=int(data["num_data_qubits"]),
        name=data.get("name", "fpqa_schedule"),
        metadata=dict(data.get("metadata", {})),
    )
    for stage_data in data["stages"]:
        schedule.append(stage_from_dict(stage_data))
    return schedule


def schedule_to_json(
    schedule: FPQASchedule, *, indent: int | None = 2, canonical: bool = False
) -> str:
    """Serialise a schedule to a JSON string.

    ``canonical=True`` additionally sorts keys and strips volatile metadata
    so the output is byte-stable across runs (the golden-file format).
    """
    return json.dumps(
        schedule_to_dict(schedule, canonical=canonical), indent=indent, sort_keys=canonical
    )


def schedule_from_json(text: str) -> FPQASchedule:
    """Parse a schedule from a JSON string."""
    return schedule_from_dict(json.loads(text))


def _is_jsonable(value) -> bool:
    try:
        json.dumps(value)
        return True
    except (TypeError, ValueError):
        return False
