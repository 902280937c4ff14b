"""Shared utilities: RNG handling, fault injection, reporting, and serialisation."""

from repro.utils.faults import FaultPlan, FaultRule, deterministic_draw
from repro.utils.rng import ensure_rng, spawn

__all__ = [
    "ensure_rng",
    "spawn",
    "FaultPlan",
    "FaultRule",
    "deterministic_draw",
]

# Note: repro.utils.reporting and repro.utils.serialization are imported
# directly by their users; serialization is not re-exported here to avoid a
# circular import with repro.core.

