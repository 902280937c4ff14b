"""Router-in-the-loop design-space exploration (Fig. 14), farm-backed.

The compiler supports exploring FPQA architecture parameters by compiling
the same workload against a family of candidate configurations and scoring
each with the fast performance evaluator.  The paper's study sweeps the
array *width* (number of SLM/AOD columns) over {8, 16, 32, 64, 128} and
reports the compiled circuit depth; the optimum width differs per workload,
exposing the trade-off between in-row and cross-row parallelism.

Sweeps are batched through :mod:`repro.core.farm`: describe workloads as
picklable :class:`~repro.workloads.spec.WorkloadSpec` values and the grid of
``(workload, width, config axis, router options)`` cells fans out across a
process pool (``executor="process"``) or runs through the deterministic
serial oracle (``executor="reference"``).  Both executors produce
identical design points — the differential suite in ``tests/test_farm.py``
pins that.
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass, field
from typing import Any, Callable, Iterator, Mapping, Sequence

from repro.core.farm import (
    CompileFarm,
    FarmJob,
    FarmJobError,
    FarmOptions,
    FarmPolicy,
    PointMetrics,
)
from repro.exceptions import QPilotError
from repro.hardware.fpqa import FPQAConfig
from repro.utils.serialization import config_to_dict
from repro.workloads.spec import WorkloadSpec

_SWEEP_SCHEMA_VERSION = 1

#: Sweep-level keys that vary run-to-run or per-backend (wall clocks,
#: worker counts, executor choice) without changing the logical sweep, and
#: are stripped from canonical serialisations, mirroring
#: :data:`repro.utils.serialization.VOLATILE_METADATA_KEYS`.  The executor
#: oracle guarantees serial and parallel runs of the same grid are the
#: same logical sweep, so their canonical JSON must be byte-identical.
VOLATILE_SWEEP_META_KEYS = frozenset(
    {
        "wall_s",
        "max_workers",
        "executor",
        "requested_executor",
        # fault-tolerance counters: they describe how bumpy the road was,
        # not what was computed — a recovered fault-injected run must stay
        # canonically byte-identical to the fault-free reference run
        "degraded",
        "retries",
        "pool_respawns",
        "timeouts",
        "failed_jobs",
        "expired",
    }
)

#: Per-point sweep statuses (mirrors ``CompileFarm.job_reports``).
POINT_STATUSES = ("ok", "retried", "failed")

#: The paper's Fig. 14 width grid.
DEFAULT_WIDTHS: tuple[int, ...] = (8, 16, 32, 64, 128)


@dataclass
class DesignPoint:
    """One candidate architecture and its compiled metrics.

    Points carry only :class:`PointMetrics`: schedules stay in the worker.

    ``status`` reports the fault-tolerance outcome of the point's compile:
    ``ok`` (first attempt succeeded), ``retried`` (succeeded after
    retries) or ``failed`` (retry budget exhausted — ``metrics`` is then
    ``None`` and ``error`` holds the :class:`~repro.core.farm.FarmJobError`
    record).  Failed points stay *in* the sweep so grids keep their shape,
    but are excluded from :meth:`SweepResult.best` and
    :meth:`SweepResult.as_series`.

    ``job`` is the archive → cache-warming hook: a point records the grid
    cell that produced it (``digest``, serialised ``workload`` spec and
    ``options``) so an archived sweep can be replayed into the schedule
    store (:meth:`repro.service.CompileService.warm_from`) under the
    exact digests live traffic will request.
    """

    width: int
    config: FPQAConfig
    metrics: PointMetrics | None = None
    axes: dict[str, Any] = field(default_factory=dict)
    status: str = "ok"
    error: dict[str, Any] | None = None
    job: dict[str, Any] | None = None

    def __post_init__(self) -> None:
        if self.status not in POINT_STATUSES:
            raise QPilotError(
                f"unknown design-point status {self.status!r}; "
                f"expected one of {POINT_STATUSES}"
            )
        if self.status != "failed" and self.metrics is None:
            raise QPilotError("a compiled DesignPoint needs PointMetrics")

    @property
    def failed(self) -> bool:
        return self.status == "failed"

    @property
    def depth(self) -> int:
        return self.metrics.depth

    @property
    def error_rate(self) -> float:
        return self.metrics.error_rate

    @property
    def compile_time_s(self) -> float | None:
        return self.metrics.compile_time_s

    @property
    def num_two_qubit_gates(self) -> int:
        return self.metrics.num_two_qubit_gates

    @property
    def sabre_num_swaps(self) -> int | None:
        return self.metrics.sabre_num_swaps

    @property
    def spans(self):
        """Worker-side trace records of this point's compile.

        Populated only when the sweep ran with
        ``FarmOptions(trace=True)``; rides on :class:`PointMetrics` like
        ``compile_time_s``, so it crosses the worker boundary with the
        job but never enters archives (``metrics.to_dict()`` excludes
        it).
        """
        return self.metrics.spans if self.metrics is not None else None

    def summary(self) -> dict:
        if self.failed:
            data = {
                "status": "failed",
                "error": (self.error or {}).get("error_type"),
            }
        else:
            data = {
                "depth": self.depth,
                "error_rate": round(self.error_rate, 6),
                "2q_gates": self.num_two_qubit_gates,
            }
        data["width"] = self.width
        data.update(self.axes)
        return data

    def to_dict(self, *, canonical: bool = False) -> dict[str, Any]:
        data = {
            "width": self.width,
            "axes": dict(self.axes),
            "config": config_to_dict(self.config),
            "metrics": self.metrics.to_dict() if self.metrics is not None else None,
            "status": self.status,
        }
        if self.job is not None:
            # deterministic (digest + canonical spec/options), so it is
            # kept in canonical mode: warming from a canonical archive
            # must work too
            data["job"] = dict(self.job)
        if self.error is not None:
            data["error"] = dict(self.error)
        if canonical:
            # recovery must be invisible in the canonical view: a point
            # that succeeded after retries is the same logical point as
            # one that succeeded first try, and failure records keep only
            # their deterministic fields (tracebacks/attempt counts vary
            # with executor interleaving and policy, not with the sweep)
            if data["status"] == "retried":
                data["status"] = "ok"
            if self.error is not None:
                data["error"] = {
                    key: self.error.get(key)
                    for key in ("error_type", "message", "fault_key")
                }
        return data

    @classmethod
    def from_dict(cls, data: dict[str, Any]) -> "DesignPoint":
        metrics = data.get("metrics")
        return cls(
            width=int(data["width"]),
            config=FPQAConfig(**data["config"]),
            metrics=PointMetrics.from_dict(metrics) if metrics is not None else None,
            axes=dict(data.get("axes", {})),
            status=data.get("status", "ok"),
            error=data.get("error"),
            job=data.get("job"),
        )


#: Metric extractors understood by :meth:`SweepResult.best`.
_METRICS: dict[str, Callable[[DesignPoint], float]] = {
    "depth": lambda p: p.depth,
    "error_rate": lambda p: p.error_rate,
    "compile_time": lambda p: p.compile_time_s,
}


@dataclass
class SweepResult:
    """Result of sweeping a design-space grid for one or more workloads."""

    workload_name: str
    points: list[DesignPoint] = field(default_factory=list)
    meta: dict[str, Any] = field(default_factory=dict)

    @property
    def partial(self) -> bool:
        """True when any point failed — the sweep completed but has holes."""
        return any(point.failed for point in self.points)

    def failed_points(self) -> list[DesignPoint]:
        return [point for point in self.points if point.failed]

    def best(self, metric: str = "depth") -> DesignPoint:
        """Design point minimising ``metric``; ties go to the smallest width.

        Metrics: ``depth``, ``error_rate`` and ``compile_time``.  The
        smallest-width tie-break makes ``best`` deterministic and
        independent of sweep order (narrower arrays are the cheaper
        hardware, so they win a draw).  Failed points never compete: a
        partial sweep's optimum is the best *compiled* point.
        """
        candidates = [point for point in self.points if not point.failed]
        if not candidates:
            if self.points:
                raise QPilotError("every design point in the sweep failed")
            raise QPilotError("empty design-space sweep")
        extract = _METRICS.get(metric)
        if extract is None:
            raise QPilotError(
                f"unknown sweep metric {metric!r}; expected one of {sorted(_METRICS)}"
            )
        values = [extract(point) for point in candidates]
        if any(value is None for value in values):
            raise QPilotError(f"metric {metric!r} unavailable on some design points")
        return min(zip(values, candidates), key=lambda pair: (pair[0], pair[1].width))[1]

    def as_series(self) -> list[tuple[int, int]]:
        """(width, depth) pairs in sweep order — the Fig. 14 curves.

        Failed points have no depth and are skipped (the curve gets a
        hole, not a crash).
        """
        return [(p.width, p.depth) for p in self.points if not p.failed]

    def by_workload(self) -> dict[str, "SweepResult"]:
        """Split a multi-workload grid into one SweepResult per workload."""
        groups: dict[str, SweepResult] = {}
        for point in self.points:
            name = point.axes.get("workload", self.workload_name)
            groups.setdefault(name, SweepResult(name, meta=dict(self.meta))).points.append(point)
        return groups

    # -- serialisation (DSE trajectory archiving) -----------------------
    def to_dict(self, *, canonical: bool = False) -> dict[str, Any]:
        meta = {k: v for k, v in self.meta.items()}
        points = [point.to_dict(canonical=canonical) for point in self.points]
        if canonical:
            meta = {k: v for k, v in meta.items() if k not in VOLATILE_SWEEP_META_KEYS}
            for point in points:
                if point["metrics"] is not None:
                    point["metrics"]["compile_time_s"] = None
        return {
            "schema_version": _SWEEP_SCHEMA_VERSION,
            "workload_name": self.workload_name,
            "meta": meta,
            "points": points,
        }

    def to_json(self, *, indent: int | None = 2, canonical: bool = False) -> str:
        """JSON with canonical (sorted) key order, like the golden schedules.

        ``canonical=True`` additionally strips volatile wall-clock fields
        so that serialising the same logical sweep twice — or a
        round-trip of it — is byte-identical.
        """
        return json.dumps(self.to_dict(canonical=canonical), indent=indent, sort_keys=True)

    @classmethod
    def from_dict(cls, data: dict[str, Any]) -> "SweepResult":
        if data.get("schema_version") != _SWEEP_SCHEMA_VERSION:
            raise QPilotError(
                f"unsupported sweep schema version {data.get('schema_version')!r}"
            )
        return cls(
            workload_name=data.get("workload_name", "sweep"),
            points=[DesignPoint.from_dict(p) for p in data.get("points", [])],
            meta=dict(data.get("meta", {})),
        )

    @classmethod
    def from_json(cls, text: str) -> "SweepResult":
        return cls.from_dict(json.loads(text))


def _width_config(num_qubits: int, width: int, base_kwargs: dict, axis_kwargs: dict) -> FPQAConfig:
    return FPQAConfig.with_width(num_qubits, int(width), **{**base_kwargs, **axis_kwargs})


def sweep_grid(
    workloads: WorkloadSpec | Sequence[WorkloadSpec],
    *,
    widths: Sequence[int] = DEFAULT_WIDTHS,
    base_config_kwargs: Mapping[str, Any] | None = None,
    config_axes: Mapping[str, Sequence[Any]] | None = None,
    option_sets: Sequence[FarmOptions] | None = None,
    executor: str = "reference",
    max_workers: int | None = None,
    policy: FarmPolicy | None = None,
    name: str = "grid",
    stream: bool = False,
) -> SweepResult | Iterator[DesignPoint]:
    """Batched multi-dimensional design-space sweep through the compile farm.

    Generalises :func:`sweep_array_width` to a full grid:
    ``workloads × widths × config_axes × option_sets``.  ``config_axes``
    maps :class:`FPQAConfig` field names to candidate values (Cartesian
    product, e.g. ``{"two_qubit_fidelity": (0.99, 0.995)}``);
    ``option_sets`` is the router axis — one :class:`FarmOptions` per
    router variant.  Workload-side axes (gate factor, Pauli probability,
    graph density) are expressed as multiple :class:`WorkloadSpec` entries.

    Every grid cell becomes one :class:`FarmJob`; duplicate cells are
    memoised and ``executor="process"`` fans the rest across worker
    processes (``"thread"`` across threads).  Points appear in
    deterministic grid order (workload-major) regardless of executor.

    With ``stream=True`` the function returns an *iterator* of
    :class:`DesignPoint` values instead of a :class:`SweepResult`,
    yielding each point as its compile finishes (completion order on
    pooled executors) — grids too large to hold in memory flow through
    one point at a time.  Collect into a sweep later with
    ``SweepResult(name, points=list(iterator))`` if it does fit.

    ``policy`` configures the farm's fault tolerance
    (:class:`~repro.core.farm.FarmPolicy`: retries, backoff, per-job
    timeout, pool respawns).  A point whose job exhausts its retry
    budget arrives with ``status="failed"`` and no metrics instead of
    aborting the sweep; check ``SweepResult.partial``.
    """
    specs = [workloads] if isinstance(workloads, WorkloadSpec) else list(workloads)
    if not specs:
        raise QPilotError("sweep_grid needs at least one workload")
    base_kwargs = dict(base_config_kwargs or {})
    axes = {key: list(values) for key, values in (config_axes or {}).items()}
    options = list(option_sets) if option_sets else [FarmOptions()]
    axis_names = list(axes)
    axis_combos = list(itertools.product(*axes.values())) if axes else [()]

    jobs: list[FarmJob] = []
    point_axes: list[dict[str, Any]] = []
    widths_list = [int(w) for w in widths]
    for spec, width, combo, opts in itertools.product(specs, widths_list, axis_combos, options):
        axis_kwargs = dict(zip(axis_names, combo))
        config = _width_config(spec.num_qubits, width, base_kwargs, axis_kwargs)
        jobs.append(FarmJob(workload=spec, config=config, options=opts))
        cell = {"workload": spec.name, **axis_kwargs}
        if len(options) > 1 or opts.label != "default":
            cell["options"] = opts.label
        point_axes.append(cell)

    farm = CompileFarm(executor, max_workers=max_workers, policy=policy)

    def to_point(index: int, result: Any) -> DesignPoint:
        job = jobs[index]
        report = farm.job_reports.get(index, {})
        # the archive → warm hook: enough to rebuild this exact FarmJob
        # (and hence its store digest) from the serialised sweep alone
        job_record = {
            "digest": job.digest(),
            "workload": job.workload.to_dict(),
            "options": job.options.to_dict(),
        }
        if isinstance(result, FarmJobError):
            return DesignPoint(
                width=job.config.slm_cols,
                config=job.config,
                metrics=None,
                axes=point_axes[index],
                status="failed",
                error=result.to_dict(),
                job=job_record,
            )
        return DesignPoint(
            width=job.config.slm_cols,
            config=job.config,
            metrics=result,
            axes=point_axes[index],
            status=report.get("status", "ok"),
            job=job_record,
        )

    if stream:

        def generate() -> Iterator[DesignPoint]:
            for index, result in farm.iter_results(jobs):
                yield to_point(index, result)

        return generate()
    results = farm.run(jobs)
    points = [to_point(index, result) for index, result in enumerate(results)]
    meta = {
        "widths": widths_list,
        "workloads": [spec.name for spec in specs],
        **farm.last_stats,
    }
    return SweepResult(workload_name=name, points=points, meta=meta)


def sweep_array_width(
    workload: WorkloadSpec,
    *,
    widths: Sequence[int] = DEFAULT_WIDTHS,
    workload_name: str | None = None,
    base_config_kwargs: dict | None = None,
    executor: str = "reference",
    max_workers: int | None = None,
) -> SweepResult:
    """Compile one workload against FPQA arrays of different widths.

    Parameters
    ----------
    workload:
        The workload, batched through the compile farm (set
        ``executor="process"`` to parallelise).
    widths:
        Candidate column counts (the paper sweeps 8..128).
    """
    sweep = sweep_grid(
        workload,
        widths=widths,
        base_config_kwargs=base_config_kwargs,
        executor=executor,
        max_workers=max_workers,
        name=workload_name or workload.name,
    )
    for point in sweep.points:
        point.axes.pop("workload", None)
    return sweep


def architecture_search(
    workload: WorkloadSpec,
    *,
    widths: Sequence[int] = DEFAULT_WIDTHS,
    metric: str = "depth",
    workload_name: str | None = None,
    executor: str = "reference",
    max_workers: int | None = None,
) -> DesignPoint:
    """Convenience wrapper: sweep the widths and return the best design point."""
    sweep = sweep_array_width(
        workload,
        widths=widths,
        workload_name=workload_name,
        executor=executor,
        max_workers=max_workers,
    )
    return sweep.best(metric)
