"""Command-line front end of the compile service.

Usage (with ``PYTHONPATH=src`` or the package installed)::

    python -m repro.service compile --store /tmp/qpilot-store \
        --kind circuit --qubits 16 --gate-multiple 5 --width 8

    python -m repro.service sweep --store /tmp/qpilot-store \
        --kind qaoa --qubits 16 --edge-probability 0.3 --widths 4,8,16

    python -m repro.service warm --store /tmp/qpilot-store --sweep archive.json
    python -m repro.service stats --store /tmp/qpilot-store
    python -m repro.service clear --store /tmp/qpilot-store

``compile`` submits one request and reports whether it was served from
the content-addressed store or freshly routed; ``sweep`` streams one
request per width, printing each design point as it resolves.  Both
print service statistics afterwards (``--json`` for machine-readable
output).  ``warm`` replays an archived DSE trajectory
(``SweepResult.to_json`` output) into the store so live traffic finds it
hot, counting points warmed, already cached, skipped (failed points and
malformed job records) and failed to compile; ``stats`` reports entry
count and on-disk bytes.  ``--memory-entries`` sizes the in-process LRU
front tier and ``--compress`` gzips new disk entries (old entries stay
readable).

Overload knobs: ``--client-id``, ``--priority`` and
``--deadline-s`` attach serving metadata to compile/sweep requests
(quota accounting, priority lane, end-to-end budget);
``--max-dead-letters`` bounds the dead-letter list and
``--evict-lock-stale-s`` tunes the store's eviction-lock staleness
cutoff.  The stats output reports the overload counters (rejected /
shed / expired, breaker state and trips, dead-letter drops).

Untrusted circuits: ``--qasm FILE`` compiles/sweeps a
user-supplied OpenQASM 2.0 file through the service's hardened
ingestion boundary instead of a synthetic ``--kind`` workload (any
:data:`~repro.workloads.spec.WORKLOAD_KINDS` entry but ``qasm``), and
``--kind qec`` / ``--kind molecule`` (with ``--distance``/``--rounds``
and ``--molecule``) expose the surface-code and chemistry workloads.
Invalid QASM exits with status **2** and a typed one-line rejection
(error type, line, column) — never a traceback; valid uploads are
content-addressed so a repeat upload is a store hit.

Observability: ``compile``/``sweep --trace FILE`` runs the request under
a :class:`~repro.obs.tracing.Tracer` and writes the span tree as JSON;
``trace show FILE`` renders such a file flame-style; ``compile``/
``sweep --metrics [json|prom]`` dumps the service's metrics registry
after the command, and ``stats --metrics [json|prom]`` exposes a
store's registry (counters plus entry/byte gauges) in JSON or
Prometheus text format; ``--events FILE`` (or ``-`` for stderr)
attaches the JSON-lines structured event log for the run.
"""

from __future__ import annotations

import argparse
import json
import sys
from contextlib import nullcontext
from pathlib import Path
from typing import Callable, Sequence

from repro.core.dse import SweepResult
from repro.core.farm import FarmOptions
from repro.exceptions import InvalidCircuitError
from repro.obs.events import configure_event_log, remove_event_log
from repro.obs.tracing import Tracer, activate, format_trace
from repro.service.queue import CompileRequest
from repro.service.service import DEFAULT_MEMORY_ENTRIES, CompileService
from repro.service.store import ScheduleStore
from repro.utils.faults import FaultPlan
from repro.workloads.spec import WORKLOAD_KINDS, WorkloadSpec

#: Exit status for a typed ingestion rejection (invalid untrusted QASM).
EXIT_INVALID_CIRCUIT = 2


def _run_observed(
    args: argparse.Namespace, body: Callable[[argparse.Namespace], int]
) -> int:
    """Run a command body under the requested tracer / event log.

    ``--trace FILE`` activates a :class:`Tracer` for the whole command
    and writes the span tree as JSON afterwards (readable with
    ``trace show FILE``); ``--events FILE`` attaches the JSON-lines
    event-log handler for the duration (``-`` streams to stderr).
    """
    trace_path = getattr(args, "trace", None)
    events_path = getattr(args, "events", None)
    handler = None
    if events_path:
        handler = configure_event_log(None if events_path == "-" else events_path)
    tracer = Tracer() if trace_path else None
    try:
        with (activate(tracer) if tracer is not None else nullcontext()):
            code = body(args)
    finally:
        if handler is not None:
            remove_event_log(handler)
    if tracer is not None:
        Path(trace_path).write_text(
            json.dumps(tracer.to_dict(), indent=2, sort_keys=True) + "\n",
            encoding="utf-8",
        )
    return code


def _print_metrics(service: CompileService, mode: str) -> None:
    if mode == "prom":
        sys.stdout.write(service.metrics_prometheus())
    else:
        print(json.dumps(service.metrics_dict(), indent=2, sort_keys=True))


def _service_from_args(args: argparse.Namespace) -> CompileService:
    return CompileService(
        args.store,
        executor=args.executor,
        max_workers=args.jobs,
        memory_entries=args.memory_entries,
        compress=args.compress,
        max_dead_letters=getattr(args, "max_dead_letters", None),
        evict_lock_stale_s=getattr(args, "evict_lock_stale_s", None),
    )


def _comma_ints(text: str) -> tuple[int, ...]:
    return tuple(int(part) for part in text.split(",") if part)


def _fault_plan(args: argparse.Namespace) -> FaultPlan | None:
    """Fault plan from ``--faults`` JSON, else the QPILOT_FAULTS env preset."""
    if getattr(args, "faults", None):
        return FaultPlan.from_json(args.faults)
    return FaultPlan.from_env()


def _request_options(args: argparse.Namespace) -> FarmOptions:
    return FarmOptions(faults=_fault_plan(args))


def _add_workload_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--kind",
        choices=tuple(kind for kind in WORKLOAD_KINDS if kind != "qasm"),
        default="circuit",
        help="workload family (default: circuit)",
    )
    parser.add_argument(
        "--qasm",
        default=None,
        metavar="FILE",
        help="compile an untrusted OpenQASM 2.0 file instead of --kind "
        "(validated at the service's ingestion boundary; invalid input "
        f"exits {EXIT_INVALID_CIRCUIT} with a typed rejection)",
    )
    parser.add_argument("--qubits", type=int, default=16, help="number of data qubits")
    parser.add_argument("--seed", type=int, default=2024, help="workload RNG seed")
    parser.add_argument(
        "--gate-multiple", type=int, default=5, help="[circuit] CX gates per qubit"
    )
    parser.add_argument(
        "--pauli-probability", type=float, default=0.3, help="[qsim] per-qubit Pauli weight"
    )
    parser.add_argument(
        "--num-strings", type=int, default=20, help="[qsim] number of Pauli strings"
    )
    parser.add_argument(
        "--edge-probability", type=float, default=0.3, help="[qaoa] G(n, p) edge probability"
    )
    parser.add_argument(
        "--distance", type=int, default=3, help="[qec] surface-code distance"
    )
    parser.add_argument(
        "--rounds", type=int, default=1, help="[qec] syndrome-extraction rounds"
    )
    parser.add_argument(
        "--molecule",
        default="H2",
        help="[molecule] Table 1 molecule name (H2, LiH_UCCSD, H2O, BeH2)",
    )


def _workload_from_args(args: argparse.Namespace, service: CompileService) -> WorkloadSpec:
    if args.qasm:
        text = Path(args.qasm).read_text(encoding="utf-8")
        return service.ingest_qasm(text)
    if args.kind == "circuit":
        return WorkloadSpec.random_circuit(args.qubits, args.gate_multiple, seed=args.seed)
    if args.kind == "qsim":
        return WorkloadSpec.qsim(
            args.qubits, args.pauli_probability, num_strings=args.num_strings, seed=args.seed
        )
    if args.kind == "qec":
        return WorkloadSpec.qec_surface_code(args.distance, rounds=args.rounds)
    if args.kind == "molecule":
        return WorkloadSpec.molecule(args.molecule)
    return WorkloadSpec.qaoa_random_graph(args.qubits, args.edge_probability, seed=args.seed)


def _print_invalid(exc: InvalidCircuitError, args: argparse.Namespace) -> int:
    """Report a typed ingestion rejection (never a traceback)."""
    if args.json:
        payload = {
            "error": {
                "type": type(exc).__name__,
                "message": str(exc),
                "line": exc.line,
                "column": exc.column,
            }
        }
        print(json.dumps(payload, indent=2, sort_keys=True))
    else:
        where = "" if exc.line is None else f" (line {exc.line}, column {exc.column})"
        print(f"rejected: {type(exc).__name__}{where}: {exc}", file=sys.stderr)
    return EXIT_INVALID_CIRCUIT


def _stats_dict(service: CompileService) -> dict:
    stats = service.stats.to_dict()
    stats["store"] = service.store.stats.to_dict()
    return stats


def _print_stats(service: CompileService) -> None:
    stats = _stats_dict(service)
    hit_rate = stats["cache_hit_rate"]
    print(
        f"service: {stats['completed']} completed, "
        f"{stats['cache_hits']} cache hits / {stats['cache_misses']} misses "
        f"(hit rate {hit_rate if hit_rate is None else round(hit_rate, 3)}), "
        f"{stats['farm_dispatches']} farm dispatches"
    )
    print(
        f"overload: {stats['rejected']} rejected, {stats['shed']} shed, "
        f"{stats['expired']} expired, breaker {stats['breaker_state']} "
        f"({stats['breaker_trips']} trips), "
        f"{stats['dead_letters_dropped']} dead letters dropped"
    )


def _response_dict(response) -> dict:
    m = response.metrics
    return {
        "source": response.source,
        "digest": response.digest,
        "router": response.router,
        "width": response.schedule["config"]["slm_cols"],
        "depth": m.depth,
        "error_rate": m.error_rate,
    }


def _cmd_compile(args: argparse.Namespace) -> int:
    return _run_observed(args, _compile_body)


def _compile_body(args: argparse.Namespace) -> int:
    service = _service_from_args(args)
    try:
        workload = _workload_from_args(args, service)
    except InvalidCircuitError as exc:
        return _print_invalid(exc, args)
    request = CompileRequest.for_width(
        workload,
        args.width,
        options=_request_options(args),
        client_id=args.client_id,
        priority=args.priority,
        deadline_s=args.deadline_s,
    )
    response = service.compile(request)
    if args.metrics:
        _print_metrics(service, args.metrics)
        return 0
    if args.json:
        payload = _response_dict(response)
        payload["stats"] = _stats_dict(service)
        print(json.dumps(payload, indent=2, sort_keys=True))
        return 0
    m = response.metrics
    print(
        f"{response.source}: {request.workload.name} @ width {args.width} "
        f"[{response.router}] depth={m.depth} error_rate={m.error_rate:.4f} "
        f"digest={response.digest[:12]}"
    )
    _print_stats(service)
    return 0


def _cmd_sweep(args: argparse.Namespace) -> int:
    return _run_observed(args, _sweep_body)


def _sweep_body(args: argparse.Namespace) -> int:
    service = _service_from_args(args)
    try:
        workload = _workload_from_args(args, service)
    except InvalidCircuitError as exc:
        return _print_invalid(exc, args)
    options = _request_options(args)
    requests = [
        CompileRequest.for_width(
            workload,
            width,
            options=options,
            client_id=args.client_id,
            priority=args.priority,
            deadline_s=args.deadline_s,
        )
        for width in args.widths
    ]
    if args.metrics:
        for _ in service.stream(requests):
            pass
        _print_metrics(service, args.metrics)
        return 1 if service.queue.dead_letters else 0
    if args.json:
        payload = {"points": [_response_dict(r) for r in service.stream(requests)]}
        payload["failed"] = [
            {"digest": t.digest, "error_type": t.error_type, "error": t.error}
            for t in service.queue.dead_letters
        ]
        payload["stats"] = _stats_dict(service)
        print(json.dumps(payload, indent=2, sort_keys=True))
        return 1 if service.queue.dead_letters else 0
    for response in service.stream(requests):
        m = response.metrics
        print(
            f"{response.source}: width {response.schedule['config']['slm_cols']} "
            f"depth={m.depth} error_rate={m.error_rate:.4f}"
        )
    for ticket in service.queue.dead_letters:
        print(
            f"failed: {ticket.request.workload.name} digest={ticket.digest[:12]} "
            f"({ticket.error_type}): {ticket.error}"
        )
    _print_stats(service)
    return 1 if service.queue.dead_letters else 0


def _cmd_warm(args: argparse.Namespace) -> int:
    sweep = SweepResult.from_json(Path(args.sweep).read_text(encoding="utf-8"))
    service = _service_from_args(args)
    counts = service.warm_from(sweep)
    if args.json:
        payload = dict(counts)
        payload["stats"] = _stats_dict(service)
        print(json.dumps(payload, indent=2, sort_keys=True))
        return 0
    print(
        f"warm: {counts['points']} points, {counts['warmed']} warmed, "
        f"{counts['already']} already cached, {counts['skipped']} skipped, "
        f"{counts['failed']} failed"
    )
    _print_stats(service)
    return 0


def _cmd_stats(args: argparse.Namespace) -> int:
    store = ScheduleStore(args.store)
    entries = len(store)
    disk_bytes = store.disk_bytes()
    if args.metrics:
        # registry exposition: the lifetime counters of *this* store
        # object are zero (it was just opened), but the disk gauges make
        # the store inspectable by any Prometheus-speaking scraper
        store.registry.gauge("store_disk_entries").set(entries)
        store.registry.gauge("store_disk_bytes").set(disk_bytes)
        if args.metrics == "prom":
            sys.stdout.write(store.registry.to_prometheus())
        else:
            print(json.dumps(store.registry.to_dict(), indent=2, sort_keys=True))
        return 0
    data = {
        "root": str(store.root),
        "entries": entries,
        "disk_bytes": disk_bytes,
    }
    if args.json:
        print(json.dumps(data, indent=2, sort_keys=True))
    else:
        print(f"store {data['root']}: {data['entries']} entries, {data['disk_bytes']} bytes")
    return 0


def _cmd_trace_show(args: argparse.Namespace) -> int:
    """Render a ``--trace`` JSON file flame-style (durations, % of root)."""
    try:
        document = json.loads(Path(args.file).read_text(encoding="utf-8"))
    except (OSError, ValueError) as exc:
        print(f"cannot read trace file {args.file}: {exc}", file=sys.stderr)
        return 1
    print(format_trace(document))
    return 0


def _cmd_clear(args: argparse.Namespace) -> int:
    removed = ScheduleStore(args.store).clear()
    print(f"removed {removed} entries")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro.service", description=__doc__.splitlines()[0]
    )
    commands = parser.add_subparsers(dest="command", required=True)

    compile_cmd = commands.add_parser("compile", help="compile one request through the service")
    _add_workload_arguments(compile_cmd)
    compile_cmd.add_argument("--width", type=int, default=8, help="array width (SLM columns)")
    compile_cmd.set_defaults(func=_cmd_compile)

    sweep_cmd = commands.add_parser("sweep", help="stream a width sweep through the service")
    _add_workload_arguments(sweep_cmd)
    sweep_cmd.add_argument(
        "--widths",
        type=_comma_ints,
        default=(4, 8, 16),
        help="comma-separated array widths (default: 4,8,16)",
    )
    sweep_cmd.set_defaults(func=_cmd_sweep)

    warm_cmd = commands.add_parser(
        "warm", help="pre-warm a store from an archived DSE trajectory"
    )
    warm_cmd.add_argument(
        "--sweep", required=True, help="SweepResult JSON file (core.dse sweep archive)"
    )
    warm_cmd.set_defaults(func=_cmd_warm)

    stats_cmd = commands.add_parser("stats", help="inspect a schedule store")
    stats_cmd.add_argument(
        "--metrics",
        choices=("json", "prom"),
        default=None,
        help="dump the store's metrics registry (json or Prometheus text)",
    )
    stats_cmd.set_defaults(func=_cmd_stats)

    clear_cmd = commands.add_parser("clear", help="empty a schedule store")
    clear_cmd.set_defaults(func=_cmd_clear)

    trace_cmd = commands.add_parser("trace", help="work with --trace span files")
    trace_sub = trace_cmd.add_subparsers(dest="trace_command", required=True)
    trace_show = trace_sub.add_parser("show", help="render a trace file flame-style")
    trace_show.add_argument("file", help="JSON file written by compile/sweep --trace")
    trace_show.set_defaults(func=_cmd_trace_show)

    for sub in (compile_cmd, sweep_cmd, warm_cmd, stats_cmd, clear_cmd):
        sub.add_argument("--store", required=True, help="schedule-store directory")
        sub.add_argument("--json", action="store_true", help="machine-readable output")
    for sub in (compile_cmd, sweep_cmd, warm_cmd):
        sub.add_argument(
            "--executor",
            choices=("thread", "process", "reference"),
            default="thread",
            help="farm backend for cache misses (default: thread)",
        )
        sub.add_argument("--jobs", type=int, default=None, help="farm pool width")
        sub.add_argument(
            "--faults",
            default=None,
            help="JSON FaultPlan for chaos testing (default: QPILOT_FAULTS env)",
        )
        sub.add_argument(
            "--memory-entries",
            type=int,
            default=DEFAULT_MEMORY_ENTRIES,
            help=f"in-process LRU tier size (default: {DEFAULT_MEMORY_ENTRIES})",
        )
        sub.add_argument(
            "--compress", action="store_true", help="gzip new store entries on disk"
        )
        sub.add_argument(
            "--max-dead-letters",
            type=int,
            default=None,
            help="bound on the failed-ticket dead-letter list (default: 256)",
        )
        sub.add_argument(
            "--evict-lock-stale-s",
            type=float,
            default=None,
            help="age (s) past which a store eviction lock is broken (default: 30)",
        )
    for sub in (compile_cmd, sweep_cmd):
        sub.add_argument(
            "--trace",
            default=None,
            metavar="FILE",
            help="trace the command and write the span tree as JSON to FILE",
        )
        sub.add_argument(
            "--metrics",
            choices=("json", "prom"),
            default=None,
            help="print the service metrics registry instead of the normal output",
        )
        sub.add_argument(
            "--events",
            default=None,
            metavar="FILE",
            help="write JSON-lines structured events to FILE ('-' for stderr)",
        )
        sub.add_argument(
            "--client-id",
            default="anonymous",
            help="client identity for per-client quota accounting",
        )
        sub.add_argument(
            "--priority",
            default=None,
            help="priority lane (interactive/batch/background; default: interactive)",
        )
        sub.add_argument(
            "--deadline-s",
            type=float,
            default=None,
            help="end-to-end deadline budget in seconds (default: none)",
        )
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
