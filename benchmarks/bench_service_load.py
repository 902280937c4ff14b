"""Zipf-replay load benchmark of the compile service (serving trajectory).

The compile-speed trajectory (``bench_compile_speed.py``) keeps the
*compiler* fast; this module keeps the *serving layer* fast under a
realistic traffic shape.  Real request streams are heavily skewed — a
few hot workloads dominate — so the benchmark replays a seeded
Zipf-distributed stream of repeat requests (default 10,000 requests over
48 unique jobs) through :class:`repro.service.CompileService` via the
streaming path, and appends the serving picture to the
``BENCH_service.json`` trajectory file at the repository root.

The store is deliberately sized *below* the unique-universe size
(``--max-entries`` < ``--unique``) with a smaller in-memory front tier
(``--memory-entries``), so one replay exercises all three outcomes:
memory-tier hits (zero disk I/O), disk-tier hits, and misses that
recompile — plus LRU evictions on both tiers.

Run it either way:

    PYTHONPATH=src python benchmarks/bench_service_load.py
    PYTHONPATH=src python -m pytest benchmarks/bench_service_load.py -s

Reading ``BENCH_service.json``: one ``entries`` element per run.  Each
entry records the replay shape (``requests``, ``unique``, ``zipf_s``,
``seed``), per-tier hit rates over all requests (``hit_rates`` —
``memory`` + ``disk`` + ``miss`` + ``coalesced`` sums to 1.0),
per-response latency percentiles in milliseconds (``latency_ms`` —
p50/p99/mean/max of the inter-yield gaps on the stream), eviction counts
for both tiers, the final on-disk footprint (``store_disk_bytes``,
``store_entries``) and the full store/service counter dumps.
``headline_memory_hit_rate`` and ``headline_p99_ms`` are the two numbers
a regression should move first.

The **overload scenario** (``--scenario overload``, PR 8) replays the
same Zipf stream through the queued path at an arrival rate ~5× the
service rate (``--arrival-per-tick`` submissions per
``process_batch(--batch-limit)`` tick), with mixed priority lanes,
per-client quotas, deadlines on a fraction of requests, a tight queue
bound and the circuit breaker armed.  It appends a ``scenario:
"overload"`` entry whose headline numbers are ``headline_shed_rate``
(rejected + shed + expired over total) and ``headline_overload_p99_ms``
(p99 *sojourn* — submit to resolve — of the requests that completed).
Attach a fault plan (``--faults`` / ``QPILOT_FAULTS``) with
``stall-dispatch`` rules to force breaker trips and deadline expiries —
the CI chaos smoke does exactly that.
"""

from __future__ import annotations

import argparse
import json
import random
import tempfile
import time
from dataclasses import replace
from pathlib import Path

from repro.core.farm import FarmOptions, WorkloadSpec
from repro.exceptions import (
    AdmissionError,
    CircuitOpenError,
    DeadlineExceeded,
    LoadShedError,
)
from repro.obs import TrajectoryRecorder
from repro.service import (
    BreakerPolicy,
    CompileRequest,
    CompileService,
    QueuePolicy,
)
from repro.utils.faults import FaultPlan

REPO_ROOT = Path(__file__).resolve().parent.parent
TRAJECTORY_PATH = REPO_ROOT / "BENCH_service.json"

#: Default replay shape: 10k requests over 48 unique jobs, Zipf s=1.1 —
#: the head job alone draws ~20% of the traffic, the tail is cold.
NUM_REQUESTS = 10_000
NUM_UNIQUE = 48
ZIPF_S = 1.1
SEED = 7
NUM_QUBITS = 8
WIDTH = 4

#: Store sizing: max_entries < unique forces disk evictions and
#: re-misses on the cold tail; memory_entries < max_entries keeps the
#: disk tier visible (a front tier covering the whole universe would
#: collapse every repeat into a memory hit).
MEMORY_ENTRIES = 32
MAX_ENTRIES = 40
CHUNK_SIZE = 64

#: Overload-scenario shape: ~5× overload (10 arrivals per tick against a
#: service rate of 2 unique compiles per tick), a bounded queue with the
#: high-water mark below the admission wall, and a breaker that reopens
#: fast enough to probe within one run.  The unique universe must exceed
#: ``MAX_DEPTH`` — coalescing bounds queue depth by the number of
#: distinct cold keys, so a small universe can never fill the queue.
OVERLOAD_REQUESTS = 600
OVERLOAD_UNIQUE = 96
ARRIVAL_PER_TICK = 10
BATCH_LIMIT = 2
MAX_DEPTH = 24
MAX_PENDING_PER_CLIENT = 8
SHED_HIGH_WATER = 16
BREAKER_THRESHOLD = 5
BREAKER_RESET_S = 0.2
DEADLINE_S = 2.0
DEADLINE_FRACTION = 0.5
WARM_HEAD = 8

#: Lane mix of the overload stream (seeded weighted choice).
LANES = ("interactive", "batch", "background")
LANE_WEIGHTS = (0.6, 0.3, 0.1)
NUM_CLIENTS = 8


def build_universe(
    unique: int = NUM_UNIQUE, *, num_qubits: int = NUM_QUBITS, width: int = WIDTH
) -> list[CompileRequest]:
    """The unique-request universe: three workload families, varied seeds.

    Every request is distinct (distinct workload fingerprint => distinct
    digest), small enough that a cache miss costs milliseconds — the
    interesting numbers are the serving-tier ones, not the compiles.
    """
    requests: list[CompileRequest] = []
    for index in range(unique):
        seed = 1_000 + index
        family = index % 3
        if family == 0:
            spec = WorkloadSpec.random_circuit(num_qubits, 3, seed=seed)
        elif family == 1:
            spec = WorkloadSpec.qsim(num_qubits, 0.3, num_strings=8, seed=seed)
        else:
            spec = WorkloadSpec.qaoa_random_graph(num_qubits, 0.4, seed=seed)
        requests.append(CompileRequest.for_width(spec, width))
    return requests


def zipf_ranks(num_requests: int, unique: int, *, s: float, seed: int) -> list[int]:
    """Seeded Zipf-distributed rank stream: P(rank) ∝ 1 / (rank + 1)^s."""
    rng = random.Random(seed)
    weights = [1.0 / (rank + 1) ** s for rank in range(unique)]
    return rng.choices(range(unique), weights=weights, k=num_requests)


def _percentile(sorted_values: list[float], q: float) -> float:
    """Nearest-rank percentile of an already-sorted sample."""
    if not sorted_values:
        return 0.0
    index = min(len(sorted_values) - 1, max(0, round(q * (len(sorted_values) - 1))))
    return sorted_values[index]


def run_load_replay(
    *,
    num_requests: int = NUM_REQUESTS,
    unique: int = NUM_UNIQUE,
    zipf_s: float = ZIPF_S,
    seed: int = SEED,
    num_qubits: int = NUM_QUBITS,
    memory_entries: int | None = MEMORY_ENTRIES,
    max_entries: int | None = MAX_ENTRIES,
    compress: bool = False,
    chunk_size: int = CHUNK_SIZE,
    executor: str = "reference",
    store_dir: str | Path | None = None,
    record: bool = True,
) -> dict:
    """Replay the Zipf stream through a fresh service; append the entry."""
    universe = build_universe(unique, num_qubits=num_qubits)
    ranks = zipf_ranks(num_requests, unique, s=zipf_s, seed=seed)

    def replay(service: CompileService) -> tuple[list[float], float]:
        """Stream the whole request sequence; return inter-yield gaps."""
        stream = service.stream(
            (universe[rank] for rank in ranks), chunk_size=chunk_size
        )
        latencies: list[float] = []
        start = time.perf_counter()
        mark = start
        for _ in stream:
            now = time.perf_counter()
            latencies.append(now - mark)
            mark = now
        return latencies, time.perf_counter() - start

    def measure(root: str | Path) -> dict:
        from repro.service.store import ScheduleStore

        store = ScheduleStore(
            root,
            max_entries=max_entries,
            memory_entries=memory_entries,
            compress=compress,
        )
        service = CompileService(store, executor=executor)
        latencies, elapsed = replay(service)
        stats = store.stats
        served = len(latencies)
        lat_sorted = sorted(latencies)
        lat_ms = lambda s: round(s * 1_000, 4)  # noqa: E731
        total = max(1, num_requests)
        coalesced = num_requests - stats.lookups
        return {
            "requests": num_requests,
            "unique": unique,
            "zipf_s": zipf_s,
            "seed": seed,
            "num_qubits": num_qubits,
            "width": WIDTH,
            "memory_entries": memory_entries,
            "max_entries": max_entries,
            "compress": compress,
            "chunk_size": chunk_size,
            "executor": executor,
            "served": served,
            "elapsed_s": round(elapsed, 6),
            "latency_ms": {
                "p50": lat_ms(_percentile(lat_sorted, 0.50)),
                "p99": lat_ms(_percentile(lat_sorted, 0.99)),
                "mean": lat_ms(sum(latencies) / served) if served else 0.0,
                "max": lat_ms(lat_sorted[-1]) if lat_sorted else 0.0,
            },
            "hit_rates": {
                "memory": round(stats.memory_hits / total, 6),
                "disk": round(stats.disk_hits / total, 6),
                "miss": round(stats.misses / total, 6),
                "coalesced": round(coalesced / total, 6),
            },
            "evictions": {
                "disk": stats.evictions,
                "memory": stats.memory_evictions,
            },
            "store_entries": len(store),
            "store_disk_bytes": store.disk_bytes(),
            "store": stats.to_dict(),
            "service": {
                key: service.stats.to_dict()[key]
                for key in (
                    "requests",
                    "coalesced",
                    "cache_hit_rate",
                    "farm_dispatches",
                    "completed",
                    "throughput_rps",
                )
            },
        }

    if store_dir is not None:
        entry = measure(store_dir)
    else:
        with tempfile.TemporaryDirectory(prefix="qpilot-bench-load-") as tmp:
            entry = measure(tmp)
    entry["headline_memory_hit_rate"] = entry["hit_rates"]["memory"]
    entry["headline_p99_ms"] = entry["latency_ms"]["p99"]
    if record:
        TrajectoryRecorder(TRAJECTORY_PATH, "service_load").record(entry)
    return entry


def run_overload_replay(
    *,
    num_requests: int = OVERLOAD_REQUESTS,
    unique: int = OVERLOAD_UNIQUE,
    zipf_s: float = ZIPF_S,
    seed: int = SEED,
    num_qubits: int = NUM_QUBITS,
    arrival_per_tick: int = ARRIVAL_PER_TICK,
    batch_limit: int = BATCH_LIMIT,
    max_depth: int = MAX_DEPTH,
    max_pending_per_client: int = MAX_PENDING_PER_CLIENT,
    shed_high_water: int = SHED_HIGH_WATER,
    breaker_threshold: int = BREAKER_THRESHOLD,
    breaker_reset_s: float = BREAKER_RESET_S,
    deadline_s: float = DEADLINE_S,
    deadline_fraction: float = DEADLINE_FRACTION,
    warm_head: int = WARM_HEAD,
    faults: FaultPlan | None = None,
    executor: str = "reference",
    store_dir: str | Path | None = None,
    record: bool = True,
) -> dict:
    """Replay the Zipf stream at ~5× overload through the queued path.

    Per tick, ``arrival_per_tick`` submissions hit the bounded queue and
    one ``process_batch(batch_limit)`` drains it — arrival rate far above
    service rate, so admission control, shedding, deadlines and the
    breaker all engage.  The head of the universe is pre-warmed
    fault-free, so warm keys keep serving while the breaker is open.
    Ends with a full drain: every submission reaches a terminal state
    (the no-indefinite-blocking invariant), then classifies each by its
    typed cause.
    """
    universe = build_universe(unique, num_qubits=num_qubits)
    ranks = zipf_ranks(num_requests, unique, s=zipf_s, seed=seed)
    rng = random.Random(seed + 1)
    options = FarmOptions(faults=faults)

    def measure(root: str | Path) -> dict:
        from repro.service.store import ScheduleStore

        store = ScheduleStore(root, memory_entries=MEMORY_ENTRIES)
        # pre-warm the hot head fault-free: while the breaker is open
        # these keys must still serve from the store
        warm_service = CompileService(store, executor=executor)
        for _ in warm_service.stream(universe[:warm_head]):
            pass
        service = CompileService(
            store,
            executor=executor,
            batch_size=batch_limit,
            queue_policy=QueuePolicy(
                max_depth=max_depth,
                max_pending_per_client=max_pending_per_client,
                shed_high_water=shed_high_water,
            ),
            breaker=BreakerPolicy(
                failure_threshold=breaker_threshold,
                reset_timeout_s=breaker_reset_s,
                seed=seed,
            ),
        )
        submissions: list[tuple] = []  # (ticket, submit perf_counter)
        unresolved: list[tuple] = []
        sojourns: list[float] = []
        rejected_at_submit = 0

        def harvest(now: float) -> None:
            still = []
            for ticket, t_submit in unresolved:
                if ticket.done:
                    sojourns.append(now - t_submit)
                elif not ticket.failed:
                    still.append((ticket, t_submit))
            unresolved[:] = still

        start = time.perf_counter()
        index = 0
        while index < len(ranks):
            for _ in range(min(arrival_per_tick, len(ranks) - index)):
                rank = ranks[index]
                index += 1
                request = replace(
                    universe[rank],
                    options=options,
                    client_id=f"client-{index % NUM_CLIENTS}",
                    priority=rng.choices(LANES, weights=LANE_WEIGHTS)[0],
                    deadline_s=(
                        deadline_s if rng.random() < deadline_fraction else None
                    ),
                )
                try:
                    ticket = service.submit(request)
                except AdmissionError:
                    rejected_at_submit += 1
                    continue
                now = time.perf_counter()
                submissions.append((ticket, now))
                unresolved.append((ticket, now))
            service.process_batch(batch_limit)
            harvest(time.perf_counter())
        # the drain IS the no-indefinite-blocking invariant: every queued
        # submission reaches a terminal state in bounded batches
        while service.queue.depth:
            service.process_batch(batch_limit)
            harvest(time.perf_counter())
        harvest(time.perf_counter())
        elapsed = time.perf_counter() - start

        outcomes = {"completed": 0, "rejected": rejected_at_submit, "shed": 0,
                    "expired": 0, "failed": 0}
        for ticket, _ in submissions:
            if ticket.done:
                outcomes["completed"] += 1
            elif isinstance(ticket.cause, LoadShedError):
                outcomes["shed"] += 1
            elif (
                isinstance(ticket.cause, DeadlineExceeded)
                or ticket.error_type == "DeadlineExceeded"
            ):
                outcomes["expired"] += 1
            elif isinstance(ticket.cause, CircuitOpenError):
                outcomes["rejected"] += 1
            else:
                outcomes["failed"] += 1
        assert sum(outcomes.values()) == num_requests, "every submission terminal"

        stats = service.stats
        sojourn_sorted = sorted(sojourns)
        lat_ms = lambda s: round(s * 1_000, 4)  # noqa: E731
        shed_rate = (
            outcomes["rejected"] + outcomes["shed"] + outcomes["expired"]
        ) / max(1, num_requests)
        return {
            "scenario": "overload",
            "requests": num_requests,
            "unique": unique,
            "zipf_s": zipf_s,
            "seed": seed,
            "num_qubits": num_qubits,
            "width": WIDTH,
            "executor": executor,
            "arrival_per_tick": arrival_per_tick,
            "batch_limit": batch_limit,
            "queue_policy": {
                "max_depth": max_depth,
                "max_pending_per_client": max_pending_per_client,
                "shed_high_water": shed_high_water,
            },
            "breaker_policy": {
                "failure_threshold": breaker_threshold,
                "reset_timeout_s": breaker_reset_s,
            },
            "deadline_s": deadline_s,
            "deadline_fraction": deadline_fraction,
            "warm_head": warm_head,
            "faults": None if faults is None else faults.to_dict(),
            "elapsed_s": round(elapsed, 6),
            "outcomes": outcomes,
            "sojourn_ms": {
                "p50": lat_ms(_percentile(sojourn_sorted, 0.50)),
                "p99": lat_ms(_percentile(sojourn_sorted, 0.99)),
                "mean": lat_ms(sum(sojourns) / len(sojourns)) if sojourns else 0.0,
                "max": lat_ms(sojourn_sorted[-1]) if sojourn_sorted else 0.0,
            },
            "breaker_trips": stats.breaker_trips,
            "breaker_state": stats.breaker_state,
            "service": {
                key: stats.to_dict()[key]
                for key in (
                    "requests",
                    "coalesced",
                    "cache_hits",
                    "cache_misses",
                    "cache_hit_rate",
                    "farm_dispatches",
                    "completed",
                    "rejected",
                    "shed",
                    "expired",
                    "failed_jobs",
                    "dead_letters_dropped",
                    "lane_depths",
                )
            },
            "store": store.stats.to_dict(),
            "headline_shed_rate": round(shed_rate, 6),
            "headline_overload_p99_ms": lat_ms(_percentile(sojourn_sorted, 0.99)),
        }

    if store_dir is not None:
        entry = measure(store_dir)
    else:
        with tempfile.TemporaryDirectory(prefix="qpilot-bench-overload-") as tmp:
            entry = measure(tmp)
    if record:
        TrajectoryRecorder(TRAJECTORY_PATH, "service_load").record(entry)
    return entry


def _print_overload_entry(entry: dict) -> None:
    outcomes = entry["outcomes"]
    sojourn = entry["sojourn_ms"]
    print(
        f"overload: {entry['requests']} requests over {entry['unique']} unique "
        f"({entry['arrival_per_tick']}/tick vs batch {entry['batch_limit']}) "
        f"in {entry['elapsed_s']:.3f}s"
    )
    print(
        f"outcomes: {outcomes['completed']} completed, {outcomes['rejected']} rejected, "
        f"{outcomes['shed']} shed, {outcomes['expired']} expired, "
        f"{outcomes['failed']} failed (shed rate {entry['headline_shed_rate']:.3f})"
    )
    print(
        f"sojourn: p50 {sojourn['p50']:.3f}ms, p99 {sojourn['p99']:.3f}ms, "
        f"max {sojourn['max']:.3f}ms; breaker {entry['breaker_state']} "
        f"({entry['breaker_trips']} trips)"
    )
    print(f"trajectory: {TRAJECTORY_PATH}")


def test_service_overload_replay():
    """Pytest entry point: a smaller overload replay, invariant checks."""
    entry = run_overload_replay(num_requests=300)
    _print_overload_entry(entry)
    outcomes = entry["outcomes"]
    assert sum(outcomes.values()) == entry["requests"]
    assert outcomes["completed"] > 0, "overload must not starve everything"
    assert (
        outcomes["rejected"] + outcomes["shed"] > 0
    ), "5x overload never engaged admission control or shedding?"
    assert 0.0 < entry["headline_shed_rate"] < 1.0
    assert entry["headline_overload_p99_ms"] >= entry["sojourn_ms"]["p50"] >= 0
    document = json.loads(TRAJECTORY_PATH.read_text())
    assert document["entries"][-1]["scenario"] == "overload"


def _print_entry(entry: dict) -> None:
    rates = entry["hit_rates"]
    lat = entry["latency_ms"]
    print(
        f"replay: {entry['requests']} requests over {entry['unique']} unique "
        f"(zipf s={entry['zipf_s']}, seed={entry['seed']}) in {entry['elapsed_s']:.3f}s"
    )
    print(
        f"tiers: memory {rates['memory']:.3f}, disk {rates['disk']:.3f}, "
        f"miss {rates['miss']:.3f}, coalesced {rates['coalesced']:.3f}"
    )
    print(
        f"latency: p50 {lat['p50']:.4f}ms, p99 {lat['p99']:.4f}ms, "
        f"mean {lat['mean']:.4f}ms, max {lat['max']:.4f}ms"
    )
    print(
        f"evictions: disk {entry['evictions']['disk']}, "
        f"memory {entry['evictions']['memory']}; "
        f"store: {entry['store_entries']} entries, "
        f"{entry['store_disk_bytes']} bytes on disk"
    )
    print(f"trajectory: {TRAJECTORY_PATH}")


def test_service_load_replay():
    """Pytest entry point: a smaller replay, full trajectory sanity check."""
    entry = run_load_replay(num_requests=2_000)
    _print_entry(entry)
    document = json.loads(TRAJECTORY_PATH.read_text())
    assert document["entries"], "trajectory file must contain at least one entry"
    last = document["entries"][-1]
    rates = last["hit_rates"]
    assert rates["memory"] > 0, "memory tier never hit — front tier broken?"
    assert rates["disk"] > 0, "disk tier never hit — sizing no longer forces it?"
    assert rates["miss"] > 0
    assert abs(sum(rates.values()) - 1.0) < 1e-6
    assert last["latency_ms"]["p99"] >= last["latency_ms"]["p50"] >= 0
    assert last["evictions"]["disk"] > 0 and last["evictions"]["memory"] > 0
    assert last["store_entries"] <= last["max_entries"]
    assert last["store_disk_bytes"] > 0
    assert last["served"] <= last["requests"]


def _parse_args() -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--scenario",
        choices=("replay", "overload"),
        default="replay",
        help="replay = streaming Zipf load; overload = 5x queued overload (default: replay)",
    )
    parser.add_argument(
        "--faults",
        default=None,
        help="[overload] JSON FaultPlan (default: QPILOT_FAULTS env)",
    )
    parser.add_argument(
        "--arrival-per-tick", type=int, default=ARRIVAL_PER_TICK,
        help=f"[overload] submissions per service tick (default: {ARRIVAL_PER_TICK})",
    )
    parser.add_argument(
        "--batch-limit", type=int, default=BATCH_LIMIT,
        help=f"[overload] unique requests drained per tick (default: {BATCH_LIMIT})",
    )
    parser.add_argument(
        "--deadline-s", type=float, default=DEADLINE_S,
        help=f"[overload] end-to-end budget on deadlined requests (default: {DEADLINE_S})",
    )
    parser.add_argument(
        "--deadline-fraction", type=float, default=DEADLINE_FRACTION,
        help=f"[overload] share of requests carrying a deadline (default: {DEADLINE_FRACTION})",
    )
    parser.add_argument(
        "--requests", type=int, default=NUM_REQUESTS,
        help=f"replay length (default: {NUM_REQUESTS})",
    )
    parser.add_argument(
        "--unique", type=int, default=NUM_UNIQUE,
        help=f"unique-request universe size (default: {NUM_UNIQUE})",
    )
    parser.add_argument(
        "--zipf-s", type=float, default=ZIPF_S,
        help=f"Zipf exponent; higher = hotter head (default: {ZIPF_S})",
    )
    parser.add_argument("--seed", type=int, default=SEED, help="replay RNG seed")
    parser.add_argument(
        "--qubits", type=int, default=NUM_QUBITS,
        help=f"workload size (default: {NUM_QUBITS})",
    )
    parser.add_argument(
        "--memory-entries", type=int, default=MEMORY_ENTRIES,
        help=f"in-process LRU tier size (default: {MEMORY_ENTRIES})",
    )
    parser.add_argument(
        "--max-entries", type=int, default=MAX_ENTRIES,
        help=f"disk-tier LRU bound (default: {MAX_ENTRIES})",
    )
    parser.add_argument(
        "--compress", action="store_true", help="gzip disk entries during the replay"
    )
    parser.add_argument(
        "--chunk-size", type=int, default=CHUNK_SIZE,
        help=f"stream chunk size (default: {CHUNK_SIZE})",
    )
    parser.add_argument(
        "--executor",
        choices=("thread", "process", "reference"),
        default="reference",
        help="farm backend for the cold compiles (default: reference)",
    )
    parser.add_argument(
        "--store", default=None,
        help="store directory to replay against (default: fresh temp dir)",
    )
    return parser.parse_args()


if __name__ == "__main__":
    args = _parse_args()
    if args.scenario == "overload":
        plan = (
            FaultPlan.from_json(args.faults) if args.faults else FaultPlan.from_env()
        )
        _print_overload_entry(
            run_overload_replay(
                num_requests=args.requests if args.requests != NUM_REQUESTS
                else OVERLOAD_REQUESTS,
                unique=args.unique if args.unique != NUM_UNIQUE else OVERLOAD_UNIQUE,
                zipf_s=args.zipf_s,
                seed=args.seed,
                num_qubits=args.qubits,
                arrival_per_tick=args.arrival_per_tick,
                batch_limit=args.batch_limit,
                deadline_s=args.deadline_s,
                deadline_fraction=args.deadline_fraction,
                faults=plan,
                executor=args.executor,
                store_dir=args.store,
            )
        )
    else:
        _print_entry(
            run_load_replay(
                num_requests=args.requests,
                unique=args.unique,
                zipf_s=args.zipf_s,
                seed=args.seed,
                num_qubits=args.qubits,
                memory_entries=args.memory_entries,
                max_entries=args.max_entries,
                compress=args.compress,
                chunk_size=args.chunk_size,
                executor=args.executor,
                store_dir=args.store,
            )
        )
