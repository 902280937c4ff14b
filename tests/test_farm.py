"""Compile-farm tests: WorkloadSpec, memoisation, and the executor oracle.

The load-bearing suite here is the differential one: the parallel
``process`` executor must produce design points identical (depth,
error_rate, swap counts — everything except wall-clock fields) to the
deterministic in-process ``reference`` executor, over all three example
workload families and seeded random grids.  This is the ROADMAP oracle
pattern applied to batching: the serial backend is the oracle, the
process pool is the fast path.
"""

from __future__ import annotations

import pickle

import pytest

from repro.core import (
    CompileFarm,
    FarmJob,
    FarmOptions,
    QPilotCompiler,
    WorkloadSpec,
    sweep_array_width,
    sweep_grid,
)
from repro.core.qaoa_router import QAOARouterOptions
from repro.exceptions import QPilotError
from repro.hardware.fpqa import FPQAConfig

#: The three example workload families at a differential-friendly size.
FAMILY_SPECS = [
    WorkloadSpec.random_circuit(16, 5, seed=31),
    WorkloadSpec.qsim(16, 0.3, num_strings=10, seed=32),
    WorkloadSpec.qaoa_random_graph(16, 0.3, seed=33),
]
WIDTHS = (4, 8, 16)


def deterministic_metrics(sweep):
    """Per-point metrics with the volatile wall-clock field cleared."""
    return [point.metrics.deterministic() for point in sweep.points]


class TestWorkloadSpec:
    def test_specs_pickle_round_trip(self):
        for spec in FAMILY_SPECS:
            clone = pickle.loads(pickle.dumps(spec))
            assert clone == spec
            assert clone.fingerprint() == spec.fingerprint()

    def test_farm_job_pickles(self):
        job = FarmJob(
            workload=FAMILY_SPECS[0],
            config=FPQAConfig.with_width(16, 8),
            options=FarmOptions(include_sabre=True),
        )
        clone = pickle.loads(pickle.dumps(job))
        assert clone.key() == job.key()

    def test_fingerprint_distinguishes_params(self):
        a = WorkloadSpec.random_circuit(16, 5, seed=1)
        b = WorkloadSpec.random_circuit(16, 5, seed=2)
        c = WorkloadSpec.random_circuit(16, 6, seed=1)
        assert len({a.fingerprint(), b.fingerprint(), c.fingerprint()}) == 3
        assert a.fingerprint() == WorkloadSpec.random_circuit(16, 5, seed=1).fingerprint()

    def test_fingerprint_ignores_display_name(self):
        a = WorkloadSpec.qsim(12, 0.2, seed=9, name="alpha")
        b = WorkloadSpec.qsim(12, 0.2, seed=9, name="beta")
        assert a.fingerprint() == b.fingerprint()

    def test_build_is_deterministic(self):
        circuit_a = FAMILY_SPECS[0].build()
        circuit_b = FAMILY_SPECS[0].build()
        assert [str(g) for g in circuit_a.gates] == [str(g) for g in circuit_b.gates]
        strings_a = FAMILY_SPECS[1].build()
        strings_b = FAMILY_SPECS[1].build()
        assert [s.label for s in strings_a] == [s.label for s in strings_b]
        assert FAMILY_SPECS[2].build() == FAMILY_SPECS[2].build()

    def test_qaoa_edges_spec_builds_exact_edges(self):
        edges = [(0, 1), (2, 1), (3, 0)]
        spec = WorkloadSpec.qaoa_edges(4, edges)
        assert spec.build() == [(0, 1), (0, 3), (1, 2)]

    def test_qaoa_regular_graph_spec(self):
        spec = WorkloadSpec.qaoa_regular_graph(10, 3, seed=4)
        edges = spec.build()
        degree = {v: 0 for v in range(10)}
        for a, b in edges:
            degree[a] += 1
            degree[b] += 1
        assert set(degree.values()) == {3}

    def test_unknown_kind_rejected(self):
        with pytest.raises(QPilotError):
            WorkloadSpec(kind="tensor-network", name="x", num_qubits=4)

    def test_qasm_spec_content_addressed_by_text(self):
        from repro.circuit import ghz_circuit, to_qasm

        text = to_qasm(ghz_circuit(5))
        a = WorkloadSpec.qasm(text)
        b = WorkloadSpec.qasm(text, name="renamed")
        assert a.fingerprint() == b.fingerprint()
        assert a.qasm_sha1() == b.qasm_sha1()
        assert a.num_qubits == 5
        other = WorkloadSpec.qasm(to_qasm(ghz_circuit(6)))
        assert other.fingerprint() != a.fingerprint()

    def test_qasm_spec_round_trips_through_dict(self):
        from repro.circuit import ghz_circuit, to_qasm

        spec = WorkloadSpec.qasm(to_qasm(ghz_circuit(4)))
        clone = WorkloadSpec.from_dict(spec.to_dict())
        assert clone == spec
        assert clone.fingerprint() == spec.fingerprint()

    def test_qasm_spec_rejects_inconsistent_construction(self):
        from repro.circuit import ghz_circuit, to_qasm

        text = to_qasm(ghz_circuit(5))
        with pytest.raises(QPilotError):
            WorkloadSpec(kind="qasm", name="x", num_qubits=9, params=(("qasm", text),))
        with pytest.raises(QPilotError):
            WorkloadSpec(kind="qasm", name="x", num_qubits=1, params=())

    def test_qec_spec_sizes_and_validation(self):
        spec = WorkloadSpec.qec_surface_code(2, rounds=2)
        assert spec.num_qubits == 7  # d^2 data + d^2-1 ancilla
        circuit = spec.build()
        assert circuit.num_qubits == 7
        assert any(g.name == "measure" for g in circuit.gates)
        with pytest.raises(QPilotError):
            WorkloadSpec.qec_surface_code(1)
        with pytest.raises(QPilotError):
            WorkloadSpec(
                kind="qec",
                name="x",
                num_qubits=6,
                params=(("code", "surface"), ("distance", 2), ("rounds", 1)),
            )

    def test_molecule_spec_sizes_and_validation(self):
        spec = WorkloadSpec.molecule("H2")
        assert spec.num_qubits == 4
        strings = spec.build()
        assert strings and all(len(s.label) == 4 for s in strings)
        assert [s.label for s in strings] == [s.label for s in spec.build()]
        with pytest.raises(QPilotError):
            WorkloadSpec.molecule("Unobtainium")
        with pytest.raises(QPilotError):
            WorkloadSpec(kind="molecule", name="x", num_qubits=5, params=(("molecule", "H2"),))

    def test_compile_with_matches_direct_compiler_call(self):
        config = FPQAConfig.with_width(16, 8)
        spec = FAMILY_SPECS[0]
        farm_result = spec.compile_with(QPilotCompiler(config))
        direct_result = QPilotCompiler(config).compile_circuit(spec.build())
        assert farm_result.depth == direct_result.depth
        assert farm_result.evaluation.error_rate == direct_result.evaluation.error_rate


class TestCompileFarm:
    def test_unknown_executor_rejected(self):
        with pytest.raises(QPilotError):
            CompileFarm("gpu")

    def test_executor_aliases_rejected(self):
        """Only the three backend names are accepted; the old aliases are gone."""
        for alias in ("serial", "parallel", "threads"):
            with pytest.raises(QPilotError):
                CompileFarm(alias)

    def test_duplicate_jobs_are_memoised(self):
        config = FPQAConfig.with_width(16, 8)
        job = FarmJob(workload=FAMILY_SPECS[0], config=config)
        farm = CompileFarm("reference")
        results = farm.run([job, job, job])
        assert farm.last_stats["num_jobs"] == 3
        assert farm.last_stats["num_unique_jobs"] == 1
        assert results[0] is results[1] is results[2]

    def test_memo_key_separates_configs_and_options(self):
        spec = FAMILY_SPECS[2]
        narrow = FarmJob(workload=spec, config=FPQAConfig.with_width(16, 4))
        wide = FarmJob(workload=spec, config=FPQAConfig.with_width(16, 16))
        tuned = FarmJob(
            workload=spec,
            config=FPQAConfig.with_width(16, 4),
            options=FarmOptions(label="seed1", qaoa=QAOARouterOptions(seed_trials=1)),
        )
        farm = CompileFarm("reference")
        farm.run([narrow, wide, tuned, narrow])
        assert farm.last_stats["num_unique_jobs"] == 3

    def test_single_job_process_farm_reports_serial_backend(self):
        """A pool is pointless for one unique job; stats must say what ran."""
        job = FarmJob(workload=FAMILY_SPECS[0], config=FPQAConfig.with_width(16, 8))
        farm = CompileFarm("process", max_workers=8)
        farm.run([job, job])
        assert farm.last_stats["executor"] == "reference"
        assert farm.last_stats["requested_executor"] == "process"
        assert farm.last_stats["max_workers"] == 1

    def test_run_preserves_submission_order(self):
        spec = FAMILY_SPECS[0]
        jobs = [
            FarmJob(workload=spec, config=FPQAConfig.with_width(16, width))
            for width in (16, 4, 8)
        ]
        farm = CompileFarm("reference")
        results = farm.run(jobs)
        expected = [CompileFarm("reference").run([job])[0].depth for job in jobs]
        assert [m.depth for m in results] == expected


#: Pooled backends that must match the serial reference oracle.
POOLED_EXECUTORS = ("process", "thread")


class TestExecutorOracle:
    """Pooled farm backends vs the serial reference oracle: identical points."""

    @pytest.mark.parametrize("executor", POOLED_EXECUTORS)
    def test_three_families_identical_series_and_metrics(self, executor):
        options = [FarmOptions(include_sabre=True)]
        reference = sweep_grid(
            FAMILY_SPECS, widths=WIDTHS, option_sets=options, executor="reference"
        )
        pooled = sweep_grid(
            FAMILY_SPECS, widths=WIDTHS, option_sets=options, executor=executor
        )
        assert reference.as_series() == pooled.as_series()
        assert deterministic_metrics(reference) == deterministic_metrics(pooled)
        # the SABRE baseline fingerprint crossed the worker boundary intact
        circuit_points = [
            p for p in pooled.points if p.axes["workload"] == FAMILY_SPECS[0].name
        ]
        assert all(p.sabre_num_swaps > 0 for p in circuit_points)

    @pytest.mark.parametrize("executor", POOLED_EXECUTORS)
    def test_per_family_sweeps_match(self, executor):
        for spec in FAMILY_SPECS:
            reference = sweep_array_width(spec, widths=WIDTHS, executor="reference")
            pooled = sweep_array_width(spec, widths=WIDTHS, executor=executor)
            assert reference.as_series() == pooled.as_series(), spec.name
            assert deterministic_metrics(reference) == deterministic_metrics(pooled)

    @pytest.mark.parametrize("executor", POOLED_EXECUTORS)
    def test_three_families_byte_identical_canonical_schedules(self, executor):
        """Schedules (not just metrics) are byte-identical across backends."""
        from repro.utils.serialization import canonical_json

        jobs = [
            FarmJob(workload=spec, config=FPQAConfig.with_width(spec.num_qubits, 8))
            for spec in FAMILY_SPECS
        ]
        reference = CompileFarm("reference").run(jobs, with_schedules=True)
        pooled = CompileFarm(executor).run(jobs, with_schedules=True)
        for spec, ref, pool in zip(FAMILY_SPECS, reference, pooled):
            assert canonical_json(ref.schedule) == canonical_json(pool.schedule), spec.name
            assert ref.router == pool.router
            assert ref.metrics.deterministic() == pool.metrics.deterministic()

    @pytest.mark.parametrize("executor", POOLED_EXECUTORS)
    def test_untrusted_kinds_byte_identical_canonical_schedules(self, executor):
        """The PR 9 kinds (qasm, qec, molecule) honour the same oracle contract."""
        from repro.circuit import ghz_circuit, to_qasm
        from repro.utils.serialization import canonical_json

        specs = [
            WorkloadSpec.qasm(to_qasm(ghz_circuit(6))),
            WorkloadSpec.qec_surface_code(2),
            WorkloadSpec.molecule("H2"),
        ]
        jobs = [
            FarmJob(workload=spec, config=FPQAConfig.with_width(spec.num_qubits, 4))
            for spec in specs
        ]
        reference = CompileFarm("reference").run(jobs, with_schedules=True)
        pooled = CompileFarm(executor).run(jobs, with_schedules=True)
        for spec, ref, pool in zip(specs, reference, pooled):
            assert canonical_json(ref.schedule) == canonical_json(pool.schedule), spec.name
            assert ref.router == pool.router
            assert ref.metrics.deterministic() == pool.metrics.deterministic()

    @pytest.mark.parametrize("executor", POOLED_EXECUTORS)
    @pytest.mark.parametrize("seed", [3, 17])
    def test_seeded_random_grids_match(self, seed, executor):
        import numpy as np

        rng = np.random.default_rng(seed)
        specs = [
            WorkloadSpec.random_circuit(
                int(rng.integers(8, 20)), int(rng.integers(2, 6)), seed=seed
            ),
            WorkloadSpec.qsim(
                int(rng.integers(8, 20)),
                float(rng.uniform(0.1, 0.5)),
                num_strings=int(rng.integers(5, 12)),
                seed=seed + 1,
            ),
            WorkloadSpec.qaoa_random_graph(
                int(rng.integers(8, 20)), float(rng.uniform(0.1, 0.4)), seed=seed + 2
            ),
        ]
        widths = (4, 9, 25)
        axes = {"two_qubit_fidelity": (0.99, 0.995)}
        reference = sweep_grid(specs, widths=widths, config_axes=axes, executor="reference")
        pooled = sweep_grid(specs, widths=widths, config_axes=axes, executor=executor)
        assert reference.as_series() == pooled.as_series()
        assert deterministic_metrics(reference) == deterministic_metrics(pooled)
        assert [p.axes for p in reference.points] == [p.axes for p in pooled.points]


class TestJobDigest:
    """FarmJob.digest — the content-addressed schedule-store key."""

    def test_digest_is_stable_and_sha1_shaped(self):
        job = FarmJob(workload=FAMILY_SPECS[0], config=FPQAConfig.with_width(16, 8))
        digest = job.digest()
        assert len(digest) == 40 and set(digest) <= set("0123456789abcdef")
        assert digest == job.digest()
        clone = pickle.loads(pickle.dumps(job))
        assert clone.digest() == digest

    def test_digest_tracks_memo_key(self):
        """Equal memo keys <=> equal digests across every job axis."""
        base = FarmJob(workload=FAMILY_SPECS[0], config=FPQAConfig.with_width(16, 8))
        same = FarmJob(workload=FAMILY_SPECS[0], config=FPQAConfig.with_width(16, 8))
        other_workload = FarmJob(
            workload=FAMILY_SPECS[1], config=FPQAConfig.with_width(16, 8)
        )
        other_config = FarmJob(workload=FAMILY_SPECS[0], config=FPQAConfig.with_width(16, 4))
        other_options = FarmJob(
            workload=FAMILY_SPECS[0],
            config=FPQAConfig.with_width(16, 8),
            options=FarmOptions(include_sabre=True),
        )
        assert base.digest() == same.digest()
        assert len({base.digest(), other_workload.digest(), other_config.digest(),
                    other_options.digest()}) == 4

    def test_digest_ignores_display_label(self):
        """FarmOptions.label is display-only, like WorkloadSpec.name."""
        a = FarmJob(
            workload=FAMILY_SPECS[0],
            config=FPQAConfig.with_width(16, 8),
            options=FarmOptions(label="alpha"),
        )
        b = FarmJob(
            workload=FAMILY_SPECS[0],
            config=FPQAConfig.with_width(16, 8),
            options=FarmOptions(label="beta"),
        )
        assert a.digest() == b.digest()


class TestStreamingResults:
    """CompileFarm.iter_results / sweep_grid(stream=True)."""

    def _jobs(self):
        spec = FAMILY_SPECS[0]
        return [
            FarmJob(workload=spec, config=FPQAConfig.with_width(16, width))
            for width in (16, 4, 8)
        ]

    @pytest.mark.parametrize("executor", ("reference",) + POOLED_EXECUTORS)
    def test_iter_results_matches_run(self, executor):
        jobs = self._jobs()
        expected = CompileFarm("reference").run(jobs)
        farm = CompileFarm(executor)
        streamed: dict[int, object] = {}
        for index, metrics in farm.iter_results(jobs):
            streamed[index] = metrics
        assert sorted(streamed) == list(range(len(jobs)))
        assert [streamed[i].deterministic() for i in range(len(jobs))] == [
            m.deterministic() for m in expected
        ]
        assert farm.last_stats["num_jobs"] == len(jobs)

    def test_iter_results_streams_memoised_duplicates(self):
        jobs = self._jobs()
        duplicated = [jobs[0], jobs[1], jobs[0], jobs[0]]
        farm = CompileFarm("reference")
        pairs = list(farm.iter_results(duplicated))
        assert sorted(index for index, _ in pairs) == [0, 1, 2, 3]
        by_index = dict(pairs)
        assert by_index[0] is by_index[2] is by_index[3]
        assert farm.last_stats["num_unique_jobs"] == 2

    def test_iter_results_is_lazy(self):
        """The reference backend compiles nothing until the iterator is pulled."""
        farm = CompileFarm("reference")
        iterator = farm.iter_results(self._jobs())
        assert farm.last_stats == {}
        next(iterator)
        assert farm.last_stats == {}  # stats appear only at exhaustion

    def test_abandoned_pooled_stream_cancels_queued_jobs(self, monkeypatch):
        """Closing a streamed sweep early must not compile the whole grid."""
        import threading

        from repro.core import farm as farm_module

        specs = [WorkloadSpec.random_circuit(8, 2, seed=9000 + i) for i in range(6)]
        jobs = [FarmJob(workload=spec, config=FPQAConfig.with_width(8, 4)) for spec in specs]

        started = []
        workers = set()
        gate = threading.Event()
        real_job = farm_module.compile_farm_job

        def gated_job(job, attempt=0):
            started.append(job)
            workers.add(threading.current_thread())
            if len(started) > 1:
                # park the single worker so close() runs cancel_futures
                # while every remaining job is still queued
                assert gate.wait(timeout=10)
            return real_job(job, attempt)

        monkeypatch.setattr(farm_module, "compile_farm_job", gated_job)
        farm = CompileFarm("thread", max_workers=1)
        iterator = farm.iter_results(jobs)
        next(iterator)  # job 0 done; the worker picks up job 1 and parks
        # unblock the parked job only after close() has cancelled the queue
        releaser = threading.Timer(0.05, gate.set)
        releaser.start()
        iterator.close()  # cancels the queued jobs; the in-flight job 1 is abandoned
        releaser.join()
        # the worker exits once it runs out of queued work: after job 1
        # when the queue was cancelled, after job 5 when it was not
        for worker in workers:
            worker.join(timeout=10)
            assert not worker.is_alive()
        # the only jobs that ever started are job 0 and the in-flight job 1;
        # jobs 2..5 were cancelled while queued and never ran
        assert len(started) <= 2

    @pytest.mark.parametrize("executor", ("reference", "thread"))
    def test_sweep_grid_stream_matches_eager(self, executor):
        eager = sweep_grid(FAMILY_SPECS, widths=WIDTHS, executor="reference")
        streamed = list(
            sweep_grid(FAMILY_SPECS, widths=WIDTHS, executor=executor, stream=True)
        )
        assert len(streamed) == len(eager.points)
        key = lambda p: (p.axes.get("workload", ""), p.width)
        eager_points = sorted(eager.points, key=key)
        stream_points = sorted(streamed, key=key)
        assert [p.width for p in eager_points] == [p.width for p in stream_points]
        assert [p.metrics.deterministic() for p in eager_points] == [
            p.metrics.deterministic() for p in stream_points
        ]
        assert [p.axes for p in eager_points] == [p.axes for p in stream_points]
