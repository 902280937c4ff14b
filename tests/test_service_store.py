"""Schedule-store tests: addressing, durability, eviction, byte-stability.

The load-bearing suites here are the durability one — corrupted,
truncated or wrong-schema entries must read as cache *misses* (and be
repaired by the next compile), never crash — and the byte-stability one:
a schedule served from disk must render canonical JSON byte-identical to
a fresh compile of the same job, which is what makes the cache
semantically transparent (the golden-schedule guarantee extended through
the store).
"""

from __future__ import annotations

import json
import os

import pytest

from repro.core import CompileFarm, FarmJob, QPilotCompiler, WorkloadSpec
from repro.core.farm import compile_farm_job_with_schedule
from repro.exceptions import QPilotError
from repro.hardware.fpqa import FPQAConfig
from repro.service import ScheduleStore
from repro.utils.serialization import schedule_to_json

SPEC = WorkloadSpec.random_circuit(8, 3, seed=11)


def _compiled_at_width(width: int):
    job = FarmJob(workload=SPEC, config=FPQAConfig.with_width(8, width))
    return job.digest(), compile_farm_job_with_schedule(job)


@pytest.fixture
def job() -> FarmJob:
    return FarmJob(workload=SPEC, config=FPQAConfig.with_width(8, 4))


@pytest.fixture
def compiled(job):
    return compile_farm_job_with_schedule(job)


class TestStoreBasics:
    def test_put_get_round_trip(self, tmp_path, job, compiled):
        store = ScheduleStore(tmp_path / "store")
        digest = job.digest()
        assert store.get(digest) is None
        store.put(digest, compiled)
        entry = store.get(digest)
        assert entry is not None
        assert entry.digest == digest
        assert entry.router == compiled.router
        assert entry.metrics == compiled.metrics
        assert entry.schedule == compiled.schedule
        assert store.stats.hits == 1 and store.stats.misses == 1
        assert store.stats.writes == 1
        assert store.stats.hit_rate == 0.5

    def test_entries_are_sharded_by_digest_prefix(self, tmp_path, job, compiled):
        store = ScheduleStore(tmp_path)
        digest = job.digest()
        store.put(digest, compiled)
        path = store.path_for(digest)
        assert path.exists()
        assert path.parent.name == digest[:2]
        assert path.name == f"{digest}.json"
        assert digest in store
        assert store.digests() == [digest]
        assert len(store) == 1

    def test_loaded_schedule_validates(self, tmp_path, job, compiled):
        store = ScheduleStore(tmp_path)
        store.put(job.digest(), compiled)
        schedule = store.get(job.digest()).load_schedule()
        schedule.validate()
        assert schedule.num_data_qubits == SPEC.num_qubits

    def test_clear_empties_the_store(self, tmp_path, job, compiled):
        store = ScheduleStore(tmp_path)
        store.put(job.digest(), compiled)
        assert store.clear() == 1
        assert len(store) == 0
        assert store.get(job.digest()) is None

    def test_rejects_nonpositive_max_entries(self, tmp_path):
        with pytest.raises(QPilotError):
            ScheduleStore(tmp_path, max_entries=0)


class TestStoreDurability:
    """Bad entries are misses (then repaired), never crashes."""

    def _stored(self, tmp_path, job, compiled) -> tuple[ScheduleStore, str]:
        store = ScheduleStore(tmp_path)
        digest = job.digest()
        store.put(digest, compiled)
        return store, digest

    @pytest.mark.parametrize(
        "corruption",
        [
            pytest.param(lambda text: "", id="empty-file"),
            pytest.param(lambda text: text[: len(text) // 2], id="truncated"),
            pytest.param(lambda text: "not json at all {{{", id="garbled"),
            pytest.param(lambda text: "null", id="wrong-type"),
            pytest.param(lambda text: "[1, 2, 3]", id="not-an-object"),
            pytest.param(
                lambda text: json.dumps({"schema_version": 999}), id="wrong-schema"
            ),
            pytest.param(
                lambda text: text.replace('"metrics"', '"wrong_field"'),
                id="missing-metrics",
            ),
        ],
    )
    def test_corrupted_entry_is_a_miss_and_is_removed(
        self, tmp_path, job, compiled, corruption
    ):
        store, digest = self._stored(tmp_path, job, compiled)
        path = store.path_for(digest)
        path.write_text(corruption(path.read_text()))
        assert store.get(digest) is None
        assert store.stats.corrupt == 1
        assert store.stats.misses == 1
        assert not path.exists(), "corrupt entry must be unlinked for repair"
        # the next put repairs the entry and it reads back fine
        store.put(digest, compiled)
        assert store.get(digest) is not None

    def test_digest_mismatch_is_corruption(self, tmp_path, job, compiled):
        """An entry filed under the wrong digest must not be served."""
        store, digest = self._stored(tmp_path, job, compiled)
        text = store.path_for(digest).read_text()
        fake = "0" * 40
        fake_path = store.path_for(fake)
        fake_path.parent.mkdir(parents=True, exist_ok=True)
        fake_path.write_text(text)
        assert store.get(fake) is None
        assert store.stats.corrupt == 1

    def test_missing_entry_counts_one_miss(self, tmp_path):
        store = ScheduleStore(tmp_path)
        assert store.get("f" * 40) is None
        assert store.stats.misses == 1
        assert store.stats.corrupt == 0

    def test_writes_are_atomic_no_tmp_litter(self, tmp_path, job, compiled):
        store = ScheduleStore(tmp_path)
        store.put(job.digest(), compiled)
        leftovers = [p for p in tmp_path.rglob("*") if p.is_file() and p.suffix != ".json"]
        assert leftovers == []


class TestStoreByteStability:
    """Cached schedule == fresh compile, byte for byte (golden guarantee)."""

    def test_cached_schedule_json_matches_fresh_compile(self, tmp_path, job, compiled):
        store = ScheduleStore(tmp_path)
        store.put(job.digest(), compiled)
        cached = store.get(job.digest())
        fresh = QPilotCompiler(job.config).compile_circuit(SPEC.build())
        assert cached.schedule_json() == schedule_to_json(fresh.schedule, canonical=True)

    @pytest.mark.parametrize("executor", ("reference", "thread", "process"))
    def test_store_round_trip_is_byte_stable_across_executors(self, tmp_path, executor, job):
        """put -> get -> re-render is byte-identical no matter which farm
        backend produced the entry (the executor oracle through the store)."""
        store = ScheduleStore(tmp_path / executor)
        result = CompileFarm(executor).run([job], with_schedules=True)[0]
        store.put(job.digest(), result)
        first = store.get(job.digest())
        # a second store at the same root reads the same bytes cold
        reopened = ScheduleStore(tmp_path / executor)
        second = reopened.get(job.digest())
        assert first.schedule_json() == second.schedule_json()
        assert first.schedule_json() == ScheduleStore(tmp_path / executor).get(
            job.digest()
        ).schedule_json()

    def test_entry_file_is_canonical_json(self, tmp_path, job, compiled):
        """The on-disk bytes are schema-v3 sorted-key *compact* JSON."""
        store = ScheduleStore(tmp_path)
        store.put(job.digest(), compiled)
        text = store.path_for(job.digest()).read_text()
        compact = json.dumps(json.loads(text), sort_keys=True, separators=(",", ":"))
        assert text == compact + "\n"
        assert json.loads(text)["schema_version"] == 3

    @pytest.mark.parametrize("compress", (False, True), ids=("raw", "gzip"))
    def test_put_never_calls_the_indented_encoder(
        self, tmp_path, job, compiled, compress, monkeypatch
    ):
        """``put`` encodes in one C pass: the pure-Python encoder, which
        every ``indent=2`` rendering goes through, is never entered."""
        import json.encoder

        def indented_encoder(*args, **kwargs):
            raise AssertionError("put rendered the indent=2 form")

        monkeypatch.setattr(json.encoder, "_make_iterencode", indented_encoder)
        with pytest.raises(AssertionError):
            json.dumps({"a": 1}, indent=2)  # the patch does catch indent=2
        store = ScheduleStore(tmp_path, compress=compress)
        store.put(job.digest(), compiled)
        monkeypatch.undo()
        fresh = QPilotCompiler(job.config).compile_circuit(SPEC.build())
        entry = ScheduleStore(tmp_path).get(job.digest())
        assert entry.schedule_json() == schedule_to_json(fresh.schedule, canonical=True)

    def test_100q_entry_is_much_smaller_than_indented(self, tmp_path):
        """A 100q entry file is at least 2.5x smaller than its indent=2 rendering."""
        from repro.utils.serialization import canonical_json

        job = FarmJob(
            workload=WorkloadSpec.random_circuit(100, 5, seed=3),
            config=FPQAConfig.with_width(100, 10),
        )
        store = ScheduleStore(tmp_path)
        store.put(job.digest(), compile_farm_job_with_schedule(job))
        raw = store.path_for(job.digest()).read_bytes()
        indented = (canonical_json(json.loads(raw)) + "\n").encode("utf-8")
        assert len(indented) >= 2.5 * len(raw), (len(indented), len(raw))


class TestStoreEviction:
    def _result_for(self, width: int):
        job = FarmJob(workload=SPEC, config=FPQAConfig.with_width(8, width))
        return job.digest(), compile_farm_job_with_schedule(job)

    def test_lru_eviction_over_limit(self, tmp_path):
        store = ScheduleStore(tmp_path, max_entries=2)
        (d1, r1), (d2, r2), (d3, r3) = (self._result_for(w) for w in (2, 4, 8))
        store.put(d1, r1)
        os.utime(store.path_for(d1), (1, 1))  # make d1 stale
        store.put(d2, r2)
        os.utime(store.path_for(d2), (2, 2))
        store.put(d3, r3)
        assert len(store) == 2
        assert store.stats.evictions == 1
        assert d1 not in store  # least recently used went first
        assert d2 in store and d3 in store

    def test_hit_refreshes_lru_position(self, tmp_path):
        store = ScheduleStore(tmp_path, max_entries=2)
        (d1, r1), (d2, r2), (d3, r3) = (self._result_for(w) for w in (2, 4, 8))
        store.put(d1, r1)
        os.utime(store.path_for(d1), (1, 1))
        store.put(d2, r2)
        os.utime(store.path_for(d2), (2, 2))
        assert store.get(d1) is not None  # touch: d1 becomes most recent
        store.put(d3, r3)
        assert d1 in store
        assert d2 not in store

    def test_unbounded_store_never_evicts(self, tmp_path):
        store = ScheduleStore(tmp_path)
        for width in (2, 4, 8):
            digest, result = self._result_for(width)
            store.put(digest, result)
        assert len(store) == 3
        assert store.stats.evictions == 0

    def test_equal_mtime_eviction_is_scan_order_independent(self, tmp_path):
        """Regression: ties on mtime (coarse filesystem clocks) used to be
        broken by directory-scan order, so which entry survived depended
        on readdir order.  The (mtime, name) key makes it deterministic:
        among equal-mtime entries the lexicographically smallest names go
        first, whatever order the scan produced them in."""
        seed_store = ScheduleStore(tmp_path)  # unbounded: seed all three
        entries = [self._result_for(w) for w in (2, 4, 8)]
        for digest, result in entries:
            seed_store.put(digest, result)
        # all three written within one mtime quantum: force the tie
        for digest, _ in entries:
            os.utime(seed_store.path_for(digest), (100, 100))
        store = ScheduleStore(tmp_path, max_entries=2)
        # hand the eviction scan the worst-case order — reverse-by-name;
        # a stable mtime-only sort would preserve it and evict the
        # *largest* names first
        store._entry_paths = lambda: iter(
            sorted(store.root.glob("??/*.json"), key=lambda p: p.name, reverse=True)
        )
        trigger_digest, trigger_result = self._result_for(16)
        store.put(trigger_digest, trigger_result)
        survivors = {p.stem for p in store.root.glob("??/*.json")}
        tied = sorted(digest for digest, _ in entries)
        assert trigger_digest in survivors
        # deterministic rule: the max-name entry of the tie survives
        assert survivors == {trigger_digest, tied[-1]}


class TestMemoryTier:
    """The in-process LRU front tier: zero disk I/O on a memory hit."""

    def _no_disk_reads(self, monkeypatch):
        def forbid(name):
            def boom(*args, **kwargs):  # pragma: no cover - fails the test if hit
                raise AssertionError(f"memory-tier hit touched the disk ({name})")

            return boom

        from pathlib import Path

        monkeypatch.setattr(Path, "read_text", forbid("read_text"))
        monkeypatch.setattr(Path, "read_bytes", forbid("read_bytes"))
        monkeypatch.setattr(os, "utime", forbid("utime"))

    def test_memory_hit_is_disk_free_and_byte_identical(
        self, tmp_path, job, compiled, monkeypatch
    ):
        store = ScheduleStore(tmp_path, memory_entries=4)
        digest = job.digest()
        store.put(digest, compiled)  # write-through populates the tier
        self._no_disk_reads(monkeypatch)
        entry = store.get(digest)
        assert entry is not None
        assert store.stats.memory_hits == 1 and store.stats.disk_hits == 0
        assert store.stats.memory_hit_rate == 1.0
        fresh = QPilotCompiler(job.config).compile_circuit(SPEC.build())
        assert entry.schedule_json() == schedule_to_json(fresh.schedule, canonical=True)

    def test_disk_read_populates_the_memory_tier(self, tmp_path, job, compiled, monkeypatch):
        writer = ScheduleStore(tmp_path)
        digest = job.digest()
        writer.put(digest, compiled)
        reader = ScheduleStore(tmp_path, memory_entries=4)
        first = reader.get(digest)  # cold: disk tier
        assert reader.stats.disk_hits == 1 and reader.stats.memory_hits == 0
        self._no_disk_reads(monkeypatch)
        second = reader.get(digest)  # warm: memory tier, zero disk I/O
        assert reader.stats.memory_hits == 1
        assert second.schedule_json() == first.schedule_json()

    def test_memory_tier_is_lru_bounded(self, tmp_path):
        store = ScheduleStore(tmp_path, memory_entries=2)
        entries = []
        for width in (2, 4, 8):
            job = FarmJob(workload=SPEC, config=FPQAConfig.with_width(8, width))
            entries.append(job.digest())
            store.put(job.digest(), compile_farm_job_with_schedule(job))
        assert len(store._memory) == 2
        assert store.stats.memory_evictions == 1
        # the evicted digest falls back to the disk tier, not a miss
        assert store.get(entries[0]) is not None
        assert store.stats.disk_hits == 1 and store.stats.memory_hits == 0

    def test_memory_entry_survives_disk_eviction(self, tmp_path, job, compiled):
        """The documented trade-off: an entry hot in memory is served even
        after its disk file is gone (the digest is the content)."""
        store = ScheduleStore(tmp_path, memory_entries=4)
        digest = job.digest()
        store.put(digest, compiled)
        store.path_for(digest).unlink()
        assert store.get(digest) is not None
        assert store.stats.memory_hits == 1

    def test_rejects_nonpositive_memory_entries(self, tmp_path):
        with pytest.raises(QPilotError):
            ScheduleStore(tmp_path, memory_entries=0)


class TestCompression:
    """gzip disk entries: sniffed reads, mixed roots, corrupt = miss."""

    def test_compressed_entry_round_trips_byte_identical(self, tmp_path, job, compiled):
        store = ScheduleStore(tmp_path, compress=True)
        digest = job.digest()
        store.put(digest, compiled)
        raw = store.path_for(digest).read_bytes()
        assert raw[:2] == b"\x1f\x8b", "entry file must actually be gzip"
        entry = ScheduleStore(tmp_path, compress=True).get(digest)
        fresh = QPilotCompiler(job.config).compile_circuit(SPEC.build())
        assert entry.schedule_json() == schedule_to_json(fresh.schedule, canonical=True)

    def test_mixed_codecs_coexist_in_one_root(self, tmp_path):
        """A raw store reads gzip entries and vice versa (magic sniffing)."""
        raw_job = FarmJob(workload=SPEC, config=FPQAConfig.with_width(8, 2))
        gz_job = FarmJob(workload=SPEC, config=FPQAConfig.with_width(8, 4))
        ScheduleStore(tmp_path).put(
            raw_job.digest(), compile_farm_job_with_schedule(raw_job)
        )
        ScheduleStore(tmp_path, compress=True).put(
            gz_job.digest(), compile_farm_job_with_schedule(gz_job)
        )
        for compress in (False, True):
            reader = ScheduleStore(tmp_path, compress=compress)
            assert reader.get(raw_job.digest()) is not None
            assert reader.get(gz_job.digest()) is not None

    def test_truncated_gzip_entry_is_a_miss_and_is_removed(self, tmp_path, job, compiled):
        store = ScheduleStore(tmp_path, compress=True)
        digest = job.digest()
        store.put(digest, compiled)
        path = store.path_for(digest)
        blob = path.read_bytes()
        path.write_bytes(blob[: len(blob) // 2])  # valid magic, garbled body
        reader = ScheduleStore(tmp_path, compress=True)
        assert reader.get(digest) is None
        assert reader.stats.corrupt == 1
        assert not path.exists()

    def test_compressed_bytes_are_deterministic(self, tmp_path, job, compiled):
        """Concurrent writers of one digest must still converge bit-for-bit."""
        a = ScheduleStore(tmp_path / "a", compress=True)
        b = ScheduleStore(tmp_path / "b", compress=True)
        a.put(job.digest(), compiled)
        b.put(job.digest(), compiled)
        assert (
            a.path_for(job.digest()).read_bytes() == b.path_for(job.digest()).read_bytes()
        )


class TestLegacySchemaEntries:
    """Entries of an older schema (the indent=2 v1 and v2 formats) are a
    recomputable miss: unlinked, recompiled at schema v3, and the served
    schedule keeps its golden bytes."""

    def _write_legacy(
        self, store: ScheduleStore, digest: str, compiled, version: int, compress: bool
    ) -> None:
        import gzip

        from repro.service.store import StoreEntry
        from repro.utils.serialization import canonical_json

        data = StoreEntry.from_result(digest, compiled).to_dict()
        data["schema_version"] = version
        if version >= 2:  # v1 predates the codec field
            data["codec"] = "gzip" if compress else "raw"
        payload = (canonical_json(data) + "\n").encode("utf-8")
        path = store.path_for(digest)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_bytes(gzip.compress(payload, mtime=0) if compress else payload)

    @pytest.mark.parametrize("compress", (False, True), ids=("raw", "gzip"))
    @pytest.mark.parametrize("version", (1, 2), ids=("v1", "v2"))
    def test_legacy_entry_is_a_recomputable_miss(
        self, tmp_path, job, compiled, version, compress
    ):
        from repro.service import CompileRequest, CompileService

        store = ScheduleStore(tmp_path, compress=compress)
        digest = job.digest()
        self._write_legacy(store, digest, compiled, version, compress)
        assert store.get(digest) is None
        assert store.stats.misses == 1 and store.stats.corrupt == 1
        assert not store.path_for(digest).exists(), "legacy entry must be unlinked"

        self._write_legacy(store, digest, compiled, version, compress)
        service = CompileService(tmp_path, executor="reference", compress=compress)
        response = service.compile(CompileRequest.for_width(SPEC, 4))
        assert response.digest == digest
        assert not response.cached, "a legacy entry must not be served"
        assert service.stats.farm_dispatches == 1
        raw = store.path_for(digest).read_bytes()
        if compress:
            import gzip

            assert raw[:2] == b"\x1f\x8b"
            raw = gzip.decompress(raw)
        rewritten = json.loads(raw.decode("utf-8"))
        assert rewritten["schema_version"] == 3
        assert rewritten["codec"] == ("gzip" if compress else "raw")
        fresh = QPilotCompiler(job.config).compile_circuit(SPEC.build())
        golden = schedule_to_json(fresh.schedule, canonical=True)
        assert response.schedule_json() == golden
        # a new reader serves the rewritten v3 entry, still golden bytes
        again = ScheduleStore(tmp_path)
        assert again.get(digest).schedule_json() == golden
        assert again.stats.disk_hits == 1 and again.stats.corrupt == 0


class TestCountConsistency:
    """Regression: removal paths (corrupt-entry repair, ``clear()``, LRU
    eviction) must only count a file they actually removed."""

    @staticmethod
    def _vanish_after_scan(monkeypatch, store: ScheduleStore, victim) -> None:
        """Make the next directory scan list ``victim``, then remove it
        before the caller's unlink — a concurrent daemon sharing the root."""
        scan = store._entry_paths

        def scan_then_vanish():
            paths = list(scan())
            assert victim in paths
            victim.unlink()
            monkeypatch.setattr(store, "_entry_paths", scan)
            return iter(paths)

        monkeypatch.setattr(store, "_entry_paths", scan_then_vanish)

    def test_clear_counts_only_files_it_removed(self, tmp_path, monkeypatch):
        store = ScheduleStore(tmp_path)
        results = [_compiled_at_width(width) for width in (2, 4, 8)]
        for digest, result in results:
            store.put(digest, result)
        self._vanish_after_scan(monkeypatch, store, store.path_for(results[0][0]))
        assert store.clear() == 2, "counted a file another daemon removed"
        assert len(store) == 0

    def test_eviction_counts_only_files_it_removed(self, tmp_path, monkeypatch):
        store = ScheduleStore(tmp_path, max_entries=2)
        (d1, r1), (d2, r2), (d3, r3) = (_compiled_at_width(w) for w in (2, 4, 8))
        store.put(d1, r1)
        os.utime(store.path_for(d1), (1, 1))  # d1 is the LRU victim
        store.put(d2, r2)
        os.utime(store.path_for(d2), (2, 2))
        assert len(store) == 2
        # another daemon removes d1 between this store's scan and unlink
        self._vanish_after_scan(monkeypatch, store, store.path_for(d1))
        store.put(d3, r3)
        assert store.stats.evictions == 0, "counted another daemon's removal"
        assert store.path_for(d2).exists(), "over-evicted below the bound"
        assert store.path_for(d3).exists()
        assert len(store) == len(store.digests()) == 2

    def test_concurrent_repair_does_not_drive_count_negative(
        self, tmp_path, job, compiled, monkeypatch
    ):
        from pathlib import Path

        store = ScheduleStore(tmp_path)
        digest = job.digest()
        store.put(digest, compiled)
        # a concurrent daemon repairs (unlinks) the corrupt entry first...
        store.path_for(digest).unlink()
        assert len(store) == 0  # materialise the cached count at the truth
        # ...but this store still observes the stale corrupt bytes
        monkeypatch.setattr(Path, "read_bytes", lambda self: b"stale corrupt {{{")
        monkeypatch.setattr(Path, "read_text", lambda self, **kw: "stale corrupt {{{")
        assert store.get(digest) is None
        assert len(store) == 0, "decremented for a file another daemon removed"
        assert store.get(digest) is None  # and it must not keep drifting
        assert len(store) == 0
        assert store.stats.corrupt == 2

    def test_clear_resets_fault_write_attempts(self, tmp_path, job, compiled):
        """Regression: clear() kept per-digest write-attempt counters, so a
        long-lived daemon leaked them (and bounded fault rules stayed
        spent across what should be a fresh epoch)."""
        store = ScheduleStore(tmp_path)
        digest = job.digest()
        store.put(digest, compiled)
        assert store._write_attempts  # populated by the put
        store.clear()
        assert store._write_attempts == {}
