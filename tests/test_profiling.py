"""Timing and trajectory tests: Timer, time_call, TrajectoryRecorder.

All three are ``repro.obs`` primitives; the identity tests pin that the
package exports the one timing implementation and the one recorder.
"""

from __future__ import annotations

import json
import time

import pytest

from repro.obs import Timer, TrajectoryRecorder, time_call


class TestTimer:
    def test_measures_elapsed_seconds(self):
        with Timer() as timer:
            time.sleep(0.01)
        assert timer.elapsed >= 0.01

    def test_start_stop_api(self):
        timer = Timer().start()
        elapsed = timer.stop()
        assert elapsed == timer.elapsed >= 0.0

    def test_timers_nest_independently(self):
        with Timer() as outer:
            with Timer() as inner:
                time.sleep(0.005)
        assert outer.elapsed >= inner.elapsed >= 0.005

    def test_is_the_obs_timer(self):
        from repro.obs.tracing import Timer as ObsTimer

        assert Timer is ObsTimer


class TestTimeCall:
    def test_returns_result_and_best_seconds(self):
        calls = []

        def work(value):
            calls.append(value)
            return value * 2

        result, seconds = time_call(work, 21, repeats=3, warmup=1)
        assert result == 42
        assert seconds >= 0.0
        assert len(calls) == 4  # 1 warmup + 3 timed

    def test_rejects_zero_repeats(self):
        with pytest.raises(ValueError):
            time_call(lambda: None, repeats=0)


class TestTrajectoryRecorder:
    def test_appends_timestamped_entries(self, tmp_path):
        path = tmp_path / "BENCH_test.json"
        recorder = TrajectoryRecorder(path, "unit_test")
        recorder.record({"metric": 1})
        recorder.record({"metric": 2})
        document = json.loads(path.read_text())
        assert document["benchmark"] == "unit_test"
        assert [entry["metric"] for entry in document["entries"]] == [1, 2]
        assert all("timestamp" in entry for entry in document["entries"])

    def test_corrupt_file_is_moved_aside_not_overwritten(self, tmp_path):
        path = tmp_path / "BENCH_test.json"
        path.write_text("{not json")
        recorder = TrajectoryRecorder(path, "unit_test")
        recorder.record({"metric": 1})
        assert (tmp_path / "BENCH_test.json.corrupt").read_text() == "{not json"
        document = json.loads(path.read_text())
        assert len(document["entries"]) == 1

    def test_is_the_obs_recorder(self):
        from repro.obs.metrics import TrajectoryRecorder as ObsRecorder

        assert TrajectoryRecorder is ObsRecorder
