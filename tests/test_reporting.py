"""Unit tests for the reporting utilities and the DSE sweep."""

from __future__ import annotations

import pytest

from repro.core import WorkloadSpec, sweep_array_width
from repro.core.dse import architecture_search
from repro.exceptions import QPilotError
from repro.utils.reporting import format_csv, format_series, format_table, geometric_mean, ratio


class TestTables:
    def test_format_table_alignment(self):
        rows = [{"a": 1, "b": "xy"}, {"a": 223, "b": "z"}]
        text = format_table(rows, title="demo")
        lines = text.splitlines()
        assert lines[0] == "demo"
        assert "a" in lines[1] and "b" in lines[1]
        assert len(lines) == 5

    def test_format_table_empty(self):
        assert "(no rows)" in format_table([], title="empty")

    def test_format_table_column_subset(self):
        rows = [{"a": 1, "b": 2, "c": 3}]
        text = format_table(rows, columns=["c", "a"])
        assert "b" not in text.splitlines()[0]

    def test_format_csv(self):
        rows = [{"x": 1, "y": 2.5}, {"x": 3, "y": 4.0}]
        csv = format_csv(rows)
        assert csv.splitlines()[0] == "x,y"
        assert len(csv.splitlines()) == 3

    def test_format_series(self):
        text = format_series([(1, 10), (2, 20)], header=("width", "depth"))
        assert "width" in text and "depth" in text

    def test_ratio_and_geometric_mean(self):
        assert ratio(10, 2) == pytest.approx(5.0)
        assert ratio(10, 0) == float("inf")
        assert geometric_mean([2, 8]) == pytest.approx(4.0)
        assert geometric_mean([]) == 0.0


class TestDesignSpaceExploration:
    @pytest.fixture(scope="class")
    def sweep(self):
        spec = WorkloadSpec.qaoa_regular_graph(16, 3, seed=1)
        return sweep_array_width(spec, widths=(4, 8, 16), workload_name="qaoa16")

    def test_sweep_has_one_point_per_width(self, sweep):
        assert [p.width for p in sweep.points] == [4, 8, 16]
        assert all(p.depth > 0 for p in sweep.points)
        assert all(p.config.slm_cols == p.width for p in sweep.points)

    def test_best_point_minimises_depth(self, sweep):
        best = sweep.best("depth")
        assert best.depth == min(p.depth for p in sweep.points)
        best_err = sweep.best("error_rate")
        assert best_err.error_rate == min(p.error_rate for p in sweep.points)

    def test_series_matches_points(self, sweep):
        series = sweep.as_series()
        assert series == [(p.width, p.depth) for p in sweep.points]

    def test_unknown_metric(self, sweep):
        with pytest.raises(QPilotError):
            sweep.best("latency")

    def test_architecture_search_returns_best(self):
        spec = WorkloadSpec.qaoa_regular_graph(12, 3, seed=2)
        best = architecture_search(spec, widths=(4, 12), workload_name="qaoa12")
        assert best.width in (4, 12)

    def test_empty_sweep_best_raises(self):
        from repro.core.dse import SweepResult

        with pytest.raises(QPilotError):
            SweepResult("empty").best()
