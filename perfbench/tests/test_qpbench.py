"""Tests of the benchmark's own helpers (run: python3 -m pytest perfbench/tests)."""

import json
import multiprocessing
import random
import sys
import types
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(BENCH_DIR))

from qpbench import inputs, layers  # noqa: E402
from qpbench.ledger import (  # noqa: E402
    Recorder,
    Span,
    classify_get,
    covered_time,
    self_times,
    tail_percentile,
)


# -- tail percentile ----------------------------------------------------------


def test_tail_percentile_leaves_ten_samples_beyond():
    values = list(range(1, 101))
    random.Random(0).shuffle(values)
    percentile, value, samples = tail_percentile(values)
    assert (percentile, value, samples) == (90.0, 90, 100)
    assert sum(1 for v in values if v > value) == 10


def test_tail_percentile_smallest_sample_that_supports_one():
    assert tail_percentile([5.0] * 10) is None
    percentile, value, samples = tail_percentile(list(range(11)))
    assert value == 0 and samples == 11
    assert percentile == pytest.approx(100.0 / 11)


# -- self time ----------------------------------------------------------------


def _span(span_id, parent, start, end, name="x"):
    return Span(id=span_id, parent=parent, op=1, name=name, start=start, end=end)


def test_self_time_subtracts_union_of_overlapping_children():
    spans = [
        _span(1, None, 0.0, 10.0),
        _span(2, 1, 1.0, 3.0),
        _span(3, 1, 2.0, 5.0),  # overlaps span 2: the union is [1, 5]
        _span(4, 2, 1.5, 2.5),
    ]
    own = self_times(spans)
    assert own[1] == pytest.approx(6.0)
    assert own[2] == pytest.approx(1.0)
    assert own[3] == pytest.approx(3.0)
    assert own[4] == pytest.approx(1.0)
    assert sum(own.values()) == pytest.approx(11.0)  # overlap counted twice, once per child


def test_covered_time_clips_to_the_parent():
    assert covered_time(0.0, 10.0, [(-5.0, 2.0), (8.0, 20.0), (11.0, 12.0)]) == pytest.approx(4.0)
    assert covered_time(0.0, 1.0, []) == 0.0


# -- store get classification --------------------------------------------------


@pytest.mark.parametrize(
    "after, tier",
    [((4, 2, 1), "memory"), ((3, 3, 1), "disk"), ((3, 2, 2), "miss")],
)
def test_classify_get_by_counter_moved(after, tier):
    assert classify_get((3, 2, 1), after) == tier


@pytest.mark.parametrize("after", [(3, 2, 1), (4, 3, 1), (5, 2, 1)])
def test_classify_get_rejects_ambiguous_moves(after):
    with pytest.raises(ValueError):
        classify_get((3, 2, 1), after)


# -- seeded inputs -------------------------------------------------------------


def _first(iterator, count):
    return [next(iterator) for _ in range(count)]


def test_request_stream_is_a_function_of_the_seed():
    one = inputs.RequestStream(random.Random(7)).take(9)
    again = inputs.RequestStream(random.Random(7)).take(9)
    other = inputs.RequestStream(random.Random(8)).take(9)
    assert one == again
    assert one != other
    assert [request.family for request in one] == list(inputs.FAMILIES) * 3


def test_request_stream_never_repeats_a_request():
    requests = inputs.RequestStream(random.Random(3)).take(60)
    assert len(set(requests)) == len(requests)


def test_zipf_stream_is_a_function_of_the_seed_and_skewed():
    draw = lambda seed: _first(inputs.zipf_stream(24, s=1.1, rng=random.Random(seed)), 2000)
    assert draw(1) == draw(1)
    assert draw(1) != draw(2)
    ranks = draw(1)
    assert min(ranks) == 0 and max(ranks) < 24
    assert ranks.count(0) > ranks.count(10) > 0


def test_random_qasm_shape():
    text = inputs.random_qasm(100, 500, random.Random(1))
    lines = text.splitlines()
    assert lines[2] == "qreg q[100];"
    assert len(lines) == 3 + 500
    assert all(line.startswith("cx q[") for line in lines[3:])
    assert text == inputs.random_qasm(100, 500, random.Random(1))


def test_grid_seeds_differ_across_seeds():
    assert inputs.grid_seeds(random.Random(1)) == inputs.grid_seeds(random.Random(1))
    assert inputs.grid_seeds(random.Random(1)) != inputs.grid_seeds(random.Random(2))


# -- recorder ------------------------------------------------------------------


class _Adder:
    def add(self, a, b):
        return a + b

    def add_twice(self, a, b):
        return self.add(a, b) + self.add(a, b)

    @classmethod
    def make(cls):
        return cls()


def test_recorder_nests_spans_and_restores_patches(tmp_path):
    module = types.SimpleNamespace(double=lambda x: 2 * x)
    recorder = Recorder(tmp_path)
    original_add = _Adder.__dict__["add"]
    recorder.patch(_Adder, "add", "add", after=lambda span, _, result, *a: span.attrs.update(r=result))
    recorder.patch(_Adder, "add_twice", "add_twice")
    recorder.patch(_Adder, "make", "make")
    recorder.patch(module, "double", "double")

    op = recorder.open("op", kind="k")
    assert _Adder.make().add_twice(1, 2) == 6
    assert module.double(4) == 8
    recorder.close(op)
    recorder.uninstall()

    assert _Adder.__dict__["add"] is original_add
    assert isinstance(_Adder.__dict__["make"], classmethod)
    by_name = {}
    for span in recorder.spans:
        by_name.setdefault(span.name, []).append(span)
    outer = by_name["add_twice"][0]
    assert [span.parent for span in by_name["add"]] == [outer.id, outer.id]
    assert by_name["add"][0].attrs == {"r": 3}
    assert {span.op for span in recorder.spans} == {op.id}
    assert by_name["double"][0].parent == op.id

    recorder.spans.clear()
    _Adder().add(1, 1)
    assert recorder.spans == []


def _child_work(module):
    module.double(3)
    module.double(4)


def test_forked_worker_spans_nest_under_the_open_span(tmp_path):
    module = types.SimpleNamespace(double=lambda x: 2 * x)
    recorder = Recorder(tmp_path)
    recorder.patch(module, "double", "double")
    op = recorder.open("op", kind="grid")
    workers = [
        multiprocessing.get_context("fork").Process(target=_child_work, args=(module,))
        for _ in range(2)
    ]
    for worker in workers:
        worker.start()
    for worker in workers:
        worker.join(timeout=30)
        assert not worker.is_alive() and worker.exitcode == 0
    recorder.close(op)
    recorder.uninstall()
    recorder.collect_spills()

    spilled = [span for span in recorder.spans if span.name == "double"]
    assert len(spilled) == 4
    assert all(span.parent == op.id and span.op == op.id for span in spilled)
    ids = [span.id for span in recorder.spans]
    assert len(set(ids)) == len(ids)
    assert list(tmp_path.glob("spans-*.jsonl")) == []


def test_layer_metrics_unattributed_is_entry_and_op_self_time():
    spans = [
        Span(1, None, 1, "op", 0.0, 10.0, {"kind": "qsim"}),
        Span(2, 1, 1, "service.compile", 1.0, 9.0),
        Span(3, 2, 1, "store.get", 1.0, 2.0, {"tier": "miss"}),
        Span(4, 2, 1, "farm.run", 2.0, 8.0, {"busy": 3.0, "workers": 1, "retries": 0,
                                             "pool_respawns": 0, "failed_jobs": 0}),
        Span(5, 4, 1, "route.qsim", 3.0, 6.0),
        Span(6, None, 6, "qasm.parse", 20.0, 21.0),  # outside any op: ignored
    ]
    metrics = layers.layer_metrics(spans)
    assert metrics["ledger.attributed_ratio"] == pytest.approx(0.7)  # 2 op + 1 service of 10
    assert metrics["ledger.unattributed_ms.qsim"] == pytest.approx(3000.0)
    assert metrics["service.self_s"] == pytest.approx(1.0)
    assert metrics["route.qsim_s"] == pytest.approx(3.0)
    assert metrics["farm.run_s"] == pytest.approx(6.0)
    assert metrics["farm.overhead_s"] == pytest.approx(3.0)
    assert metrics["store.get_miss_calls"] == 1.0
    assert metrics["qasm.parse_s"] == 0.0
    assert set(metrics) <= set(layers.PER_LAYER)


def test_benchmark_json_matches_the_reported_metrics():
    spec = json.loads((BENCH_DIR.parent / "BENCHMARK.json").read_text())
    assert [m["name"] for m in spec["per_layer"]] == list(layers.PER_LAYER)
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == layers.PER_LAYER
    assert [w["name"] for w in spec["workloads"]] == ["cold-100q", "warm-zipf-100q", "dse-grid-100q"]
