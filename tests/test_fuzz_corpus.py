"""Adversarial QASM corpus: every file compiles oracle-identically or rejects typed.

The corpus in ``tests/fuzz_corpus/`` encodes its expectation in the file
name: ``ok_*`` files must parse, flow through the service's untrusted
ingestion boundary and compile **byte-identically** between the serial
``reference`` oracle and a pooled executor; ``bad_*`` files must be
rejected with a typed :class:`CircuitError` /
:class:`InvalidCircuitError` — within a bounded time, with zero farm
dispatches and zero dead letters.  A Hypothesis-generated token-soup
sweep pins the same either/or guarantee on arbitrary text.  The same
corpus and token soup pin the memoised ``validate_qasm`` to a fresh
``from_qasm`` under pairs of limits, with the memo cold and warm.
"""

from __future__ import annotations

import itertools
import sys
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.circuit import qasm as qasm_module
from repro.circuit.qasm import DEFAULT_LIMITS, CircuitLimits, from_qasm, validate_qasm
from repro.core.farm import CompileFarm, FarmJob, FarmOptions, WorkloadSpec
from repro.exceptions import CircuitError, InvalidCircuitError
from repro.hardware.fpqa import FPQAConfig
from repro.service import CompileService
from repro.utils.serialization import canonical_json

CORPUS_DIR = Path(__file__).parent / "fuzz_corpus"
CORPUS = sorted(CORPUS_DIR.glob("*.qasm"))
OK_FILES = [p for p in CORPUS if p.name.startswith("ok_")]
BAD_FILES = [p for p in CORPUS if p.name.startswith("bad_")]

#: Generous per-file parse bound — hostile inputs must fail fast, and
#: even the largest valid corpus file parses in well under this.
PARSE_TIME_BOUND_S = 1.0


def _read(path: Path) -> str:
    return path.read_text(encoding="utf-8")


def test_corpus_is_present_and_named():
    assert len(OK_FILES) >= 5, "corpus lost its valid files"
    assert len(BAD_FILES) >= 10, "corpus lost its adversarial files"
    assert set(OK_FILES) | set(BAD_FILES) == set(CORPUS), (
        "every corpus file must declare its expectation via ok_/bad_ prefix"
    )


@pytest.mark.parametrize("path", CORPUS, ids=lambda p: p.name)
def test_parse_or_typed_rejection_within_bound(path):
    """The tentpole guarantee: parse success or typed CircuitError, bounded."""
    text = _read(path)
    start = time.perf_counter()
    try:
        circuit = from_qasm(text)
    except CircuitError as exc:
        elapsed = time.perf_counter() - start
        assert path.name.startswith("bad_"), f"{path.name} rejected: {exc}"
        assert elapsed < PARSE_TIME_BOUND_S, f"{path.name} took {elapsed:.3f}s to reject"
        assert exc.line is None or exc.line >= 1
    else:
        elapsed = time.perf_counter() - start
        assert path.name.startswith("ok_"), f"{path.name} unexpectedly parsed"
        assert elapsed < PARSE_TIME_BOUND_S
        assert circuit.num_qubits >= 1


@pytest.mark.parametrize("path", BAD_FILES, ids=lambda p: p.name)
def test_service_rejects_typed_without_dispatch(path, tmp_path):
    """Invalid input: typed InvalidCircuitError, no farm, no dead letter."""
    service = CompileService(tmp_path / "store", executor="reference")
    with pytest.raises(InvalidCircuitError) as excinfo:
        service.compile_qasm(_read(path), width=4)
    assert isinstance(excinfo.value.__cause__, CircuitError)
    assert service.stats.rejected_invalid == 1
    assert service.stats.farm_dispatches == 0
    assert service.queue.depth == 0
    assert not service.queue.dead_letters


@pytest.mark.parametrize("path", OK_FILES, ids=lambda p: p.name)
def test_ok_files_compile_oracle_identical(path):
    """Valid input: reference and thread executors emit identical bytes."""
    spec = WorkloadSpec.qasm(_read(path))
    config = FPQAConfig.with_width(spec.num_qubits, min(spec.num_qubits, 8))
    job = FarmJob(spec, config, FarmOptions())
    (ref,) = CompileFarm("reference").run([job], with_schedules=True)
    (thr,) = CompileFarm("thread", max_workers=2).run([job], with_schedules=True)
    assert canonical_json(ref.schedule) == canonical_json(thr.schedule), path.name


def test_warm_repeat_upload_is_store_hit_zero_routing(tmp_path):
    """Acceptance: a repeat QASM upload serves from the store, no router."""
    text = _read(OK_FILES[0])
    store = tmp_path / "store"
    cold_service = CompileService(store, executor="thread")
    cold = cold_service.compile_qasm(text, width=4)
    assert cold.source == "compiled"
    assert cold_service.stats.farm_dispatches == 1
    # a fresh service over the same store models a new serving process
    warm_service = CompileService(store, executor="thread")
    warm = warm_service.compile_qasm(text, width=4)
    assert warm.cached
    assert warm_service.stats.farm_dispatches == 0
    assert warm.schedule_json() == cold.schedule_json()


def test_uploads_content_address_by_text_sha1(tmp_path):
    """Same text → same digest (coalesces); different text → different."""
    text = _read(OK_FILES[0])
    spec_a = WorkloadSpec.qasm(text)
    spec_b = WorkloadSpec.qasm(text, name="renamed-upload")
    assert spec_a.fingerprint() == spec_b.fingerprint()
    assert spec_a.qasm_sha1() == spec_b.qasm_sha1()
    other = WorkloadSpec.qasm(_read(OK_FILES[1]))
    assert other.fingerprint() != spec_a.fingerprint()


# --- Hypothesis QASM generator: either/or on arbitrary token soup -------

_FRAGMENTS = st.sampled_from(
    [
        "OPENQASM 2.0;",
        'include "qelib1.inc";',
        "qreg q[4];",
        "qreg q[0];",
        "qreg r[4];",
        "creg c[4];",
        "h q[0];",
        "cx q[0], q[1];",
        "cx q[1], q[1];",
        "cx q[3], q[9];",
        "rx(pi/2) q[2];",
        "rx(9**9**9) q[0];",
        "rz(__import__) q[1];",
        "rz() q[1];",
        "measure q[0] -> c[0];",
        "measure q[9] -> c[0];",
        "barrier q;",
        "frobnicate q[0];",
        "h q[0]",
        "cx q[0 q[1];",
        "u3(0.1, 0.2) q[0];",
        ";;;",
        "qreg q[999999];",
        "rx((((pi)))) q[3];",
        "// a comment",
        "",
    ]
)


@settings(max_examples=60, deadline=None)
@given(st.lists(_FRAGMENTS, min_size=0, max_size=12))
def test_generated_qasm_parses_or_rejects_typed(fragments):
    """No input assembled from plausible fragments escapes the dichotomy."""
    text = "\n".join(fragments) + "\n"
    start = time.perf_counter()
    try:
        circuit = from_qasm(text)
    except CircuitError:
        pass
    else:
        assert circuit.num_qubits >= 1
    assert time.perf_counter() - start < PARSE_TIME_BOUND_S


# --- validation memo vs the from_qasm oracle ----------------------------

#: Limits from loose to tight; the tightened variants each bite on some
#: corpus file or token-soup text, so pairs of them exercise memo hits
#: that must be refused as well as ones that may be served.
MEMO_LIMITS = {
    "default": DEFAULT_LIMITS,
    "unbounded": CircuitLimits.unbounded(),
    "qubits-3": CircuitLimits(max_qubits=3),
    "gates-3": CircuitLimits(max_gates=3),
    "depth-3": CircuitLimits(max_parse_depth=3),
    "bytes-120": CircuitLimits(max_text_bytes=120),
    "all-tight": CircuitLimits(max_qubits=5, max_gates=8, max_text_bytes=200, max_parse_depth=4),
}
MEMO_LIMIT_PAIRS = list(itertools.permutations(MEMO_LIMITS, 2))


def _outcome(validate, text, limits):
    """Accept → ("ok", num_qubits); reject → ("error", line, column, message)."""
    try:
        return ("ok", validate(text, limits=limits))
    except CircuitError as exc:
        return ("error", exc.line, exc.column, str(exc))


def _oracle(text, *, limits):
    return from_qasm(text, limits=limits).num_qubits


def _assert_memo_agrees(text, first, second):
    """Cold and warm memo answers equal a fresh from_qasm, in both orders."""
    qasm_module._VALIDATED.clear()
    for name in (first, second, first, second):
        limits = MEMO_LIMITS[name]
        assert _outcome(validate_qasm, text, limits) == _outcome(_oracle, text, limits), (
            f"{first} then {second}: disagreement under {name}"
        )


def _assert_monotone(text):
    """accept(L) implies accept(L') whenever L' covers L (what the memo relies on)."""
    accepted = {
        name: _outcome(_oracle, text, limits)[0] == "ok" for name, limits in MEMO_LIMITS.items()
    }
    for tight, loose in itertools.permutations(MEMO_LIMITS, 2):
        if accepted[tight] and MEMO_LIMITS[loose].covers(MEMO_LIMITS[tight]):
            assert accepted[loose], f"accepted under {tight} but not under {loose}"


@pytest.mark.parametrize("path", CORPUS, ids=lambda p: p.name)
def test_validate_qasm_agrees_with_from_qasm(path, qasm_parses):
    text = _read(path)
    for first, second in MEMO_LIMIT_PAIRS:
        _assert_memo_agrees(text, first, second)
    _assert_monotone(text)


@settings(max_examples=60, deadline=None)
@given(
    st.lists(_FRAGMENTS, min_size=0, max_size=12),
    st.sampled_from(MEMO_LIMIT_PAIRS),
)
def test_validate_qasm_agrees_on_generated_text(fragments, pair):
    text = "\n".join(fragments) + "\n"
    _assert_memo_agrees(text, *pair)
    _assert_monotone(text)


def test_validation_memo_is_bounded_and_skips_failures(qasm_parses, monkeypatch):
    monkeypatch.setattr(qasm_module, "VALIDATION_MEMO_ENTRIES", 4)
    texts = [f"qreg q[{n}];\nh q[0];\n" for n in range(1, 11)]
    for text in texts:
        validate_qasm(text)
    assert len(qasm_module._VALIDATED) == 4
    bad = "qreg q[2];\ncx q[0], q[9];\n"
    for _ in range(2):
        with pytest.raises(CircuitError):
            validate_qasm(bad)
    assert len(qasm_module._VALIDATED) == 4
    # the oldest texts were evicted; the newest still answer without a parse
    qasm_parses.clear()
    assert validate_qasm(texts[-1]) == 10
    assert validate_qasm(texts[0]) == 1
    assert qasm_parses == [texts[0]]


def test_validation_memo_is_thread_safe(qasm_parses, monkeypatch):
    """Threads racing on hits, inserts and evictions never corrupt the memo."""
    monkeypatch.setattr(qasm_module, "VALIDATION_MEMO_ENTRIES", 8)
    texts = [f"qreg q[{n}];\ncx q[0], q[{n - 1}];\n" for n in range(2, 42)]

    def work(offset):
        return [validate_qasm(texts[(i + offset) % len(texts)]) for i in range(200)]

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=8) as pool:
            results = list(pool.map(work, range(8), timeout=60))
    finally:
        sys.setswitchinterval(interval)
    for offset, sizes in enumerate(results):
        assert sizes == [from_qasm(texts[(i + offset) % len(texts)]).num_qubits for i in range(200)]
    assert len(qasm_module._VALIDATED) == 8


def test_validation_memo_keeps_the_tightest_accepted_limits(qasm_parses):
    """Successes under two incomparable limits answer any call covering their meet."""
    text = _read(CORPUS_DIR / "ok_hostile_angles_4q.qasm")
    few_qubits = CircuitLimits(max_qubits=4, max_parse_depth=100)
    shallow = CircuitLimits(max_qubits=100, max_parse_depth=5)
    validate_qasm(text, limits=few_qubits)
    validate_qasm(text, limits=shallow)
    assert len(qasm_parses) == 2
    assert validate_qasm(text, limits=few_qubits.meet(shallow)) == 4
    assert validate_qasm(text, limits=few_qubits) == 4
    assert len(qasm_parses) == 2
