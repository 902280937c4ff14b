"""Hardened OpenQASM 2 export / import.

Only the subset of OpenQASM 2.0 needed to round-trip this library's
circuits is supported (one quantum register, the gate names in
:mod:`repro.circuit.gate`).  This exists so users can move compiled
baseline circuits in and out of other toolchains — and, since the
serving stack accepts user uploads, the import path treats its input
as **untrusted**:

- gate parameters are evaluated by a small recursive-descent arithmetic
  parser (numbers, ``pi``, ``+ - * /``, unary minus, parentheses) —
  never ``eval`` — so hostile expressions like ``9**9**9`` or
  ``__import__`` are rejected in microseconds with a typed error;
- operand indices are validated against the declared ``qreg`` size,
  duplicate operands and conflicting / missing ``qreg`` declarations
  are rejected;
- a :class:`CircuitLimits` resource guard bounds text bytes, qubits,
  gate count and expression nesting *before* any gate object is built.

Every rejection raises :class:`repro.exceptions.CircuitError` carrying
the 1-based ``line`` and ``column`` of the offending token.
:func:`validate_qasm` gives the same verdict as :func:`from_qasm` and
memoises successes, so a repeat upload is validated without a re-parse.
"""

from __future__ import annotations

import hashlib
import math
import re
import threading
from collections import OrderedDict
from dataclasses import dataclass

from repro.circuit.circuit import QuantumCircuit
from repro.circuit.gate import Gate, parameter_count
from repro.exceptions import CircuitError

_HEADER = 'OPENQASM 2.0;\ninclude "qelib1.inc";\n'

_QASM_NAMES = {
    "id": "id",
    "x": "x",
    "y": "y",
    "z": "z",
    "h": "h",
    "s": "s",
    "sdg": "sdg",
    "t": "t",
    "tdg": "tdg",
    "sx": "sx",
    "sxdg": "sxdg",
    "rx": "rx",
    "ry": "ry",
    "rz": "rz",
    "p": "p",
    "u": "u3",
    "u1": "u1",
    "u2": "u2",
    "u3": "u3",
    "cx": "cx",
    "cz": "cz",
    "cy": "cy",
    "ch": "ch",
    "cp": "cp",
    "crx": "crx",
    "cry": "cry",
    "crz": "crz",
    "swap": "swap",
    "iswap": "iswap",
    "rzz": "rzz",
    "rxx": "rxx",
    "ccx": "ccx",
    "ccz": "ccz",
    "cswap": "cswap",
    "measure": "measure",
    "reset": "reset",
    "barrier": "barrier",
}
_REVERSE_NAMES = {v: k for k, v in _QASM_NAMES.items()}
_REVERSE_NAMES["u3"] = "u"


_LIMIT_FIELDS = ("max_qubits", "max_gates", "max_text_bytes", "max_parse_depth")


@dataclass(frozen=True)
class CircuitLimits:
    """Resource guard applied to untrusted QASM before any gate is built.

    The defaults comfortably cover every workload this library generates
    while keeping a hostile upload from exhausting memory or CPU: the
    text-byte cap is checked before the parser touches the input, the
    qubit cap at the ``qreg`` declaration, the gate cap as statements
    accumulate, and the parse-depth cap inside the angle-expression
    parser.  Use :meth:`unbounded` to parse trusted, already-validated
    text (e.g. re-building a content-addressed workload in a farm
    worker).
    """

    max_qubits: int = 256
    max_gates: int = 100_000
    max_text_bytes: int = 1_000_000
    max_parse_depth: int = 32

    def __post_init__(self) -> None:
        for field in _LIMIT_FIELDS:
            value = getattr(self, field)
            if not isinstance(value, int) or value < 1:
                raise CircuitError(f"CircuitLimits.{field} must be a positive int, got {value!r}")

    @classmethod
    def unbounded(cls) -> "CircuitLimits":
        """Limits large enough to never trigger (for pre-validated text)."""
        big = 2**62
        return cls(max_qubits=big, max_gates=big, max_text_bytes=big, max_parse_depth=10_000)

    def covers(self, other: "CircuitLimits") -> bool:
        """True when every field is at least as loose as ``other``'s."""
        return all(getattr(self, f) >= getattr(other, f) for f in _LIMIT_FIELDS)

    def meet(self, other: "CircuitLimits") -> "CircuitLimits":
        """The field-wise tightest of two limits."""
        return CircuitLimits(
            **{f: min(getattr(self, f), getattr(other, f)) for f in _LIMIT_FIELDS}
        )


DEFAULT_LIMITS = CircuitLimits()


def to_qasm(circuit: QuantumCircuit) -> str:
    """Serialise a circuit to an OpenQASM 2.0 string."""
    lines = [_HEADER.rstrip("\n")]
    lines.append(f"qreg q[{circuit.num_qubits}];")
    has_measure = any(g.name == "measure" for g in circuit.gates)
    if has_measure:
        lines.append(f"creg c[{circuit.num_qubits}];")
    for gate in circuit.gates:
        qasm_name = _QASM_NAMES.get(gate.name)
        if qasm_name is None:
            raise CircuitError(f"gate {gate.name} has no OpenQASM 2 equivalent")
        operands = ", ".join(f"q[{q}]" for q in gate.qubits)
        if gate.name == "measure":
            q = gate.qubits[0]
            lines.append(f"measure q[{q}] -> c[{q}];")
            continue
        if gate.params:
            params = ", ".join(_format_angle(p) for p in gate.params)
            lines.append(f"{qasm_name}({params}) {operands};")
        else:
            lines.append(f"{qasm_name} {operands};")
    return "\n".join(lines) + "\n"


def _format_angle(value: float) -> str:
    """Render an angle, using pi fractions when exact."""
    for denom in (1, 2, 4, 8):
        for numer_sign in (1, -1):
            target = numer_sign * math.pi / denom
            if abs(value - target) < 1e-12:
                sign = "-" if numer_sign < 0 else ""
                return f"{sign}pi/{denom}" if denom != 1 else f"{sign}pi"
    return repr(float(value))


_NUMBER_RE = re.compile(r"(?:\d+(?:\.\d*)?|\.\d+)(?:[eE][+-]?\d+)?")
_IDENT_RE = re.compile(r"[A-Za-z_][A-Za-z_0-9]*")
_INDEXED_OPERAND_RE = re.compile(r"^([A-Za-z_][A-Za-z_0-9]*)\s*\[\s*(\d+)\s*\]$")
_QREG_RE = re.compile(r"^qreg\s+([A-Za-z_][A-Za-z_0-9]*)\s*\[\s*(\d+)\s*\]$")
_CREG_RE = re.compile(r"^creg\s+([A-Za-z_][A-Za-z_0-9]*)\s*\[\s*(\d+)\s*\]$")
_MEASURE_RE = re.compile(
    r"^measure\s+([A-Za-z_][A-Za-z_0-9]*)\s*\[\s*(\d+)\s*\]"
    r"\s*->\s*([A-Za-z_][A-Za-z_0-9]*)\s*\[\s*(\d+)\s*\]$"
)


class _AngleParser:
    """Recursive-descent evaluator for the QASM angle expression grammar.

    ``expr := term (('+'|'-') term)*``;
    ``term := factor (('*'|'/') factor)*``;
    ``factor := ('+'|'-') factor | '(' expr ')' | NUMBER | 'pi'``.

    Nesting is bounded by ``max_depth`` and every error carries the
    1-based line and column of the offending character in the original
    source line (``col_offset`` is the 0-based index where this
    expression starts within that line).
    """

    def __init__(self, text: str, line_no: int, col_offset: int, max_depth: int):
        self.text = text
        self.pos = 0
        self.line_no = line_no
        self.col_offset = col_offset
        self.max_depth = max_depth

    def error(self, message: str, pos: int | None = None) -> CircuitError:
        at = self.pos if pos is None else pos
        return CircuitError(
            f"line {self.line_no}: {message}",
            line=self.line_no,
            column=self.col_offset + at + 1,
        )

    def _skip_ws(self) -> None:
        while self.pos < len(self.text) and self.text[self.pos] in " \t":
            self.pos += 1

    def _peek(self) -> str:
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def parse(self) -> float:
        if not self.text.strip():
            raise self.error("empty parameter in QASM gate", pos=0)
        value = self._expr(0)
        self._skip_ws()
        if self.pos < len(self.text):
            raise self.error(f"unexpected {self.text[self.pos]!r} in angle expression")
        if not math.isfinite(value):
            raise self.error("angle expression is not finite", pos=0)
        return value

    def _expr(self, depth: int) -> float:
        value = self._term(depth)
        while True:
            self._skip_ws()
            op = self._peek()
            if op not in ("+", "-"):
                return value
            self.pos += 1
            rhs = self._term(depth)
            value = value + rhs if op == "+" else value - rhs

    def _term(self, depth: int) -> float:
        value = self._factor(depth)
        while True:
            self._skip_ws()
            op = self._peek()
            if op not in ("*", "/"):
                return value
            op_pos = self.pos
            self.pos += 1
            rhs = self._factor(depth)
            if op == "/":
                if rhs == 0.0:
                    raise self.error("division by zero in angle expression", pos=op_pos)
                value = value / rhs
            else:
                value = value * rhs

    def _factor(self, depth: int) -> float:
        if depth >= self.max_depth:
            raise self.error(f"angle expression nested deeper than {self.max_depth}")
        self._skip_ws()
        char = self._peek()
        if char == "-":
            self.pos += 1
            return -self._factor(depth + 1)
        if char == "+":
            self.pos += 1
            return self._factor(depth + 1)
        if char == "(":
            self.pos += 1
            value = self._expr(depth + 1)
            self._skip_ws()
            if self._peek() != ")":
                raise self.error("unclosed '(' in angle expression")
            self.pos += 1
            return value
        match = _NUMBER_RE.match(self.text, self.pos)
        if match:
            self.pos = match.end()
            return float(match.group())
        match = _IDENT_RE.match(self.text, self.pos)
        if match:
            if match.group() != "pi":
                raise self.error(f"unknown identifier {match.group()!r} in angle expression")
            self.pos = match.end()
            return math.pi
        if not char:
            raise self.error("angle expression ended unexpectedly")
        raise self.error(f"unexpected {char!r} in angle expression")


def _parse_angle(
    token: str,
    *,
    line_no: int = 0,
    col_offset: int = 0,
    max_depth: int = DEFAULT_LIMITS.max_parse_depth,
) -> float:
    """Safely evaluate one QASM angle expression (no ``eval``)."""
    return _AngleParser(token, line_no, col_offset, max_depth).parse()


def _err(message: str, line_no: int, column: int) -> CircuitError:
    return CircuitError(f"line {line_no}: {message}", line=line_no, column=column)


#: Significant digits allowed in a register size or index: 2**62 (the
#: unbounded qubit cap) has 19, so a longer literal can never be valid.
#: Checking before ``int()`` keeps a huge literal from raising a bare
#: ``ValueError`` (Python's int-string limit) or costing quadratic time.
_MAX_INT_DIGITS = 19


def _int_literal(digits: str, line_no: int, column: int) -> int:
    if len(digits.lstrip("0")) > _MAX_INT_DIGITS:
        raise _err(
            f"integer literal {digits[:_MAX_INT_DIGITS]}... has more than "
            f"{_MAX_INT_DIGITS} significant digits",
            line_no,
            column,
        )
    return int(digits)


def _iter_statements(text: str):
    """Yield ``(line_no, col, statement)`` triples, one per ``;``-terminated statement.

    Comments are stripped; a non-blank trailer without a terminating
    semicolon is an error.  Columns are 0-based offsets into the
    original line so downstream errors can point at exact characters.
    """
    for line_no, raw_line in enumerate(text.splitlines(), start=1):
        code = raw_line.split("//")[0]
        pos = 0
        while pos < len(code):
            semi = code.find(";", pos)
            if semi < 0:
                trailer = code[pos:]
                if trailer.strip():
                    column = pos + (len(trailer) - len(trailer.lstrip())) + 1
                    raise _err(f"statement missing ';': {trailer.strip()!r}", line_no, column)
                break
            statement = code[pos:semi]
            lead = len(statement) - len(statement.lstrip())
            stripped = statement.strip()
            if stripped:
                yield line_no, pos + lead, stripped
            pos = semi + 1


def _split_gate_statement(
    statement: str, line_no: int, col: int
) -> tuple[str, str | None, int, str, int]:
    """Split ``name(params) operands`` → (name, params, params_col, operands, operands_col)."""
    match = _IDENT_RE.match(statement)
    if match is None:
        raise _err(f"cannot parse statement: {statement!r}", line_no, col + 1)
    name = match.group()
    pos = match.end()
    while pos < len(statement) and statement[pos] in " \t":
        pos += 1
    params_text: str | None = None
    params_col = col + pos
    if pos < len(statement) and statement[pos] == "(":
        depth = 1
        start = pos + 1
        scan = start
        while scan < len(statement) and depth:
            if statement[scan] == "(":
                depth += 1
            elif statement[scan] == ")":
                depth -= 1
            scan += 1
        if depth:
            raise _err("unclosed '(' in gate parameters", line_no, col + pos + 1)
        params_text = statement[start : scan - 1]
        params_col = col + start
        pos = scan
    operands = statement[pos:]
    lead = len(operands) - len(operands.lstrip())
    return name, params_text, params_col, operands.strip(), col + pos + lead


def _parse_operands(
    operand_text: str,
    operands_col: int,
    line_no: int,
    register: tuple[str, int],
    *,
    gate_name: str,
) -> tuple[int, ...]:
    """Validate a comma-separated operand list against the declared qreg."""
    reg_name, reg_size = register
    if not operand_text:
        raise _err(f"gate {gate_name} has no operands", line_no, operands_col + 1)
    if gate_name == "barrier" and operand_text.strip() == reg_name:
        return tuple(range(reg_size))
    qubits: list[int] = []
    cursor = operands_col
    for part in operand_text.split(","):
        lead = len(part) - len(part.lstrip())
        column = cursor + lead + 1
        token = part.strip()
        match = _INDEXED_OPERAND_RE.match(token)
        if match is None:
            raise _err(
                f"cannot parse operand {token!r} (expected {reg_name}[<index>])",
                line_no,
                column,
            )
        name, index_text = match.groups()
        if name != reg_name:
            raise _err(f"operand references undeclared register {name!r}", line_no, column)
        index = _int_literal(index_text, line_no, column)
        if index >= reg_size:
            raise _err(
                f"operand {name}[{index}] out of range for qreg {reg_name}[{reg_size}]",
                line_no,
                column,
            )
        if index in qubits:
            raise _err(f"duplicate operand {name}[{index}] in {gate_name}", line_no, column)
        qubits.append(index)
        cursor += len(part) + 1
    return tuple(qubits)


def from_qasm(text: str, *, limits: CircuitLimits | None = None) -> QuantumCircuit:
    """Parse an untrusted OpenQASM 2.0 string into a :class:`QuantumCircuit`.

    ``limits`` defaults to :data:`DEFAULT_LIMITS`; every validation
    failure raises a :class:`CircuitError` carrying ``line``/``column``.
    """
    if limits is None:
        limits = DEFAULT_LIMITS
    nbytes = len(text.encode("utf-8", errors="surrogatepass"))
    if nbytes > limits.max_text_bytes:
        raise CircuitError(
            f"QASM text is {nbytes} bytes, over the {limits.max_text_bytes}-byte limit"
        )
    register: tuple[str, int] | None = None
    gates: list[Gate] = []
    for line_no, col, statement in _iter_statements(text):
        if statement.startswith("OPENQASM") or statement.startswith("include"):
            continue
        if statement.startswith("qreg"):
            match = _QREG_RE.match(statement)
            if match is None:
                raise _err(f"cannot parse qreg declaration: {statement!r}", line_no, col + 1)
            name, size_text = match.groups()
            size = _int_literal(size_text, line_no, col + 1)
            if register is not None:
                prior = f"{register[0]}[{register[1]}]"
                raise _err(
                    f"conflicting qreg {name}[{size}] (already declared {prior})",
                    line_no,
                    col + 1,
                )
            if size < 1:
                raise _err(f"qreg {name}[{size}] must hold at least one qubit", line_no, col + 1)
            if size > limits.max_qubits:
                raise _err(
                    f"qreg {name}[{size}] exceeds the {limits.max_qubits}-qubit limit",
                    line_no,
                    col + 1,
                )
            register = (name, size)
            continue
        if statement.startswith("creg"):
            if _CREG_RE.match(statement) is None:
                raise _err(f"cannot parse creg declaration: {statement!r}", line_no, col + 1)
            continue
        if register is None:
            raise _err(
                f"statement before any qreg declaration: {statement!r}", line_no, col + 1
            )
        if len(gates) >= limits.max_gates:
            raise _err(
                f"circuit exceeds the {limits.max_gates}-gate limit", line_no, col + 1
            )
        if statement.startswith("measure"):
            match = _MEASURE_RE.match(statement)
            if match is None:
                raise _err(f"cannot parse measure: {statement!r}", line_no, col + 1)
            reg_name, reg_size = register
            name, index = match.group(1), _int_literal(match.group(2), line_no, col + 1)
            if name != reg_name:
                raise _err(f"measure references undeclared register {name!r}", line_no, col + 1)
            if index >= reg_size:
                raise _err(
                    f"measure {name}[{index}] out of range for qreg {reg_name}[{reg_size}]",
                    line_no,
                    col + 1,
                )
            gates.append(Gate("measure", (index,)))
            continue
        qasm_name, params_text, params_col, operand_text, operands_col = _split_gate_statement(
            statement, line_no, col
        )
        name = _REVERSE_NAMES.get(qasm_name)
        if name is None:
            raise _err(f"unsupported QASM gate {qasm_name!r}", line_no, col + 1)
        params: tuple[float, ...] = ()
        if params_text is not None:
            parts = params_text.split(",")
            values = []
            cursor = params_col
            for part in parts:
                values.append(
                    _parse_angle(
                        part,
                        line_no=line_no,
                        col_offset=cursor,
                        max_depth=limits.max_parse_depth,
                    )
                )
                cursor += len(part) + 1
            params = tuple(values)
        expected = parameter_count(name)
        if name != "barrier" and expected != len(params):
            raise _err(
                f"gate {name} expects {expected} params, got {len(params)}", line_no, col + 1
            )
        qubits = _parse_operands(
            operand_text, operands_col, line_no, register, gate_name=name
        )
        try:
            gates.append(Gate(name, qubits, params))
        except CircuitError as exc:
            raise _err(str(exc), line_no, col + 1) from exc
    if register is None:
        raise CircuitError("QASM text does not declare a qreg")
    return QuantumCircuit(register[1], gates, name="from_qasm")


#: Bound on the validation memo (texts); least-recently-used entries go first.
VALIDATION_MEMO_ENTRIES = 1024

# sha256(text) -> (tightest limits the text was accepted under, num_qubits)
_VALIDATED: OrderedDict[str, tuple[CircuitLimits, int]] = OrderedDict()
_VALIDATED_LOCK = threading.Lock()


def validate_qasm(text: str, *, limits: CircuitLimits | None = None) -> int:
    """Validate untrusted QASM exactly as :func:`from_qasm` would; return its qubit count.

    Successes are memoised under the sha256 of the UTF-8 text together
    with the limits they passed, so a repeat upload is not re-parsed.
    Every limit only narrows what :func:`from_qasm` accepts, so a text
    accepted under ``L`` is accepted under any ``limits`` that
    :meth:`~CircuitLimits.covers` ``L``; only such a call is answered
    from the memo.  Any other call runs the real parse, so a rejection
    raises the same :class:`CircuitError` (line/column) as
    :func:`from_qasm`.  Failures are never memoised.  The memo holds at
    most :data:`VALIDATION_MEMO_ENTRIES` texts and is thread-safe.
    """
    if limits is None:
        limits = DEFAULT_LIMITS
    key = hashlib.sha256(text.encode("utf-8", errors="surrogatepass")).hexdigest()
    with _VALIDATED_LOCK:
        hit = _VALIDATED.get(key)
        if hit is not None and limits.covers(hit[0]):
            _VALIDATED.move_to_end(key)
            return hit[1]
    num_qubits = from_qasm(text, limits=limits).num_qubits
    with _VALIDATED_LOCK:
        hit = _VALIDATED.get(key)
        _VALIDATED[key] = (limits if hit is None else limits.meet(hit[0]), num_qubits)
        _VALIDATED.move_to_end(key)
        while len(_VALIDATED) > VALIDATION_MEMO_ENTRIES:
            _VALIDATED.popitem(last=False)
    return num_qubits
