"""Joint lines: kinematics.read_joint_lines reads canonical lines in blocks.

A canonical line is json.dumps({"timestamp_us": T, "positions": [x, ...]}); every other line
goes through jsonio.loads, so both readers must give the same states or the same error.
"""

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vitac import jsonio
from vitac.cli import main
from vitac.errors import InvalidInputError
from vitac.kinematics import _JOINT_LINE, JointColumns, _joint_from_doc, read_joint_lines


def per_line(path) -> list:
    """Every joint line read without the batch: jsonio.loads and the document parse, line by line."""
    return jsonio.read_jsonl(path, _joint_from_doc)


def outcome(read, path):
    """The states read from path, bit for bit, or the message of the error that refused it."""
    try:
        states = read(path)
    except InvalidInputError as exc:
        return str(exc)
    return [(s.timestamp_us, s.positions.dtype.str, s.positions.tobytes()) for s in states]


def _lines(n=6) -> list:
    rng = np.random.default_rng(6)
    return [json.dumps({"timestamp_us": 10_000 * i, "positions": rng.normal(0, 0.05, 4).tolist()})
            for i in range(n)]


def _write(path, lines, last_end="\n"):
    path.write_bytes(("\n".join(lines) + last_end).encode())


def _first(text: str):
    """The line with its first position's text replaced by text."""
    return lambda line: line.replace('"positions": [', '"positions": [' + text + ", ", 1)


# one line of a canonical file changed: name -> line -> the new line
LINE_MUTATIONS = {
    "minus-zero": _first("-0"),
    "minus-zero-float": _first("-0.0"),
    "minus-zero-exponent": _first("-0e0"),
    "nan": _first("NaN"),
    "infinity": _first("Infinity"),
    "minus-infinity": _first("-Infinity"),
    "1e400": _first("1e400"),
    "huge-integer": _first("1" + "0" * 400),
    "long-integer": _first("9" * 5000),
    "big-integer": _first(str(2**70 + 1)),
    "underscore": _first("1_0"),
    "space-before": _first(" 1"),
    "true": _first("true"),
    "string": _first('"0.5"'),
    "leading-zero": _first("01"),
    "plus": _first("+1"),
    "no-integer-part": _first(".5"),
    "no-fraction": _first("1."),
    "exponent-sign": _first("1E+2"),
    "empty-positions": lambda line: line.split('"positions": ')[0] + '"positions": []}',
    "nested-positions": lambda line: line.replace('"positions": [', '"positions": [[1.0], ', 1),
    "swapped-keys": lambda line: json.dumps(dict(reversed(json.loads(line).items()))),
    "extra-key": lambda line: line[:-1] + ', "extra": 1}',
    "no-space": lambda line: json.dumps(json.loads(line), separators=(",", ":")),
    "timestamp-float": lambda line: line.replace(', "positions"', '.0, "positions"', 1),
    "timestamp-exponent": lambda line: line.replace(', "positions"', 'e0, "positions"', 1),
    "timestamp-minus-zero": lambda line: line.replace('"timestamp_us": 20000', '"timestamp_us": -0', 1),
    "timestamp-negative": lambda line: line.replace('"timestamp_us": ', '"timestamp_us": -', 1),
    "timestamp-20-digits": lambda line: line.replace('"timestamp_us": 20000', '"timestamp_us": ' + "9" * 20, 1),
    "timestamp-past-int64": lambda line: line.replace('"timestamp_us": 20000', f'"timestamp_us": {2**63}', 1),
    "timestamp-before-int64": lambda line: line.replace('"timestamp_us": 20000', f'"timestamp_us": {-(2**63) - 1}', 1),
    "timestamp-true": lambda line: line.replace('"timestamp_us": 20000', '"timestamp_us": true', 1),
    "trailing-space": lambda line: line + " ",
    "unclosed": lambda line: line[:-1],
}


@pytest.mark.parametrize("kind", sorted(LINE_MUTATIONS))
def test_mutated_line_reads_as_line_by_line(tmp_path, kind):
    lines = _lines()
    lines[2] = LINE_MUTATIONS[kind](lines[2])
    path = tmp_path / "joints.jsonl"
    _write(path, lines)
    assert outcome(read_joint_lines, path) == outcome(per_line, path)


@pytest.mark.parametrize("kind", ["canonical", "crlf", "no-final-newline", "blank-lines"])
def test_line_endings_read_as_line_by_line(tmp_path, kind):
    lines = _lines()
    if kind == "blank-lines":
        lines[1:1] = ["", "  ", "\t"]
    path = tmp_path / "joints.jsonl"
    if kind == "crlf":
        path.write_bytes(("\r\n".join(lines) + "\r\n").encode())
    else:
        _write(path, lines, "" if kind == "no-final-newline" else "\n")
    assert outcome(read_joint_lines, path) == outcome(per_line, path)
    assert len(read_joint_lines(path)) == 6


def test_a_slice_of_the_columns_holds_its_states(tmp_path):
    path = tmp_path / "joints.jsonl"
    _write(path, _lines())
    states = read_joint_lines(path)
    assert outcome(lambda _: states[2:5], path) == outcome(read_joint_lines, path)[2:5]
    with pytest.raises(ValueError, match="step 1 only"):
        states[::2]


@pytest.mark.parametrize("kind, stamp", [("timestamp-past-int64", 2**63), ("timestamp-before-int64", -(2**63) - 1)])
def test_a_timestamp_past_int64_is_the_error_of_its_line(tmp_path, kind, stamp):
    lines = _lines()
    lines[2] = LINE_MUTATIONS[kind](lines[2])
    assert _JOINT_LINE.fullmatch(lines[2].encode())  # the batch's pattern takes it, and its stamp check refuses it
    path = tmp_path / "joints.jsonl"
    _write(path, lines)
    assert JointColumns.canonical([lines[2].encode()])[1].tolist() == [False]
    error = f"{path}:3: timestamp_us must be an integer in [-2**63, 2**63 - 1] us, got {stamp}"
    assert outcome(read_joint_lines, path) == error


def test_first_bad_line_is_named(tmp_path):
    bad = 2 * jsonio.BLOCK_LINES + 5  # in the third block, after two read in one pass each
    lines = _lines(4 * jsonio.BLOCK_LINES)
    lines[bad] = _first("1e400")(lines[bad])
    lines[bad + 1] = lines[bad + 1][:-1]
    path = tmp_path / "joints.jsonl"
    _write(path, lines)
    message = outcome(read_joint_lines, path)
    assert message == outcome(per_line, path)
    assert message.startswith(f"{path}:{bad + 1}: number 1e400 is not finite"), message


# JSON number text: integers of any length, and numbers with a fraction and an exponent
INTEGERS = st.integers(-(10**30), 10**30).map(str) | st.sampled_from(["0", "-0", str(2**53 + 1), str(-(2**63))])
FRACTIONS = st.tuples(st.integers(-(10**20), 10**20), st.integers(0, 10**25),
                      st.sampled_from(["", "e5", "E-3", "e+300", "e-330", "e309"])).map(
    lambda t: f"{t[0]}.{t[1]}{t[2]}" if t[1] else f"{t[0]}{t[2] or 'e0'}")
FLOATS = st.floats(allow_nan=False, allow_infinity=False).map(repr)
NUMBERS = INTEGERS | FRACTIONS | FLOATS


@settings(derandomize=True, database=None, max_examples=300, deadline=None)
@given(st.lists(NUMBERS, min_size=1, max_size=6), st.integers(0, 2**63 - 1))
def test_a_line_the_batch_reads_is_read_as_json_reads_it(tokens, stamp):
    line = b'{"timestamp_us": %d, "positions": [%s]}\n' % (stamp, ", ".join(tokens).encode())
    states, read = JointColumns.canonical([line])
    state = states[0] if read[0] else None
    try:
        doc = jsonio.loads(line)
    except ValueError:
        assert state is None  # a number too large for a float
        return
    want = jsonio.numbers("positions", doc["positions"])
    assert state is not None and state.timestamp_us == doc["timestamp_us"]
    assert state.positions.tobytes() == want.tobytes() and not state.positions.flags.writeable


def test_sync_sends_no_canonical_joint_line_through_jsonio_loads(tmp_path, monkeypatch, capsys):
    """A change to the joint line format that turned the batch reader off fails here."""
    path = tmp_path / "joints.jsonl"
    _write(path, _lines(3 * jsonio.BLOCK_LINES))
    parsed = []
    monkeypatch.setattr(jsonio, "loads", lambda text: parsed.append(text))
    assert main(["--json", "sync", "--joints", str(path), "--rate", "100", "--out", str(tmp_path / "ep.vtep")]) == 0
    assert json.loads(capsys.readouterr().out)["tuples"] == 3 * jsonio.BLOCK_LINES and parsed == []
