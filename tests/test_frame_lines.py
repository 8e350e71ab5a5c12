"""The decode-format frame lines: frame_lines writes them, read_frame_lines reads them.

A canonical line is exactly json.dumps of the frame's document; every other line goes
through jsonio.loads, so both readers must give the same frames or the same error.
"""

import dataclasses
import json

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from vitac import jsonio
from vitac.cli import main
from vitac.errors import InvalidInputError
from vitac.frame_codec import (
    MAX_READING,
    FrameColumns,
    WireFrame,
    _frame_from_doc,
    encode_frame,
    frame_lines,
    read_frame_lines,
)
from vitac.sensor_model import TactileFrame

# the last value of each digit count, and the first of the next
EDGE_READINGS = [0, 9, 10, 99, 100, 999, 1000, MAX_READING]


def dumps_lines(frames) -> bytes:
    """The lines json.dumps writes for frames: what frame_lines must match byte for byte."""
    docs = ({"pad_id": f.pad_id, "seq": f.seq, "timestamp_us": f.timestamp_us, "readings": f.readings.tolist()}
            for f in frames)
    return b"".join(json.dumps(doc, allow_nan=False).encode() + b"\n" for doc in docs)


def edge_frames() -> list:
    rng = np.random.default_rng(23)
    return [
        WireFrame(0, 0, 0, np.zeros((16, 16), int)),
        WireFrame(255, 2**32 - 1, 2**64 - 1, np.resize(EDGE_READINGS, (16, 16))),
        WireFrame(7, 1, 2**63, rng.choice(EDGE_READINGS, (16, 16))),
    ]


def _readings(seed: int, edges: bool) -> np.ndarray:
    rng = np.random.default_rng(seed)
    return rng.choice(EDGE_READINGS, (16, 16)) if edges else rng.integers(0, MAX_READING + 1, (16, 16))


WIRE_FRAMES = st.builds(
    WireFrame,
    st.integers(0, 255),
    st.one_of(st.sampled_from([0, 2**32 - 1]), st.integers(0, 2**32 - 1)),
    st.one_of(st.sampled_from([0, 2**64 - 1]), st.integers(0, 2**64 - 1)),
    st.builds(_readings, st.integers(0, 2**32 - 1), st.booleans()),
)


@settings(derandomize=True, database=None, max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(st.lists(WIRE_FRAMES, max_size=40))
def test_frame_lines_are_json_dumps(frames):
    assert frame_lines(frames) == dumps_lines(frames)


@pytest.mark.parametrize("n", [0, 1, 300])
def test_frame_lines_chunk_sizes(n):
    frames = (edge_frames() * n)[:n]
    assert frame_lines(frames) == dumps_lines(frames)


def test_frame_lines_edge_values():
    frames = edge_frames()
    assert frame_lines(frames) == dumps_lines(frames)
    assert frame_lines(frames[1:2]).startswith(
        b'{"pad_id": 255, "seq": 4294967295, "timestamp_us": 18446744073709551615, "readings": [[0, 9, 10, 99, '
    )


def test_decode_of_a_capture_without_frames_writes_an_empty_file(tmp_path, capsys):
    raw = tmp_path / "raw.bin"
    raw.write_bytes(b"\x00\xa5" * 500)
    out = tmp_path / "frames.jsonl"
    assert main(["--json", "decode", "--in", str(raw), "--out", str(out)]) == 0
    assert json.loads(capsys.readouterr().out)["frames"] == 0
    assert out.read_bytes() == b""


def per_line(path) -> list:
    """Every tactile line read without the batch: jsonio.loads and the document parse, line by line."""
    return jsonio.read_jsonl(path, _frame_from_doc)


def outcome(read, path):
    """The frames read from path, or the message of the error that refused it."""
    try:
        frames = read(path)
    except InvalidInputError as exc:
        return str(exc)
    return [(f.pad_id, f.timestamp_us, f.readings.dtype.str, f.readings.tobytes()) for f in frames]


def _largest_time_frame() -> WireFrame:
    """The edge frame of the largest values, at the largest time a line may hold, 2**63 - 1."""
    return dataclasses.replace(edge_frames()[1], timestamp_us=2**63 - 1)


def _canonical_text(n=5) -> list:
    rng = np.random.default_rng(5)
    frames = [WireFrame(i % 4, i, 10_000 * i, rng.integers(0, MAX_READING + 1, (16, 16))) for i in range(n)]
    frames[1] = _largest_time_frame()
    return frame_lines(frames).decode().splitlines()


def _set_first_reading(line: str, text: str) -> str:
    head, rest = line.split('"readings": [[', 1)
    return head + '"readings": [[' + text + rest[rest.index(","):]


def _row(line: str, n: int) -> str:
    doc = json.loads(line)
    doc["readings"][0] = (doc["readings"][0] * 2)[:n]
    return json.dumps(doc)


# one line of a canonical file changed: name -> line -> the new line
LINE_MUTATIONS = {
    "reordered-keys": lambda line: json.dumps(dict(reversed(json.loads(line).items()))),
    "extra-key": lambda line: line[:-1] + ', "extra": 1}',
    "extra-space-in-head": lambda line: line.replace('"seq": ', '"seq":  '),
    "extra-space-in-readings": lambda line: line.replace(", ", ",  ", 40),
    "no-space": lambda line: json.dumps(json.loads(line), separators=(",", ":")),
    "pad_id-leading-zero": lambda line: line.replace('"pad_id": 2', '"pad_id": 02'),
    "pad_id-negative": lambda line: line.replace('"pad_id": 2', '"pad_id": -2'),
    "pad_id-256": lambda line: line.replace('"pad_id": 2', '"pad_id": 256'),
    "timestamp-float": lambda line: line.replace(', "readings"', '.0, "readings"'),
    "timestamp-2**63": lambda line: line.replace('"timestamp_us": 20000', f'"timestamp_us": {2**63}'),
    "timestamp-2**64-1": lambda line: line.replace('"timestamp_us": 20000', f'"timestamp_us": {2**64 - 1}'),
    "value-07": lambda line: _set_first_reading(line, "07"),
    "value-1024": lambda line: _set_first_reading(line, "1024"),
    "value-65535": lambda line: _set_first_reading(line, "65535"),
    "value-65536": lambda line: _set_first_reading(line, "65536"),
    "value-minus-1": lambda line: _set_first_reading(line, "-1"),
    "value-1.0": lambda line: _set_first_reading(line, "1.0"),
    "value-empty": lambda line: _set_first_reading(line, ""),
    "digit-in-separator": lambda line: line.replace("], [", "]5, [", 1),
    "digit-before-readings": lambda line: line.replace('"readings": [[', '"readings": 5[['),
    "tab-for-space": lambda line: line.replace(", ", ",\t", 1),
    "brace-for-bracket": lambda line: line.replace("], [", "], {", 1),
    "15-values": lambda line: _row(line, 15),
    "17-values": lambda line: _row(line, 17),
    "15-rows": lambda line: json.dumps({**json.loads(line), "readings": json.loads(line)["readings"][:15]}),
    "not-utf8": lambda line: line.replace('"seq"', '"s\udcffeq"'),
    "unclosed": lambda line: line[:-1],
}


def _write(path, lines, end="\n", last_end=None):
    text = "".join(line + end for line in lines[:-1]) + lines[-1] + (end if last_end is None else last_end)
    path.write_bytes(text.encode("utf-8", "surrogateescape"))


@pytest.mark.parametrize("kind", sorted(LINE_MUTATIONS))
def test_mutated_line_reads_as_line_by_line(tmp_path, kind):
    lines = _canonical_text()
    lines[2] = LINE_MUTATIONS[kind](lines[2])
    path = tmp_path / "frames.jsonl"
    _write(path, lines)
    assert FrameColumns.canonical([path.read_bytes().splitlines(keepends=True)[2]])[1].tolist() == [False]
    assert outcome(read_frame_lines, path) == outcome(per_line, path)


@pytest.mark.parametrize("kind, stamp", [("timestamp-2**63", 2**63), ("timestamp-2**64-1", 2**64 - 1)])
def test_a_timestamp_past_int64_is_the_error_of_its_line(tmp_path, kind, stamp):
    lines = _canonical_text()
    lines[2] = LINE_MUTATIONS[kind](lines[2])
    path = tmp_path / "frames.jsonl"
    _write(path, lines)
    error = f"{path}:3: timestamp_us must be an integer in [-2**63, 2**63 - 1] us, got {stamp}"
    assert outcome(read_frame_lines, path) == error


@pytest.mark.parametrize("kind", ["canonical", "crlf", "no-final-newline", "blank-lines"])
def test_line_endings_read_as_line_by_line(tmp_path, kind):
    lines = _canonical_text()
    if kind == "blank-lines":
        lines[1:1] = ["", "  ", "\t"]
        lines.append("")
    path = tmp_path / "frames.jsonl"
    _write(path, lines, "\r\n" if kind == "crlf" else "\n", "" if kind == "no-final-newline" else None)
    assert outcome(read_frame_lines, path) == outcome(per_line, path)
    assert len(read_frame_lines(path)) == 5


EDGE_LINE = frame_lines([_largest_time_frame()])


@settings(derandomize=True, database=None, max_examples=300, deadline=None)
@given(st.lists(st.tuples(st.integers(0, len(EDGE_LINE) - 1), st.sampled_from(b'0123456789 ,[]{}-."\r\t\xff'),
                          st.sampled_from(["insert", "replace", "delete"])), min_size=1, max_size=3))
def test_a_line_the_batch_reads_is_read_as_json_reads_it(edits):
    line = bytearray(EDGE_LINE)
    for at, byte, how in edits:
        at = min(at, len(line) - 1)
        if how == "insert":
            line.insert(at, byte)
        elif how == "replace":
            line[at] = byte
        else:
            del line[at]
    frames, read = FrameColumns.canonical([bytes(line)])
    if read[0]:
        frame = frames[0]
        doc = jsonio.loads(bytes(line))
        assert (frame.pad_id, frame.timestamp_us, frame.readings.tolist()) == (
            doc["pad_id"], doc["timestamp_us"], doc["readings"])


def test_canonical_lines_take_the_batch_path():
    lines = [line.encode() + b"\n" for line in _canonical_text(40)]
    batch, read = FrameColumns.canonical(lines)
    assert read.all() and len(batch) == len(lines)
    want = [jsonio.loads(line) for line in lines]
    for frame, doc in zip(batch, want):
        assert (frame.pad_id, frame.timestamp_us) == (doc["pad_id"], doc["timestamp_us"])
        assert frame.readings.dtype == np.uint16 and frame.readings.tolist() == doc["readings"]


def test_bad_value_on_a_canonical_line_before_a_malformed_line_is_named(tmp_path):
    bad = 2 * jsonio.BLOCK_LINES + 5  # in the third block, after two blocks read in one pass each
    lines = _canonical_text(4 * jsonio.BLOCK_LINES)
    lines[bad] = _set_first_reading(lines[bad], "-1")
    lines[bad + 1] = lines[bad + 1][:-1]
    lines[3 * jsonio.BLOCK_LINES + 1] = "{"
    path = tmp_path / "frames.jsonl"
    _write(path, lines)
    message = outcome(read_frame_lines, path)
    assert message == outcome(per_line, path)
    assert message.startswith(f"{path}:{bad + 1}: raw readings must be integers"), message


def test_decode_then_sync_sends_no_tactile_line_through_jsonio_loads(tmp_path, monkeypatch, capsys):
    """A change to the line format that turned the batch reader off fails here."""
    rng = np.random.default_rng(8)
    frames = [TactileFrame(i % 4, 25_000 * i, rng.choice(EDGE_READINGS, (16, 16))) for i in range(300)]
    raw, lines, episode = tmp_path / "raw.bin", tmp_path / "frames.jsonl", tmp_path / "ep.vtep"
    raw.write_bytes(b"".join(encode_frame(f, i) for i, f in enumerate(frames)))
    assert main(["decode", "--in", str(raw), "--out", str(lines)]) == 0
    capsys.readouterr()

    def refuse(text):
        raise AssertionError(f"a tactile line went through jsonio.loads: {text[:60]!r}")

    monkeypatch.setattr(jsonio, "loads", refuse)
    assert main(["--json", "sync", "--tactile", str(lines), "--out", str(episode)]) == 0
    assert json.loads(capsys.readouterr().out)["tuples"] == 74  # 10 Hz ticks from 0.1 s, when all 4 pads have begun, to 7.4 s


def test_decode_builds_no_wire_frame(tmp_path, monkeypatch, capsys):
    """decode writes each chunk's lines from the decoder's frame batch; a per-frame object fails here."""
    rng = np.random.default_rng(9)
    frames = [TactileFrame(i % 4, 25_000 * i, rng.choice(EDGE_READINGS, (16, 16))) for i in range(300)]
    raw, lines = tmp_path / "raw.bin", tmp_path / "frames.jsonl"
    raw.write_bytes(b"".join(encode_frame(f, i) for i, f in enumerate(frames)))
    built = []
    monkeypatch.setattr(WireFrame, "__post_init__", lambda self: built.append(self))
    assert main(["--json", "decode", "--in", str(raw), "--out", str(lines)]) == 0
    assert json.loads(capsys.readouterr().out)["frames"] == 300 and built == []
    monkeypatch.undo()
    assert [(f.pad_id, f.timestamp_us, f.readings.tolist()) for f in read_frame_lines(lines)] == [
        (f.pad_id, f.timestamp_us, f.readings.tolist()) for f in frames]
