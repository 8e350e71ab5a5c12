"""Fuzzing every file and stream the toolkit reads.

Each input must load or raise VitacError. Through main, the command that reads it
must exit 0, 1 or 2, print exactly one `error:` line on stderr when it fails, and
nothing on stderr (a warning included) when it succeeds.

Numbers in the generated documents stay small: sizes read from files, such as
a scene's n_camera_points or grid rows, are allocated up to their bounds, and
a fuzzed size near a bound would take about 1 GB.
"""

import contextlib
import copy
import io
import json
import struct
import warnings
import zlib

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from vitac.cli import main
from vitac.errors import VitacError
from vitac.frame_codec import FRAME_LEN, StreamDecoder, WireFrame, crc16_ccitt_false, encode_frame
from vitac.kinematics import JointState
from vitac.pointcloud import CloudXYZF, FusedCloud, read_cloud_ply
from vitac.sensor_model import TactileFrame
from vitac.stream_sync import Episode, SyncedTuple, TimedSample, read_episode, write_episode

from test_cli import _READS, _argv, good_inputs  # noqa: F401 (good_inputs is a fixture)

FUZZ = settings(derandomize=True, database=None, max_examples=30, deadline=None,
                suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large])


def verdict(load, *args, **kwargs):
    """None when load(*args, **kwargs) succeeds, else the type and message of its VitacError."""
    try:
        load(*args, **kwargs)
    except VitacError as exc:
        return type(exc), str(exc)
    return None


def run_cli(argv) -> int:
    """main(argv), checking the exit code and what it printed on stderr."""
    err = io.StringIO()
    with warnings.catch_warnings(record=True) as caught, contextlib.redirect_stderr(err), \
            contextlib.redirect_stdout(io.StringIO()):
        warnings.simplefilter("always")
        code = main(argv)
    text = err.getvalue() + "".join(f"{w.category.__name__}: {w.message}\n" for w in caught)
    assert code in (0, 1, 2), code
    if code:
        assert text.startswith("error: ") and text.count("\n") == 1, text
    else:
        assert text == "", text
    return code


# ------------------------------------------------------------- JSON documents

# every key some loader reads, so that fuzzed objects can reach past the first lookup
KEYS = sorted({
    "q", "t", "pose", "gap", "kind", "size", "radius", "height", "rows", "cols", "pitch",
    "a", "b", "f_min", "f_sat", "r_max", "min", "max", "links", "mounts", "fixed", "joint",
    "axis", "pad_id", "link", "transform", "grid", "gain", "offset", "model", "prior", "center",
    "t_us", "forces", "timestamp_us", "positions", "readings", "seq", "object",
    "object_trajectory", "aperture_trajectory", "seed", "particle_count", "sigma_rotation",
    "translation_half_extent", "rotation_half_angle_deg", "activation_threshold",
})
LEAVES = st.one_of(
    st.none(), st.booleans(), st.integers(-3, 40), st.floats(-1e3, 1e3),
    st.sampled_from(["", "x", "nan", "1e400", "box", "cylinder", "sphere", "revolute",
                     "prismatic", "fixed", "0"]),
)
VALUES = st.recursive(
    LEAVES,
    lambda kids: st.lists(kids, max_size=5) | st.dictionaries(st.sampled_from(KEYS), kids, max_size=4),
    max_leaves=16,
)


def _paths(doc, prefix=()):
    """The path to every value below the root of doc."""
    items = doc.items() if isinstance(doc, dict) else enumerate(doc) if isinstance(doc, list) else ()
    for key, value in items:
        yield prefix + (key,)
        yield from _paths(value, prefix + (key,))


@st.composite
def mutated(draw, doc):
    """doc with one to three of its values replaced by fuzz or deleted, or all of it replaced."""
    if draw(st.integers(0, 9)) == 0:
        return draw(VALUES)
    doc = copy.deepcopy(doc)
    for _ in range(draw(st.integers(1, 3))):
        paths = list(_paths(doc))
        if not paths:
            break
        path = draw(st.sampled_from(paths))
        parent = doc
        for key in path[:-1]:
            parent = parent[key]
        if isinstance(parent, dict) and draw(st.booleans()):
            del parent[path[-1]]
        else:
            parent[path[-1]] = draw(st.one_of(LEAVES, VALUES))
    return doc


JSON_LINES = ("--truth", "--poses", "--joints", "--tactile")


@pytest.mark.parametrize("flag", sorted(set(_READS) - {"--object"}))  # the PLY file is fuzzed below
def test_json_file_loads_or_is_one_error_line(good_inputs, tmp_path_factory, flag):
    with open(good_inputs[flag]) as fh:
        docs = [json.loads(line) for line in fh] if flag in JSON_LINES else [json.load(fh)]
    d = tmp_path_factory.mktemp("json")
    path, out = d / "in", d / "out"

    @FUZZ
    @given(st.tuples(*[mutated(doc) for doc in docs]), st.integers(0, 9))
    def check(new_docs, cut):
        lines = [json.dumps(doc) for doc in new_docs]
        text = "\n".join(lines) + "\n" if flag in JSON_LINES else lines[0]
        if cut == 0:  # a file cut short
            text = text[: len(text) // 2]
        path.write_text(text)
        run_cli(_argv(good_inputs, flag, path, out))

    check()


# ---------------------------------------------------------------- calibrate CSV

CSV_WORDS = st.sampled_from(["", "force", "nan", "inf", "-1", "1e400", '"3"', "\x00", " 4 "])
CSV_ROWS = st.lists(
    st.tuples(st.one_of(st.floats(0, 12).map(repr), CSV_WORDS),
              st.one_of(st.floats(0, 1100).map(repr), CSV_WORDS),
              st.lists(CSV_WORDS, max_size=2)).map(lambda r: ",".join([r[0], r[1], *r[2]])),
    max_size=12,
)


@FUZZ
@given(CSV_ROWS, st.sampled_from([b"", b"\xff\xfe", b"\xe9", b"\r"]), st.integers(0, 200))
def test_calibrate_csv_is_one_error_line(tmp_path_factory, rows, junk, at):
    d = tmp_path_factory.getbasetemp()
    data = "\n".join(rows).encode()
    at = min(at, len(data))
    (d / "samples.csv").write_bytes(data[:at] + junk + data[at:])
    run_cli(["calibrate", "--samples", str(d / "samples.csv"), "--out", str(d / "calib-out.json")])


# ------------------------------------------------------------------- PLY files

PLY_SPOILERS = st.sampled_from(["nan", "inf", "word", "1e400", "#", "0x1", "", "1 2"])


@st.composite
def ply_texts(draw, width):
    """A PLY whose vertex rows hold width numbers each, up to two tokens spoiled."""
    props = ["x", "y", "z"] + draw(st.sampled_from([[], ["f"], ["f", "g"], ["q"]]))
    rows = draw(st.lists(st.lists(st.floats(-10, 10).map(repr), min_size=width, max_size=width), max_size=5))
    for _ in range(draw(st.integers(0, 2)) if rows else 0):
        draw(st.sampled_from(rows))[draw(st.integers(0, width - 1))] = draw(PLY_SPOILERS)
    lines = [" ".join(row) for row in rows]
    if draw(st.integers(0, 4)) == 0:
        lines.insert(draw(st.integers(0, len(lines))), "")
    count = str(len(rows)) if draw(st.integers(0, 3)) else draw(st.sampled_from(["-1", "0", "6", "many"]))
    head = ["ply", "format ascii 1.0", "comment frame base", f"element vertex {count}"]
    head += [f"property double {p}" for p in props]
    if draw(st.integers(0, 9)) == 0:
        del head[draw(st.integers(0, len(head) - 1))]
    return "\n".join(head + ["end_header"] + lines) + "\n"


@pytest.mark.parametrize("width", range(1, 6))
def test_ply_loads_or_is_one_error_line(tmp_path_factory, width):
    cloud_dir = tmp_path_factory.mktemp("plys")
    path = cloud_dir / "0_0.ply"

    @FUZZ
    @given(ply_texts(width))
    def check(text):
        path.write_text(text)
        verdict(read_cloud_ply, path)
        run_cli(["sync", "--cloud", str(cloud_dir), "--out", str(cloud_dir / "out.vtep")])

    check()


# ------------------------------------------------------------ wire byte stream

def _frame(pad_id, seq, readings_seed):
    readings = np.random.default_rng(readings_seed).integers(0, 1024, size=(16, 16))
    return encode_frame(TactileFrame(pad_id, 1000 * seq, readings), seq)


@st.composite
def wire_parts(draw):
    frame = bytearray(_frame(draw(st.integers(0, 3)), draw(st.integers(0, 9)), draw(st.integers(0, 3))))
    kind = draw(st.integers(0, 4))
    if kind == 1:  # one byte changed
        frame[draw(st.integers(0, FRAME_LEN - 1))] ^= draw(st.integers(1, 255))
    elif kind == 2:  # another version, re-sealed
        frame[2] = draw(st.integers(0, 255))
        frame[-2:] = crc16_ccitt_false(bytes(frame[:-2])).to_bytes(2, "big")
    elif kind == 3:  # cut short
        del frame[draw(st.integers(0, FRAME_LEN - 1)):]
    elif kind == 4:
        return draw(st.binary(max_size=40))
    return bytes(frame)


@FUZZ
@given(st.lists(wire_parts(), max_size=6), st.integers(1, 700))
def test_wire_stream_never_raises(tmp_path_factory, parts, chunk):
    data = b"".join(parts)
    decoder = StreamDecoder()
    for i in range(0, len(data), chunk):
        assert all(isinstance(f, WireFrame) for f in decoder.feed(data[i : i + chunk]))
    d = tmp_path_factory.getbasetemp()
    (d / "raw.bin").write_bytes(data)
    assert run_cli(["decode", "--in", str(d / "raw.bin"), "--out", str(d / "raw-out.jsonl")]) == 0


# ------------------------------------------------------------ .vtep episodes

def _episode_parts(tmp_path_factory):
    """(header document, record body) of a one-tuple episode holding every payload type."""
    members = {
        "tactile/0": TactileFrame(0, 5, np.arange(256).reshape(16, 16)),
        "tactile/1": TactileFrame(1, 6, np.full((16, 16), 0.5), normalized=True),
        "camera/0": CloudXYZF(np.arange(8.0).reshape(2, 4), "base"),
        "fused": FusedCloud(np.array([[0.0, 0, 0, 0.5, 0, 1]]), "base"),
        "joints": JointState([0.01, -0.02], 7),
    }
    tup = SyncedTuple(0, {sid: TimedSample(sid, 0, p) for sid, p in members.items()})
    path = tmp_path_factory.getbasetemp() / "base.vtep"
    write_episode(Episode(10.0, 0, sorted(members), [tup]), path)
    data = path.read_bytes()
    n_header = struct.unpack("<I", data[6:10])[0]
    return json.loads(data[10 : 10 + n_header]), data[14 + n_header : -4]


@st.composite
def episode_bytes(draw, header, body):
    header = draw(mutated(header)) if draw(st.booleans()) else header
    body = bytearray(body)
    for _ in range(draw(st.integers(0, 3))):
        at = draw(st.integers(0, len(body)))
        body[at : at + draw(st.integers(0, 4))] = draw(st.binary(max_size=4))
    raw = json.dumps(header).encode()
    data = b"VTEP" + struct.pack("<HI", 1, len(raw)) + raw
    data += struct.pack("<I", len(body)) + body + struct.pack("<I", zlib.crc32(body))
    if draw(st.integers(0, 9)) == 0:
        data = data[: draw(st.integers(0, len(data)))]
    return data


def test_episode_loads_or_is_one_error_line(tmp_path_factory):
    header, body = _episode_parts(tmp_path_factory)
    path = tmp_path_factory.getbasetemp() / "fuzzed.vtep"

    @FUZZ
    @given(episode_bytes(header, body))
    def check(data):
        path.write_bytes(data)
        full = verdict(read_episode, path)
        # a skipped payload runs every check a built one does: same verdict, same message
        assert verdict(read_episode, path, keep=()) == full
        assert verdict(read_episode, path, keep=("tactile/",)) == full
        run_cli(["stats", "--episode", str(path)])

    check()
