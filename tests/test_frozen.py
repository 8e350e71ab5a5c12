"""Every array or mapping a value type holds is read-only and shared with no writable caller value."""

import ast
import re
from pathlib import Path

import numpy as np
import pytest

import vitac
from vitac.frame_codec import WireFrame
from vitac.kinematics import JointState, Link
from vitac.pointcloud import AABB, CloudXYZF, FusedCloud
from vitac.pose_tracker import ContactSet, ObjectModel, ParticleSet
from vitac.se3 import PoseSE3
from vitac.sensor_model import ConsistencyReport, PadCalibration, TactileFrame
from vitac.sim_oracle import ContactSnapshot, GroundTruthTick

_PTS = np.arange(12.0).reshape(4, 3) / 10
_GRID = np.arange(256.0).reshape(16, 16)
_FUSED = np.array([[0.1, 0.2, 0.3, 0.0, 1.0, 0.0], [0.4, 0.5, 0.6, 0.7, 0.0, 1.0]])

# type -> (constructor from the array fields, {field: valid value})
CASES = {
    "PoseSE3": (lambda a: PoseSE3(**a), {"q": [0.6, 0.0, 0.8, 0.0], "t": [0.1, 0.2, 0.3]}),
    "TactileFrame-raw": (lambda a: TactileFrame(0, 0, **a), {"readings": _GRID.astype(np.uint16)}),
    "TactileFrame-normalized": (lambda a: TactileFrame(0, 0, normalized=True, **a),
                                {"readings": _GRID / 255}),
    "PadCalibration": (lambda a: PadCalibration(0, **a), {"gain": _GRID + 1, "offset": _GRID}),
    "WireFrame": (lambda a: WireFrame(0, 0, 0, **a), {"readings": _GRID.astype(np.uint16)}),
    "Link": (lambda a: Link(PoseSE3(), "revolute", **a), {"axis": [0.0, 0.0, 1.0]}),
    "JointState": (lambda a: JointState(**a), {"positions": [0.01, -0.02]}),
    "CloudXYZF": (lambda a: CloudXYZF(frame="base", **a), {"points": _GRID.reshape(-1, 4)}),
    "AABB": (lambda a: AABB(**a), {"lo": [-1.0, -1.0, -1.0], "hi": [1.0, 2.0, 3.0]}),
    "FusedCloud": (lambda a: FusedCloud(frame="base", **a), {"points": _FUSED}),
    "ObjectModel": (lambda a: ObjectModel(**a), {"points": _PTS}),
    "ContactSet": (lambda a: ContactSet(**a), {"points": _PTS}),
    "ParticleSet": (lambda a: ParticleSet(**a), {"quats": [[1.0, 0.0, 0.0, 0.0]] * 2,
                                                  "trans": _PTS[:2], "weights": [0.5, 0.5]}),
    "ConsistencyReport": (lambda a: ConsistencyReport(mean=1.0, std=0.0, outlier_count=0, **a),
                          {"block_sums": _GRID[:8, :8]}),
}


def _read_only(value, dtype):
    a = np.asarray(value, dtype=dtype)
    return np.frombuffer(a.tobytes(), dtype=dtype).reshape(a.shape)


@pytest.mark.parametrize("kind", sorted(CASES))
def test_array_fields_are_frozen_copies(kind):
    build, values = CASES[kind]
    given = {name: np.array(v) for name, v in values.items()}
    obj = build(given)
    for name, arr in given.items():
        stored = getattr(obj, name)
        assert not stored.flags.writeable, name
        before = stored.copy()
        arr.flat[0] += 1
        assert np.array_equal(stored, before), f"{name} changed with the caller's array"
    # an input that is already read-only, of the field's own dtype and shape, is stored as it is
    dtypes = {name: getattr(obj, name).dtype for name in values}
    read_only = {name: _read_only(v, dtypes[name]) for name, v in values.items()}
    obj = build(read_only)
    for name, arr in read_only.items():
        assert getattr(obj, name) is arr, f"{name} was not stored as it is"
    # a read-only input of another dtype is copied
    other = {name: _read_only(v, np.float32 if dtypes[name] == np.float64 else np.int64) for name, v in values.items()}
    obj = build(other)
    for name, arr in other.items():
        stored = getattr(obj, name)
        assert stored.dtype == dtypes[name] and not stored.flags.writeable, name
        assert not np.shares_memory(stored, arr), f"{name} was not copied"


def test_only_freeze_sets_arrays_read_only():
    src = Path(vitac.__file__).parent
    assert sorted(p.name for p in src.glob("*.py") if "setflags(" in p.read_text()) == ["frozen.py"]


def test_only_check_range_words_a_range():
    # every scalar precondition goes through errors.check_range, which words its message
    src = Path(vitac.__file__).parent
    assert sorted(p.name for p in src.glob("*.py") if "must lie in" in p.read_text()) == ["errors.py"]
    assert not [p.name for p in src.glob("*.py") if "written so that NaN fails" in p.read_text()]


def test_only_kinematics_places_taxels():
    # the simulator and the tactile cloud both place their pads through kinematics.placed_taxels
    src = Path(vitac.__file__).parent
    users = sorted(p.name for p in src.glob("*.py") if re.search(r"\b(forward_kinematics|taxel_points)\(", p.read_text()))
    assert users == ["kinematics.py"]
    # and the primitive kinds' length fields are named on one line, sim_oracle's table
    lines = [line for p in src.glob("*.py") for line in p.read_text().splitlines() if '"radius"' in line]
    assert len(lines) == 1 and lines[0].startswith("_LENGTHS = ") and '"height"' in lines[0]


def test_only_tick_grid_turns_a_rate_into_a_period():
    src = Path(vitac.__file__).parent
    text = (src / "stream_sync.py").read_text()
    start = text.index("def tick_grid(")
    body = text[start : text.index("\ndef ", start)]
    users = sorted(p.name for p in src.glob("*.py") if "round(1e6 /" in p.read_text())
    assert users == ["stream_sync.py"] and text.count("round(1e6 /") == body.count("round(1e6 /")


def test_only_se3_normalizes_a_quaternion_and_only_the_cloud_types_state_their_widths():
    src = Path(vitac.__file__).parent
    texts = {p.name: p.read_text() for p in src.glob("*.py")}
    assert not [name for name, text in texts.items() if "np.linalg.norm(quats" in text]
    # the largest-component rule for an extreme norm is stated once, in quat_normalize
    assert [name for name, text in texts.items() if "np.max(np.abs(q)" in text] == ["se3.py"]
    assert texts["se3.py"].count("np.max(np.abs(q)") == 1
    # a cloud payload's row width is its type's WIDTH
    calls = re.findall(r"_cloud_layout\(([^)]*)\)", texts["stream_sync.py"])
    assert len(calls) == 3 and not [args for args in calls if "," in args]



def test_only_stream_sync_cpus_reads_the_affinity_mask():
    # fuse's forked worker and the tracker's worker thread count CPUs by one rule
    src = Path(vitac.__file__).parent
    texts = {p.name: p.read_text() for p in src.glob("*.py")}
    assert [name for name, text in texts.items() if "sched_getaffinity" in text] == ["stream_sync.py"]
    assert texts["stream_sync.py"].count("sched_getaffinity") == 1


def test_a_record_length_is_written_in_one_place():
    # episode files and fuse's worker pipe both write their records through stream_sync._write_record
    src = Path(vitac.__file__).parent
    assert sum(p.read_text().count("_U32.pack(len(") for p in src.glob("*.py")) == 1


def test_only_the_tracker_config_names_the_prior():
    # the tracker document's prior is read and range-checked by pose_tracker.TrackerConfig alone
    src = Path(vitac.__file__).parent
    for name in ("rotation_half_angle_deg", "translation_half_extent"):
        assert [p.name for p in src.glob("*.py") if name in p.read_text()] == ["pose_tracker.py"], name


def test_only_jsonio_walks_a_dataclass_s_fields():
    # every value type maps to and from its document through jsonio.fields_to and fields_from
    src = Path(vitac.__file__).parent
    users = sorted(p.name for p in src.glob("*.py") if re.search(r"\b(asdict|fields)\(", p.read_text()))
    assert users == ["jsonio.py"]


def test_every_document_method_maps_through_jsonio():
    # to_dict calls jsonio.fields_to and from_dict jsonio.fields_from, so each key is declared once,
    # on its field; Primitive.to_dict, which writes its kind's lengths from a per-kind table, is the
    # one exception
    src = Path(vitac.__file__).parent
    mapper = {"to_dict": "fields_to", "from_dict": "fields_from"}
    hand_mapped = []
    for path in sorted(src.glob("*.py")):
        tree = ast.parse(path.read_text())
        for cls in (node for node in ast.walk(tree) if isinstance(node, ast.ClassDef)):
            for method in cls.body:
                if isinstance(method, ast.FunctionDef) and method.name in mapper:
                    calls = {ast.unparse(call.func) for call in ast.walk(method) if isinstance(call, ast.Call)}
                    if f"jsonio.{mapper[method.name]}" not in calls:
                        hand_mapped.append(f"{cls.name}.{method.name}")
    assert hand_mapped == ["Primitive.to_dict"]
    # the tracker document's prior keys are declared on TrackerConfig's fields, not in a second table
    tree = ast.parse((src / "pose_tracker.py").read_text())
    assert "_PRIOR_KEYS" not in {t.id for node in tree.body if isinstance(node, ast.Assign) for t in node.targets
                                 if isinstance(t, ast.Name)}


def test_only_a_field_whose_document_form_differs_from_its_type_is_given_a_conversion():
    # fields_from reads every other field by its declared type, so no call site restates it
    src = Path(vitac.__file__).parent
    given = []
    for path in sorted(src.glob("*.py")):
        for call in ast.walk(ast.parse(path.read_text())):
            if isinstance(call, ast.Call) and ast.unparse(call.func) == "jsonio.fields_from":
                given += [(ast.unparse(call.args[0]), str(kw.arg)) for kw in call.keywords]
    assert sorted(given) == [("GroundTruthTick", "forces"), ("Primitive", "size"),
                             ("SceneSpec", "aperture_trajectory"), ("SceneSpec", "object_trajectory")]


def test_truth_forces_are_read_only():
    tick = GroundTruthTick.from_dict({"t_us": 0, "pose": PoseSE3().to_dict(),
                                      "forces": {"0": _GRID[:2, :3].tolist()}})
    with pytest.raises(ValueError):
        tick.forces[0][0, 0] = 5.0
    with pytest.raises(TypeError):
        tick.forces[1] = None


def test_snapshot_mappings_are_read_only_copies():
    forces, frames = {0: _GRID[:2, :3].copy()}, {0: TactileFrame(0, 0, _GRID.astype(np.uint16))}
    snap = ContactSnapshot(0, PoseSE3(), 0.05, JointState([0.025, -0.05]), forces, frames)
    with pytest.raises(ValueError):
        snap.forces[0][0, 0] = 5.0
    for mapping in (snap.forces, snap.frames):
        with pytest.raises(TypeError):
            mapping[1] = None
    forces[0][0, 0] = 5.0
    forces[1] = frames[1] = None
    assert snap.forces[0][0, 0] == 0.0 and 1 not in snap.forces and 1 not in snap.frames
