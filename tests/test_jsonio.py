"""Value types map to and from their JSON documents through jsonio.fields_to and fields_from."""

import json
from dataclasses import dataclass, field

import numpy as np
import pytest

from vitac import jsonio
from vitac.errors import InvalidInputError
from vitac.kinematics import (
    FIXED,
    PRISMATIC,
    REVOLUTE,
    JointState,
    KinematicChain,
    Link,
    PadMount,
    load_chain_file,
    save_chain_file,
)
from vitac.pose_tracker import TrackerConfig
from vitac.se3 import PoseSE3
from vitac.sensor_model import PadCalibration, TactileFrame, TaxelResponseModel
from vitac.sim_oracle import ContactSnapshot, GroundTruth, GroundTruthTick, Primitive, SceneSpec
from vitac.stream_sync import Episode, TimedSample, align, read_episode, write_episode

_POSE = PoseSE3(np.array([0.9, 0.1, 0.2, 0.3]), np.array([0.01, -0.02, 0.3]))
_RNG = np.random.default_rng(22)


def _calibration():
    model = TaxelResponseModel(a=80.5, b=12.25, r_max=4095)
    return PadCalibration(2, _RNG.uniform(0.5, 2, (16, 16)), _RNG.uniform(-5, 5, (16, 16)), model)


def _chain_doc(path):
    # a prismatic, a revolute and a fixed link, and a mount that leaves out its grid
    doc = {
        "links": [
            {"fixed": _POSE.to_dict(), "joint": PRISMATIC, "axis": [1.0, 0.0, 0.0]},
            {"fixed": PoseSE3.identity().to_dict(), "joint": REVOLUTE, "axis": [0.0, 0.0, 1.0]},
            {"fixed": _POSE.to_dict()},
        ],
        "mounts": [{"pad_id": 3, "link": 2, "transform": _POSE.to_dict()}],
    }
    path.write_text(json.dumps(doc))
    return load_chain_file(path)


def _scene(obj):
    return SceneSpec(obj, ((0.0, PoseSE3.identity()), (1.0, _POSE)), ((0.0, 0.08), (1.0, 0.03)),
                     gripper_pose=_POSE, stiffness=1500.0, noise_sigma=1.5, seed=3)


def _truth():
    forces = {0: _RNG.uniform(0, 5, (16, 16)), 1: np.zeros((16, 16))}
    return GroundTruth((GroundTruthTick(0, PoseSE3.identity(), forces), GroundTruthTick(100_000, _POSE, forces)))


def _truth_without_forces(path):
    path.write_text(json.dumps({"t_us": 0, "pose": _POSE.to_dict()}) + "\n")
    return GroundTruth.load_jsonl(path)


def _synced_episode():
    # the drop report that sync writes into an episode's header, with ticks dropped for each stream
    times = {"a": (0, 100_000, 300_000, 400_000), "b": (0, 200_000, 400_000)}
    streams = {sid: [TimedSample(sid, t, JointState([0.0], t)) for t in ts] for sid, ts in times.items()}
    tuples, report = align(streams, 10.0, 1_000)
    return Episode(10.0, 1_000, sorted(streams), tuples, {"drop_report": report.to_metadata()})


# case -> (the value, made with a scratch path; write(value, path); read(path))
CASES = {
    "calibration": (lambda p: _calibration(), lambda v, p: v.save(p), PadCalibration.load),
    "response-model": (lambda p: _calibration().model, lambda v, p: jsonio.write_json(p, v.to_dict()),
                       lambda p: jsonio.read_json(p, TaxelResponseModel.from_dict)),
    "chain": (_chain_doc, lambda v, p: save_chain_file(p, *v), load_chain_file),
    **{f"scene-{kind}": (lambda p, obj=obj: _scene(obj), lambda v, p: v.save(p), SceneSpec.load)
       for kind, obj in (("box", Primitive.box(0.04, 0.05, 0.06)), ("cylinder", Primitive.cylinder(0.02, 0.07)),
                         ("sphere", Primitive.sphere(0.03)))},
    "truth": (lambda p: _truth(), lambda v, p: v.save_jsonl(p), GroundTruth.load_jsonl),
    "truth-no-forces": (_truth_without_forces, lambda v, p: v.save_jsonl(p), GroundTruth.load_jsonl),
    "pose": (lambda p: _POSE, lambda v, p: jsonio.write_json(p, v.to_dict()),
             lambda p: jsonio.read_json(p, PoseSE3.from_dict)),
    "drop-report": (lambda p: _synced_episode(), lambda v, p: write_episode(v, p), read_episode),
}


@pytest.mark.parametrize("case", sorted(CASES))
def test_a_document_read_and_written_again_keeps_its_bytes(tmp_path, case):
    make, write, read = CASES[case]
    p1, p2, p3 = tmp_path / "a", tmp_path / "b", tmp_path / "c"
    write(make(tmp_path / "given"), p1)
    write(read(p1), p2)
    write(read(p2), p3)
    assert p1.read_bytes() == p2.read_bytes() == p3.read_bytes()


def test_documents_carry_the_declared_keys(tmp_path):
    scene = json.loads(json.dumps(_scene(Primitive.sphere(0.03)).to_dict()))
    assert list(scene)[:3] == ["object", "object_trajectory", "aperture_trajectory"] and "obj" not in scene

    save_chain_file(tmp_path / "chain.json", *_chain_doc(tmp_path / "given.json"))
    chain = json.loads((tmp_path / "chain.json").read_text())
    assert [list(link) for link in chain["links"]] == [["fixed", "joint", "axis"]] * 2 + [["fixed", "joint"]]
    assert chain["links"][2]["joint"] == FIXED
    # a mount read without a grid is written with the default one
    assert chain["mounts"] == [{"pad_id": 3, "link": 2, "transform": _POSE.to_dict(),
                                "grid": {"rows": 16, "cols": 16, "pitch": 1.75e-3}}]

    write_episode(_synced_episode(), tmp_path / "synced.vtep")
    report = read_episode(tmp_path / "synced.vtep").metadata["drop_report"]
    assert report == {
        "ticks_total": 5,
        "dropped_ticks": [{"tick_time_us": 100_000, "missing": ["b"]},
                          {"tick_time_us": 200_000, "missing": ["a"]},
                          {"tick_time_us": 300_000, "missing": ["b"]}],
        "drops_by_stream": {"a": 1, "b": 2},
    }

    calib = _calibration().to_dict()
    assert list(calib) == ["pad_id", "gain", "offset", "model"]
    assert list(calib["model"]) == ["a", "b", "f_min", "f_sat", "r_max"]
    # a field is read under its document key only
    doc = {**_scene(Primitive.sphere(0.03)).to_dict(), "obj": {"kind": "box", "size": [0.1, 0.1, 0.1]}}
    assert SceneSpec.from_dict(doc).obj.kind == "sphere"


_LINK = {"fixed": _POSE.to_dict()}


@pytest.mark.parametrize("doc, message", [
    ({"links": [_LINK], "mounts": [{"pad_id": 0, "link": 0}]}, "missing key 'transform'"),
    ({"links": [_LINK], "mounts": [{"pad_id": 0, "transform": _POSE.to_dict()}]}, "missing key 'link'"),
    ({"links": [_LINK], "mounts": [{"link": 0, "transform": _POSE.to_dict()}]}, "missing key 'pad_id'"),
    ({"links": [[]]}, "expected a JSON object for Link, got list"),
    ({"links": [_LINK], "mounts": [5]}, "expected a JSON object for PadMount, got int"),
])
def test_a_chain_file_error_names_the_key_as_the_file_spells_it(tmp_path, doc, message):
    path = tmp_path / "chain.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(InvalidInputError, match=message):
        load_chain_file(path)


_FORCES = {0: np.zeros((2, 2))}
_IDENTITY_EQ = {
    "TrackerConfig": TrackerConfig,
    "PadMount": lambda: PadMount(0, 0),
    "KinematicChain": lambda: KinematicChain((Link(_POSE, PRISMATIC, np.array([1.0, 0.0, 0.0])),)),
    "SceneSpec": lambda: _scene(Primitive.sphere(0.03)),
    "ContactSnapshot": lambda: ContactSnapshot(0, _POSE, 0.05, JointState([0.025, -0.05]), _FORCES,
                                               {0: TactileFrame(0, 0, np.zeros((16, 16)))}),
    "GroundTruthTick": lambda: GroundTruthTick(0, _POSE, _FORCES),
    "GroundTruth": lambda: GroundTruth((GroundTruthTick(0, _POSE, _FORCES),)),
}


@pytest.mark.parametrize("kind", sorted(_IDENTITY_EQ))
def test_value_types_holding_poses_or_arrays_compare_and_hash_by_identity(kind):
    # comparing field by field would compare arrays, which raises, and would hash read-only mappings
    a, b = _IDENTITY_EQ[kind](), _IDENTITY_EQ[kind]()
    assert a == a and a != b
    assert len({a, a, b}) == 2


_SCENE = _scene(Primitive.sphere(0.03)).to_dict()
_READERS = {
    "config": lambda p: jsonio.read_json(p, TrackerConfig.from_dict),
    "model": lambda p: jsonio.read_json(p, TaxelResponseModel.from_dict),
    "calibration": PadCalibration.load,
    "scene": SceneSpec.load,
    "chain": load_chain_file,
}


def _chain(link) -> dict:
    return {"links": [_LINK, _LINK], "mounts": [{"pad_id": 0, "link": link, "transform": _POSE.to_dict()}]}


# (reader, document, error): an int or float field takes a JSON number, an int field one without a
# fractional part; the error names the key as the file spells it and the value's repr
BAD_NUMBERS = {
    "count-true": ("config", {"particle_count": True}, "particle_count must be an integer, got True"),
    "count-string": ("config", {"particle_count": "64"}, "particle_count must be an integer, got '64'"),
    "count-fraction": ("config", {"particle_count": 2048.9}, "particle_count must be an integer, got 2048.9"),
    "count-null": ("config", {"particle_count": None}, "particle_count must be an integer, got None"),
    "count-list": ("config", {"particle_count": [16]}, "particle_count must be an integer, got [16]"),
    "sigma-string": ("config", {"sigma_rotation": "wide"}, "sigma_rotation must be a number, got 'wide'"),
    "sigma-false": ("config", {"sigma_rotation": False}, "sigma_rotation must be a number, got False"),
    "prior-angle-true": ("config", {"prior": {"rotation_half_angle_deg": True}},
                         "rotation_half_angle_deg must be a number, got True"),
    "r-max-fraction": ("model", {"a": 1.0, "b": 0.0, "r_max": 1023.5}, "r_max must be an integer, got 1023.5"),
    "a-string": ("model", {"a": "1", "b": 0.0}, "a must be a number, got '1'"),
    "pad-id-string": ("calibration", {"pad_id": "0", "gain": [], "offset": []}, "pad_id must be an integer, got '0'"),
    "seed-true": ("scene", {**_SCENE, "seed": True}, "seed must be an integer, got True"),
    "points-string": ("scene", {**_SCENE, "n_camera_points": "100"}, "n_camera_points must be an integer, got '100'"),
    "link-true": ("chain", _chain(True), "link must be an integer, got True"),
    "link-fraction": ("chain", _chain(0.5), "link must be an integer, got 0.5"),
}


@pytest.mark.parametrize("kind", sorted(BAD_NUMBERS))
def test_a_number_field_refuses_what_is_not_its_kind_of_json_number(tmp_path, kind):
    reader, doc, message = BAD_NUMBERS[kind]
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(InvalidInputError) as info:
        _READERS[reader](path)
    assert str(info.value) == f"{path}: {message}"


def test_a_whole_float_reads_as_an_int_and_an_int_as_a_float(tmp_path):
    config = TrackerConfig.from_dict({"particle_count": 2048.0, "prior": {"rotation_half_angle_deg": 20}})
    assert config.particle_count == 2048 and type(config.particle_count) is int
    assert config.rotation_half_angle_deg == 20.0 and type(config.rotation_half_angle_deg) is float
    (tmp_path / "chain.json").write_text(json.dumps(_chain(1.0)))
    link = load_chain_file(tmp_path / "chain.json")[1][0].link_index
    assert link == 1 and type(link) is int


def test_a_key_path_reads_a_missing_enclosing_object_as_empty():
    default = TrackerConfig()
    for doc in ({}, {"prior": {}}):
        config = TrackerConfig.from_dict(doc)
        assert (config.translation_half_extent, config.rotation_half_angle_deg) == (0.03, 20.0)
        assert config.prior_center.to_dict() == default.prior_center.to_dict()


@dataclass(frozen=True)
class _Settings:
    ratio: float = 1  # an int default
    label: str = "a"


@dataclass(frozen=True, eq=False)
class _Placed:
    pose: PoseSE3 = field(default_factory=PoseSE3.identity)


def test_a_float_field_with_an_int_default_reads_a_fraction():
    assert jsonio.fields_from(_Settings, {"ratio": 0.5}).ratio == 0.5
    assert type(jsonio.fields_from(_Settings, {"ratio": 2}).ratio) is float


def test_a_field_of_a_type_without_a_reader_keeps_its_value_as_read():
    # the type's own __post_init__, where it has one, checks it; fields_from does not coerce it
    assert jsonio.fields_from(_Settings, {"label": 5}).label == 5


def test_a_default_factory_field_reads_through_its_type_s_from_dict():
    placed = jsonio.fields_from(_Placed, {"pose": _POSE.to_dict()})
    assert isinstance(placed.pose, PoseSE3) and placed.pose.to_dict() == _POSE.to_dict()
    with pytest.raises(KeyError, match="'t'"):
        jsonio.fields_from(_Placed, {"pose": {"q": [1.0, 0.0, 0.0, 0.0]}})
