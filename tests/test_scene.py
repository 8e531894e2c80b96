import dataclasses
import json

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from lidarplan import (
    MountZone,
    Obstacle,
    RoadSegment,
    Scene,
    SceneParseError,
    SceneValidationError,
    SensorSpec,
    load_scene,
    scene_bounds,
    validate_scene,
)
from lidarplan.scene import _FORMAT, scene_from_dict

SQUARE = ((0.0, 0.0), (10.0, 0.0), (10.0, 10.0), (0.0, 10.0))


def minimal_scene(**overrides) -> Scene:
    base = dict(
        road_segments=(RoadSegment(id="r", polygon=SQUARE),),
        mount_zones=(
            MountZone(id="z", geometry=SQUARE, allowed_heights=(5.0,)),
        ),
    )
    base.update(overrides)
    return Scene(**base)


def scene_dict(scene: Scene) -> dict:
    """The scene as the JSON a file would hold, fields in dataclass order."""
    return json.loads(json.dumps(dataclasses.asdict(scene)))


def test_demo_scene_structure(demo_scene):
    assert [s.id for s in demo_scene.road_segments] == [
        "central",
        "ew",
        "ns_north",
        "ns_south",
    ]
    assert len(demo_scene.obstacles) == 8
    assert len(demo_scene.mount_zones) == 4
    for zone in demo_scene.mount_zones:
        assert zone.allowed_heights == (3.5, 5.4, 8.0)
    assert demo_scene.ground_elevation == 0.0
    assert validate_scene(demo_scene) == []


def test_demo_scene_catalog(demo_scene):
    by_id = {s.type_id: s for s in demo_scene.catalog}
    assert set(by_id) == {"type-1", "type-2", "type-3"}
    t1, t2, t3 = by_id["type-1"], by_id["type-2"], by_id["type-3"]
    assert (t1.channels, t2.channels, t3.channels) == (16, 32, 128)
    assert (t1.vertical_fov_min, t1.vertical_fov_max) == (-15.0, 15.0)
    assert (t2.vertical_fov_min, t2.vertical_fov_max) == (-25.0, 15.0)
    assert (t3.vertical_fov_min, t3.vertical_fov_max) == (-25.0, 15.0)
    assert (t1.range_m, t2.range_m, t3.range_m) == (100.0, 200.0, 300.0)
    assert (t1.unit_cost, t2.unit_cost, t3.unit_cost) == (6000.0, 15000.0, 80000.0)
    for spec in (t1, t2, t3):
        assert spec.horizontal_fov == 360.0
        assert spec.capture_frequency_hz == 5.0
        assert spec.accuracy_m == 0.03


def test_sensor_lookup(demo_scene):
    assert demo_scene.sensor("type-2").channels == 32
    with pytest.raises(KeyError, match="type-9"):
        demo_scene.sensor("type-9")


def test_validate_collects_every_violation():
    scene = Scene(
        road_segments=(),
        obstacles=(Obstacle(id="bad", footprint=SQUARE, height=-1.0),),
        mount_zones=(),
    )
    bad = validate_scene(scene)
    assert "no road segments" in bad
    assert "no mount zones" in bad
    assert any("'bad'" in v and "height" in v for v in bad)
    assert len(bad) == 3


def test_validation_error_message_joins_all():
    scene = Scene(road_segments=(), mount_zones=())
    with pytest.raises(SceneValidationError) as err:
        scene_from_dict(scene_dict(scene))
    assert "no road segments" in str(err.value)
    assert "no mount zones" in str(err.value)
    assert err.value.violations == ("no road segments", "no mount zones")


def test_validate_rejects_nonconvex_obstacle():
    lshape = ((0, 0), (4, 0), (4, 2), (2, 2), (2, 4), (0, 4))
    scene = minimal_scene(obstacles=(Obstacle(id="ell", footprint=lshape, height=2.0),))
    bad = validate_scene(scene)
    assert any("'ell'" in v and "convex" in v for v in bad)


def test_validate_rejects_self_intersecting_road():
    bowtie = ((0, 0), (2, 2), (2, 0), (0, 2))
    scene = minimal_scene(road_segments=(RoadSegment(id="bow", polygon=bowtie),))
    bad = validate_scene(scene)
    assert any("'bow'" in v and "self-intersecting" in v for v in bad)


def test_validate_rejects_bad_sensor_and_zone():
    scene = minimal_scene(
        mount_zones=(MountZone(id="z", geometry=SQUARE, allowed_heights=()),),
        catalog=(
            SensorSpec(
                type_id="t",
                channels=0,
                vertical_fov_min=10.0,
                vertical_fov_max=-10.0,
                horizontal_fov=400.0,
                range_m=0.0,
                unit_cost=0.0,
            ),
        ),
    )
    bad = validate_scene(scene)
    assert any("'z'" in v and "allowed_heights" in v for v in bad)
    for needle in ("channels", "vertical FOV", "horizontal FOV", "range", "unit_cost"):
        assert any("'t'" in v and needle in v for v in bad), needle


def _spec(**overrides) -> SensorSpec:
    base = dict(type_id="t", channels=16, vertical_fov_min=-15.0, vertical_fov_max=15.0,
                horizontal_fov=360.0, range_m=100.0, unit_cost=1.0, azimuth_step=0.2)
    base.update(overrides)
    return SensorSpec(**base)


def _no_beams(*args, **kwargs):
    raise AssertionError("generate_beams called")


@pytest.mark.parametrize("overrides,count", [
    ({"channels": 10**12}, 10**12 * 1800),
    ({"azimuth_step": 1e-9}, 16 * 360_000_000_000),
    ({"channels": (1 << 22) + 1, "horizontal_fov": 0.2}, (1 << 22) + 1),
    # 360 / 5e-324 overflows to inf; the count caps the ratio at 2**62
    ({"azimuth_step": 5e-324}, 16 << 62),
], ids=["channels", "azimuth-step", "just-over", "subnormal-step"])
def test_validate_rejects_too_many_beams(monkeypatch, overrides, count):
    monkeypatch.setattr("lidarplan.raycast.generate_beams", _no_beams)
    spec = _spec(**overrides)
    assert spec.beam_count == count
    bad = validate_scene(minimal_scene(catalog=(spec,)))
    assert bad == [f"sensor 't': {count} beams per revolution exceed the limit of {1 << 22}"]


def test_validate_accepts_the_beam_limit():
    at_limit = _spec(channels=1 << 22, horizontal_fov=0.2)
    assert at_limit.beam_count == 1 << 22
    assert validate_scene(minimal_scene(catalog=(at_limit,))) == []


def test_parse_missing_field_names_location():
    data = {"road_segments": [{"polygon": [[0, 0], [1, 0], [1, 1]]}], "mount_zones": []}
    with pytest.raises(SceneParseError, match=r"road_segments\[0\].*'id'"):
        scene_from_dict(data)


def test_parse_wrong_type_names_location():
    data = {
        "road_segments": [{"id": "r", "polygon": "oops"}],
        "mount_zones": [],
    }
    with pytest.raises(SceneParseError, match=r"road_segments\[0\].*'polygon'"):
        scene_from_dict(data)


def test_parse_bad_vertex():
    data = {
        "road_segments": [{"id": "r", "polygon": [[0, 0], [1], [1, 1]]}],
        "mount_zones": [],
    }
    with pytest.raises(SceneParseError, match=r"polygon"):
        scene_from_dict(data)


def test_parse_rejects_bool_as_number(demo_scene):
    data = {
        "road_segments": [
            {"id": "r", "polygon": [[0, 0], [1, 0], [1, 1]], "priority_weight": True}
        ],
        "mount_zones": [{"id": "z", "geometry": [[0, 0], [1, 0], [1, 1]], "allowed_heights": [5]}],
    }
    with pytest.raises(SceneParseError, match="priority_weight"):
        scene_from_dict(data)
    for record, k, field, j in [
        ("road_segments", 1, "polygon", 2),
        ("obstacles", 3, "footprint", 1),
        ("mount_zones", 0, "geometry", 0),
    ]:
        data = scene_dict(demo_scene)
        data[record][k][field][j] = [True, 1]
        with pytest.raises(SceneParseError) as info:
            scene_from_dict(data)
        assert str(info.value) == f"{record}[{k}].{field}[{j}]: expected an [x, y] number pair"


def test_load_scene_reports_json_line(tmp_path):
    path = tmp_path / "broken.scene.json"
    path.write_text('{\n  "road_segments": [\n  oops\n')
    with pytest.raises(SceneParseError, match=r"line 3"):
        load_scene(path)


@pytest.mark.parametrize("path, token", [
    (("ground_elevation",), "NaN"),
    (("road_segments", 0, "priority_weight"), "NaN"),
    (("road_segments", 1, "polygon", 2, 1), "-Infinity"),
    (("obstacles", 0, "height"), "NaN"),
    (("obstacles", 3, "footprint", 1, 0), "Infinity"),
    (("mount_zones", 0, "geometry", 0, 0), "1" + "0" * 400),  # overflows a float
    (("mount_zones", 0, "geometry", 1, 1), "9" * 5000),  # past Python's int digit limit
    (("mount_zones", 1, "allowed_heights", 2), "NaN"),
    (("mount_zones", 2, "install_surcharge"), "Infinity"),
    (("catalog", 0, "range_m"), "Infinity"),
    (("catalog", 1, "unit_cost"), "NaN"),
    (("catalog", 2, "azimuth_step"), "1e400"),
    (("catalog", 0, "accuracy_m"), "-Infinity"),
])
def test_load_scene_rejects_non_finite_numbers(tmp_path, demo_scene, path, token):
    data = scene_dict(demo_scene)
    *parents, last = path
    node = data
    for key in parents:
        node = node[key]
    node[last] = "@number@"
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(data).replace('"@number@"', token))
    with pytest.raises((SceneParseError, SceneValidationError), match="finite|limit") as info:
        load_scene(bad)
    assert "\n" not in str(info.value)


def test_load_scene_missing_file(tmp_path):
    with pytest.raises(SceneParseError, match="cannot read"):
        load_scene(tmp_path / "nope.json")


def test_load_scene_rejects_non_utf8(tmp_path):
    bad = tmp_path / "bom16.json"
    bad.write_bytes(b"\xff\xfe{}")
    with pytest.raises(SceneParseError, match="cannot read"):
        load_scene(bad)


def test_unknown_keys_ignored(demo_scene):
    data = scene_dict(demo_scene)
    data["comment"] = "free-form annotation"
    data["road_segments"][0]["extra"] = 123
    assert scene_from_dict(data) == demo_scene


def test_format_declares_every_field_in_order():
    for cls, fields in _FORMAT.items():
        assert list(fields) == [f.name for f in dataclasses.fields(cls)], cls


def test_round_trip_preserves_optional_fields(tmp_path):
    scene = minimal_scene(
        obstacles=(Obstacle(id="o", footprint=SQUARE, height=3.25),),
        catalog=(
            SensorSpec(
                type_id="t",
                channels=4,
                vertical_fov_min=-10.0,
                vertical_fov_max=2.0,
                horizontal_fov=180.0,
                range_m=50.0,
                unit_cost=100.0,
                azimuth_step=1.5,
            ),
        ),
        ground_elevation=1.25,
    )
    path = tmp_path / "s.json"
    path.write_text(json.dumps(scene_dict(scene)))
    loaded = load_scene(path)
    assert loaded == scene
    assert loaded.catalog[0].capture_frequency_hz is None


def test_scene_bounds_examples(demo_scene):
    assert scene_bounds(minimal_scene()) == (0.0, 0.0, 10.0, 10.0)
    assert scene_bounds(demo_scene) == (-50.0, -50.0, 50.0, 50.0)
    two = minimal_scene(
        road_segments=(
            RoadSegment(id="a", polygon=((-5, 0), (-3, 0), (-3, 2), (-5, 2))),
            RoadSegment(id="b", polygon=((10, 7), (12, 7), (12, 9), (10, 9))),
        )
    )
    assert scene_bounds(two) == (-5.0, 0.0, 12.0, 9.0)


def test_scene_bounds_contains_all_road_vertices(rng):
    from helpers import convex_polygon

    for _ in range(25):
        polys = [
            convex_polygon(rng, rng.uniform(-30, 30), rng.uniform(-30, 30), 1, 6)
            for _ in range(int(rng.integers(1, 5)))
        ]
        scene = minimal_scene(
            road_segments=tuple(
                RoadSegment(id=f"r{k}", polygon=p) for k, p in enumerate(polys)
            )
        )
        x0, y0, x1, y1 = scene_bounds(scene)
        for p in polys:
            for vx, vy in p:
                assert x0 <= vx <= x1 and y0 <= vy <= y1


def test_polyline_mount_zone_accepted():
    scene = minimal_scene(
        mount_zones=(
            MountZone(
                id="rail",
                geometry=((0.0, 0.0), (10.0, 0.0)),
                allowed_heights=(4.0,),
                kind="polyline",
            ),
        )
    )
    assert validate_scene(scene) == []


def test_fixture_file_is_annotated():
    from lidarplan import demo_scene_path

    raw = json.loads(demo_scene_path().read_text())
    assert "comment" in raw  # documents the modeling approximations


JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=6)
    | st.sampled_from([10**400, -(10**400), 1e308, -1e308, 5e-324]),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=6), inner, max_size=3),
    max_leaves=6,
)
# Each splice walks the scene dict by key positions (taken modulo the keys
# there) and replaces the value where the walk ends.
SPLICES = st.lists(
    st.tuples(st.lists(st.integers(0, 40), min_size=1, max_size=5), JSON_VALUES),
    min_size=1, max_size=3,
)


def _splice(data: dict, steps: list[int], value) -> None:
    node = data
    for n, step in enumerate(steps):
        keys = list(node) if isinstance(node, dict) else range(len(node))
        key = keys[step % len(keys)]
        child = node[key]
        if n == len(steps) - 1 or not (isinstance(child, (dict, list)) and child):
            node[key] = value
            return
        node = child


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(splices=SPLICES)
# catalog[0].horizontal_fov ([3, 0, 4]) = -1e308 with its azimuth_step ([3, 0, 7]) = 0.5
# once overflowed the beam count
@example(splices=[([3, 0, 4], -1e308), ([3, 0, 7], 0.5)])
def test_scene_from_dict_fuzz(demo_scene, splices):
    data = scene_dict(demo_scene)
    for steps, value in splices:
        _splice(data, steps, value)
    try:
        scene_from_dict(data)
    except (SceneParseError, SceneValidationError) as exc:
        assert "\n" not in str(exc)
