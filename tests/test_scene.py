import dataclasses
import json
import re
from pathlib import Path

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
from lidarplan.cli import main
from lidarplan.scene import DEFAULT_AZIMUTH_STEP, scene_from_dict

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


BOWTIE = ((0.0, 0.0), (2.0, 2.0), (2.0, 0.0), (0.0, 2.0))
COLLINEAR = ((0.0, 0.0), (1.0, 0.0), (2.0, 0.0))


def _road(**fields):
    return {"road_segments": (RoadSegment(**{"id": "bad", "polygon": SQUARE, **fields}),)}


def _obstacle(**fields):
    return {"obstacles": (Obstacle(**{"id": "bad", "footprint": SQUARE, "height": 1.0, **fields}),)}


def _zone(**fields):
    return {"mount_zones": (MountZone(**{"id": "bad", "geometry": SQUARE,
                                         "allowed_heights": (5.0,), **fields}),)}


@pytest.mark.parametrize("overrides, message", [
    pytest.param(_road(polygon=SQUARE[:2]), "road segment 'bad': polygon needs >=3 vertices",
                 id="road-two-vertices"),
    pytest.param(_road(polygon=COLLINEAR), "road segment 'bad': polygon area must be > 0",
                 id="road-zero-area"),
    pytest.param(_road(priority_weight=-1.0),
                 "road segment 'bad': priority_weight must be >= 0", id="road-negative-weight"),
    pytest.param(_obstacle(footprint=SQUARE[:2]), "obstacle 'bad': footprint needs >=3 vertices",
                 id="obstacle-two-vertices"),
    pytest.param(_obstacle(footprint=BOWTIE), "obstacle 'bad': footprint is self-intersecting",
                 id="obstacle-bowtie"),
    pytest.param(_obstacle(footprint=COLLINEAR), "obstacle 'bad': footprint area must be > 0",
                 id="obstacle-zero-area"),
    pytest.param(_zone(kind="circle"), "mount zone 'bad': kind must be polygon or polyline",
                 id="zone-kind"),
    pytest.param(_zone(geometry=SQUARE[:2]), "mount zone 'bad': needs >=3 vertices",
                 id="zone-polygon-two-vertices"),
    pytest.param(_zone(geometry=SQUARE[:1], kind="polyline"),
                 "mount zone 'bad': needs >=2 vertices", id="zone-polyline-one-vertex"),
    pytest.param(_zone(geometry=BOWTIE), "mount zone 'bad': polygon is self-intersecting",
                 id="zone-bowtie"),
    pytest.param(_zone(allowed_heights=(5.0, 0.0)),
                 "mount zone 'bad': allowed_heights must all be > 0", id="zone-zero-height"),
    pytest.param(_zone(allowed_heights=(-1.0,)),
                 "mount zone 'bad': allowed_heights must all be > 0", id="zone-negative-height"),
    pytest.param(_zone(install_surcharge=-1.0),
                 "mount zone 'bad': install_surcharge must be >= 0", id="zone-negative-surcharge"),
    pytest.param({"catalog": (_spec(type_id="bad", azimuth_step=0.0),)},
                 "sensor 'bad': azimuth_step must be > 0", id="sensor-zero-step"),
    pytest.param({"catalog": (_spec(type_id="bad", azimuth_step=-0.5),)},
                 "sensor 'bad': azimuth_step must be > 0", id="sensor-negative-step"),
])
def test_validate_rejects_each_record_fault(overrides, message):
    """Each fault alone gives exactly its one message, naming its record."""
    assert "'bad'" in message
    assert validate_scene(minimal_scene(**overrides)) == [message]


OTHER = ((20.0, 0.0), (30.0, 0.0), (30.0, 10.0), (20.0, 10.0))


@pytest.mark.parametrize("overrides, message", [
    pytest.param({"road_segments": (RoadSegment(id="a", polygon=SQUARE),
                                    RoadSegment(id="a", polygon=OTHER, priority_weight=5.0))},
                 "road segment 'a': id is used 2 times", id="road"),
    pytest.param({"obstacles": tuple(Obstacle(id="a", footprint=f, height=1.0)
                                     for f in (SQUARE, OTHER, SQUARE))},
                 "obstacle 'a': id is used 3 times", id="obstacle"),
    pytest.param({"mount_zones": (MountZone(id="a", geometry=SQUARE, allowed_heights=(5.0,)),
                                  MountZone(id="a", geometry=OTHER, allowed_heights=(3.0,)))},
                 "mount zone 'a': id is used 2 times", id="zone"),
    pytest.param({"catalog": (_spec(type_id="a"), _spec(type_id="a", range_m=25.0))},
                 "sensor 'a': id is used 2 times", id="sensor"),
])
def test_validate_rejects_repeated_ids(overrides, message):
    """One message per repeated id, however often it repeats."""
    assert validate_scene(minimal_scene(**overrides)) == [message]


def test_validate_compares_ids_within_a_family_only():
    """An id that one road segment, one obstacle and one sensor share is no repeat."""
    scene = minimal_scene(obstacles=(Obstacle(id="r", footprint=OTHER, height=1.0),),
                          catalog=(_spec(type_id="r"),))
    assert validate_scene(scene) == []


def test_pipeline_on_an_invalid_scene_file_exit_2(demo_scene, tmp_path, capsys):
    data = scene_dict(demo_scene)
    data["mount_zones"][1]["install_surcharge"] = -1.0
    path = tmp_path / "bad.scene.json"
    path.write_text(json.dumps(data))
    assert main(["pipeline", "--scene", str(path), "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert len(err.strip().splitlines()) == 1
    zone = demo_scene.mount_zones[1].id
    assert f"mount zone {zone!r}: install_surcharge must be >= 0" in err


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


# Each scene-file record and its row in README's "Scene JSON" table.
RECORDS = {"top level": Scene, "road segment": RoadSegment, "obstacle": Obstacle,
           "mount zone": MountZone, "sensor": SensorSpec}


def test_format_declares_every_field_in_order():
    """A record's JSON fields are its dataclass fields, read in their order:
    each declares its reader and its presence."""
    for cls in RECORDS.values():
        for f in dataclasses.fields(cls):
            assert callable(f.metadata.get("read")), (cls, f.name)
            assert f.metadata.get("presence") in ("required", "nullable", "optional"), (cls, f.name)


def test_readme_scene_table_matches_the_fields():
    readme = Path(__file__).resolve().parents[1] / "README.md"
    section = readme.read_text(encoding="utf-8").split("\n## Scene JSON\n")[1].split("\n## ")[0]
    rows = {}
    for line in section.splitlines():
        cells = [cell.strip() for cell in line.strip("|").split("|")]
        if line.startswith("| ") and cells[0] in RECORDS:
            # backticked names only: the defaults in the optional column, like `[]`, are not words
            rows[cells[0]] = [re.findall(r"`(\w+)`", cell) for cell in cells[1:]]
    assert list(rows) == list(RECORDS)
    for row, cls in RECORDS.items():
        required = [f.name for f in dataclasses.fields(cls) if f.metadata["presence"] == "required"]
        optional = [f.name for f in dataclasses.fields(cls) if f.metadata["presence"] != "required"]
        assert rows[row] == [required, optional], row


DROP = object()  # an edit that removes the key


def _replaced(record, path, value):
    """`record` with the field or tuple entry at `path` set to `value`."""
    key, *rest = path
    old = record[key] if isinstance(key, int) else getattr(record, key)
    new = _replaced(old, rest, value) if rest else value
    if isinstance(key, int):
        return record[:key] + (new,) + record[key + 1:]
    return dataclasses.replace(record, **{key: new})


@pytest.mark.parametrize("edits, expected", [
    pytest.param([(("mount_zones", 0, "kind"), None)],
                 "mount_zones[0]: field 'kind' has wrong type (expected str)", id="kind-null"),
    pytest.param([(("mount_zones", 0, "kind"), DROP)], [], id="kind-absent"),
    pytest.param([(("mount_zones",), DROP)],
                 "top level: missing required field 'mount_zones'", id="mount-zones-absent"),
    pytest.param([(("mount_zones",), None)],
                 "top level: field 'mount_zones' has wrong type (expected list)",
                 id="mount-zones-null"),
    pytest.param([(("road_segments", 1, "id"), None)],
                 "road_segments[1]: field 'id' has wrong type (expected str)", id="id-null"),
    pytest.param([(("catalog", 0, "channels"), 16.0)],
                 "catalog[0]: field 'channels' has wrong type (expected int)",
                 id="channels-float"),
    pytest.param([(("catalog", 2, "range_m"), "far"), (("catalog", 2, "channels"), None)],
                 "catalog[2]: field 'channels' has wrong type (expected int)",
                 id="two-faults-wrong-types"),
    pytest.param([(("obstacles", 0, "height"), DROP), (("obstacles", 0, "footprint"), 3)],
                 "obstacles[0]: field 'footprint' has wrong type (expected list)",
                 id="two-faults-missing-and-wrong-type"),
    pytest.param([(("obstacles", 2), [1, 2])], "obstacles[2]: expected a JSON object",
                 id="non-object-entry"),
    pytest.param([(("road_segments", 0, "priority_weight"), None)],
                 [(("road_segments", 0, "priority_weight"), 1.0)], id="priority-weight-null"),
    pytest.param([(("mount_zones", 3, "install_surcharge"), None)],
                 [(("mount_zones", 3, "install_surcharge"), 0.0)], id="install-surcharge-null"),
    pytest.param([(("catalog", 0, "azimuth_step"), None)],
                 [(("catalog", 0, "azimuth_step"), DEFAULT_AZIMUTH_STEP)], id="azimuth-step-null"),
    pytest.param([(("catalog", 1, "accuracy_m"), None)],
                 [(("catalog", 1, "accuracy_m"), None)], id="accuracy-null"),
    pytest.param([(("ground_elevation",), None)], [(("ground_elevation",), 0.0)],
                 id="ground-elevation-null"),
    pytest.param([(("obstacles",), None)], [(("obstacles",), ())], id="obstacles-null"),
    pytest.param([(("catalog",), None)], [(("catalog",), ())], id="catalog-null"),
])
def test_scene_file_presence_and_types(demo_scene, edits, expected):
    """Each edit of the demo scene's JSON either fails with the message of the
    first fault in field order, or loads the demo scene with the given fields
    at these values."""
    data = scene_dict(demo_scene)
    for (*parents, last), value in edits:
        node = data
        for key in parents:
            node = node[key]
        if value is DROP:
            del node[last]
        else:
            node[last] = value
    if isinstance(expected, str):
        with pytest.raises(SceneParseError) as info:
            scene_from_dict(data)
        assert str(info.value) == expected
        return
    want = demo_scene
    for path, value in expected:
        want = _replaced(want, path, value)
    assert scene_from_dict(data) == want


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


def test_polygon_orientation_does_not_change_the_grid(tmp_path, demo_scene):
    """Polygons may be listed in either orientation: reversing every road
    polygon, obstacle footprint and mount zone leaves the grid artifacts
    byte-identical."""
    data = scene_dict(demo_scene)
    for record, key in [("road_segments", "polygon"), ("obstacles", "footprint"),
                        ("mount_zones", "geometry")]:
        for entry in data[record]:
            entry[key] = entry[key][::-1]
    assert data != scene_dict(demo_scene)
    outs = []
    for name, scene in [("as-given", scene_dict(demo_scene)), ("reversed", data)]:
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(scene))
        outs.append(tmp_path / name)
        assert main(["grid", "--types", "type-1", "--scene", str(path),
                     "--out", str(outs[-1])]) == 0
    for artifact in ("grid.vgrd", "targets.csv", "candidates.csv"):
        assert (outs[0] / artifact).read_bytes() == (outs[1] / artifact).read_bytes(), artifact
