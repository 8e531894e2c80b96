from dataclasses import replace

import numpy as np
import pytest

from helpers import _seg_dist, point_in_polygon_ref
from lidarplan import (
    EmptyGridError,
    MountZone,
    RoadSegment,
    Scene,
    SensorSpec,
    discretize_roi,
    enumerate_candidates,
)
from lidarplan.discretization import (
    CANDIDATES_CSV_HEADER,
    TARGETS_CSV_HEADER,
    lattice_coords,
    read_candidates_csv,
    read_targets_csv,
    write_candidates_csv,
    write_targets_csv,
)


def rect(x0, y0, x1, y1):
    return ((x0, y0), (x1, y0), (x1, y1), (x0, y1))


def road_scene(*segments, zones=None):
    if zones is None:
        zones = (MountZone(id="z", geometry=rect(0, 0, 1, 1), allowed_heights=(5.0,)),)
    return Scene(road_segments=tuple(segments), mount_zones=tuple(zones))


TINY_SPEC = SensorSpec(
    type_id="tiny",
    channels=4,
    vertical_fov_min=-20.0,
    vertical_fov_max=0.0,
    horizontal_fov=360.0,
    range_m=60.0,
    unit_cost=100.0,
    azimuth_step=10.0,
)


def test_lattice_coords_excludes_endpoints():
    assert list(lattice_coords(0.0, 10.0, 1.0)) == [float(k) for k in range(1, 10)]
    assert list(lattice_coords(0.0, 10.0, 3.0)) == [3.0, 6.0, 9.0]
    assert list(lattice_coords(2.0, 3.0, 5.0)) == []
    with pytest.raises(ValueError):
        lattice_coords(0.0, 1.0, 0.0)


def test_square_road_81_points():
    # independent count: every point of the 11x11 node lattice strictly
    # inside the square
    scene = road_scene(RoadSegment(id="sq", polygon=rect(0, 0, 10, 10)))
    grid = discretize_roi(scene, spacing=1.0)
    expected = [
        (float(x), float(y))
        for y in range(0, 11)
        for x in range(0, 11)
        if 0 < x < 10 and 0 < y < 10
    ]
    assert len(grid) == 81
    assert [tuple(p) for p in grid.points] == expected
    assert grid.segment_of == ("sq",) * 81
    assert grid.weights.sum() == 81.0


def test_spacing_too_coarse_raises():
    scene = road_scene(RoadSegment(id="sq", polygon=rect(0, 0, 10, 10)))
    with pytest.raises(EmptyGridError):
        discretize_roi(scene, spacing=12.0)


def test_no_interior_hits_raises():
    # thin triangle far from any lattice point at this spacing
    tri = ((0.0, 0.0), (10.0, 0.0), (10.0, 0.4))
    scene = road_scene(RoadSegment(id="tri", polygon=tri))
    with pytest.raises(EmptyGridError):
        discretize_roi(scene, spacing=9.0)


def test_overlapping_segments_deduplicated():
    a = RoadSegment(id="a", polygon=rect(0, 0, 10, 10))
    b = RoadSegment(id="b", polygon=rect(5, 5, 15, 15))
    grid = discretize_roi(road_scene(a, b), spacing=1.0)
    coords = [tuple(p) for p in grid.points]
    assert len(coords) == len(set(coords))  # no duplicates
    by_coord = dict(zip(coords, grid.segment_of))
    assert by_coord[(7.0, 7.0)] == "a"  # overlap owned by first in file order
    assert by_coord[(12.0, 12.0)] == "b"
    # independent count over the union; lattice spans (0,15) exclusive,
    # membership is boundary-inclusive
    expected = sum(
        1
        for y in range(1, 15)
        for x in range(1, 15)
        if (0 <= x <= 10 and 0 <= y <= 10) or (5 <= x <= 15 and 5 <= y <= 15)
    )
    assert len(grid) == expected


def test_segment_weights_flow_into_targets():
    a = RoadSegment(id="a", polygon=rect(0, 0, 10, 10), priority_weight=2.5)
    grid = discretize_roi(road_scene(a), spacing=2.0)
    assert np.all(grid.weights == 2.5)
    re = grid.reweighted({"a": 7.0})
    assert np.all(re.weights == 7.0)
    assert np.all(grid.weights == 2.5)  # original untouched


def test_segment_of_matches_linear_oracle(demo_scene):
    def oracle(x, y):
        for seg in demo_scene.road_segments:
            if point_in_polygon_ref((x, y), seg.polygon):
                return seg.id
        return None

    for spacing in (3.0, 1.0):
        grid = discretize_roi(demo_scene, spacing)
        assert grid.segment_of == tuple(oracle(x, y) for x, y in grid.points)


def test_demo_grid_shape(demo_targets):
    assert len(demo_targets) == 360
    assert demo_targets.weights.sum() == 360.0
    assert sum(1 for s in demo_targets.segment_of if s == "central") == 36
    # row-major ordering: y ascending, x ascending within a row
    pts = demo_targets.points
    keys = [(y, x) for x, y in map(tuple, pts)]
    assert keys == sorted(keys)


def test_halving_spacing_triples_targets(rng):
    scenes = []
    for _ in range(8):
        segs = []
        for k in range(int(rng.integers(1, 4))):
            x0, y0 = rng.uniform(-40, 10, 2)
            w, h = rng.uniform(25, 60, 2)
            segs.append(RoadSegment(id=f"r{k}", polygon=rect(x0, y0, x0 + w, y0 + h)))
        scenes.append(road_scene(*segs))
    for scene in scenes:
        for spacing in (6.0, 4.0):
            coarse = discretize_roi(scene, spacing)
            fine = discretize_roi(scene, spacing / 2.0)
            assert len(fine) >= 3 * len(coarse)


def test_halving_spacing_demo(demo_scene, demo_targets):
    fine = discretize_roi(demo_scene, 1.5)
    assert len(fine) >= 3 * len(demo_targets)


def test_refining_never_drops_points_or_segments(demo_scene):
    coarse = discretize_roi(demo_scene, 4.0)
    fine = discretize_roi(demo_scene, 2.0)
    coarse_pts = {tuple(p) for p in coarse.points}
    fine_pts = {tuple(p) for p in fine.points}
    assert coarse_pts <= fine_pts
    assert set(coarse.segment_of) <= set(fine.segment_of)


def test_enumerate_candidates_product():
    zones = (
        MountZone(id="z", geometry=rect(0, 0, 12, 12), allowed_heights=(2.0, 4.0)),
    )
    scene = Scene(
        road_segments=(RoadSegment(id="r", polygon=rect(0, 0, 12, 12)),),
        mount_zones=zones,
    )
    cands = enumerate_candidates(scene, spacing=4.0, types=[TINY_SPEC])
    # positions 4,8 on each axis -> 4 positions x 2 heights x 1 type
    assert len(cands) == 8
    assert {(c.x, c.y) for c in cands} == {
        (4.0, 4.0),
        (8.0, 4.0),
        (4.0, 8.0),
        (8.0, 8.0),
    }
    heights = [c.height for c in cands if (c.x, c.y) == (4.0, 4.0)]
    assert heights == [2.0, 4.0]
    assert all(c.cost == 100.0 for c in cands)


def test_enumerate_candidates_demo_matches_brute_force(demo_scene):
    spacing = 2.0
    cands = enumerate_candidates(demo_scene, spacing, types=list(demo_scene.catalog))
    # independent product enumeration over the zone-union bounding box
    zone_pts = [p for z in demo_scene.mount_zones for p in z.geometry]
    xs = [p[0] for p in zone_pts]
    ys = [p[1] for p in zone_pts]
    x0, x1, y0, y1 = min(xs), max(xs), min(ys), max(ys)
    positions = 0
    k = 1
    grid_x = []
    while x0 + k * spacing < x1 - 1e-9:
        grid_x.append(x0 + k * spacing)
        k += 1
    grid_y = []
    k = 1
    while y0 + k * spacing < y1 - 1e-9:
        grid_y.append(y0 + k * spacing)
        k += 1
    for y in grid_y:
        for x in grid_x:
            if any(point_in_polygon_ref((x, y), z.geometry) for z in demo_scene.mount_zones):
                positions += 1
    assert positions > 0
    assert len(cands) == 3 * positions * 3  # 3 types x positions x 3 heights


def test_enumerate_candidates_ordering_is_reproducible(demo_scene):
    types = list(demo_scene.catalog)
    a = enumerate_candidates(demo_scene, 6.0, types)
    b = enumerate_candidates(demo_scene, 6.0, types)
    assert a == b
    # catalog order kept even when the caller shuffles the request
    c = enumerate_candidates(demo_scene, 6.0, list(reversed(types)))
    assert c == a


def test_enumerate_candidates_uses_every_given_spec(demo_scene):
    first = demo_scene.catalog[0]
    foreign = replace(first, type_id="foreign", channels=8)
    changed = replace(first, range_m=50.0)  # reuses a catalog type_id
    alone = enumerate_candidates(demo_scene, 6.0, [first])
    mixed = enumerate_candidates(demo_scene, 6.0, [foreign, first, changed, first])
    assert len(alone) == 24
    assert len(mixed) == 3 * len(alone)
    # catalog specs first, then the others in the given order; duplicates once
    assert [c.sensor for c in mixed[:3]] == [first, foreign, changed]
    assert [c.sensor for c in enumerate_candidates(demo_scene, 6.0, [changed])] == (
        [changed] * 24
    )


def test_enumerate_candidates_requires_types(demo_scene):
    with pytest.raises(ValueError, match="non-empty"):
        enumerate_candidates(demo_scene, 6.0, [])


def test_enumerate_candidates_empty_zone_raises():
    zones = (MountZone(id="z", geometry=rect(0, 0, 1, 1), allowed_heights=(2.0,)),)
    scene = Scene(
        road_segments=(RoadSegment(id="r", polygon=rect(0, 0, 10, 10)),),
        mount_zones=zones,
    )
    # no lattice point falls strictly inside the 1x1 zone at this spacing
    with pytest.raises(EmptyGridError):
        enumerate_candidates(scene, spacing=1.5, types=[TINY_SPEC])


def test_zone_surcharge_added_to_cost():
    zones = (
        MountZone(
            id="z",
            geometry=rect(0, 0, 10, 10),
            allowed_heights=(3.0,),
            install_surcharge=25.0,
        ),
    )
    scene = Scene(
        road_segments=(RoadSegment(id="r", polygon=rect(0, 0, 10, 10)),),
        mount_zones=zones,
    )
    cands = enumerate_candidates(scene, spacing=5.0, types=[TINY_SPEC])
    assert all(c.cost == 125.0 for c in cands)


def test_polyline_zone_corridor():
    path = ((0.0, 2.0), (10.0, 8.0), (20.0, 2.0))
    zones = (
        MountZone(id="rail", geometry=path, allowed_heights=(4.0,), kind="polyline"),
    )
    scene = Scene(
        road_segments=(RoadSegment(id="r", polygon=rect(0, 0, 20, 10)),),
        mount_zones=zones,
    )
    cands = enumerate_candidates(scene, spacing=2.0, types=[TINY_SPEC])

    def dist(p):
        return min(
            _seg_dist(p[0], p[1], a[0], a[1], b[0], b[1])
            for a, b in zip(path[:-1], path[1:])
        )

    # corridor reaches spacing/2 = 1 m to each side of the polyline
    assert len(cands) > 0
    assert all(dist((c.x, c.y)) <= 1.0 + 1e-9 for c in cands)
    # and every lattice point clearly inside the corridor is present
    got = {(c.x, c.y) for c in cands}
    for y in (4.0, 6.0):
        for x in np.arange(2.0, 19.0, 2.0):
            if dist((x, y)) <= 1.0 - 1e-9:
                assert (x, y) in got


def test_targets_csv_round_trip(tmp_path, demo_targets):
    path = tmp_path / "targets.csv"
    write_targets_csv(demo_targets, path)
    back = read_targets_csv(path)
    assert np.allclose(back.points, demo_targets.points)
    assert np.allclose(back.weights, demo_targets.weights)
    assert back.segment_of == demo_targets.segment_of
    assert back.spacing == demo_targets.spacing
    header = path.read_text().splitlines()[0]
    assert header.split(",") == TARGETS_CSV_HEADER


def test_candidates_csv_round_trip(tmp_path, demo_scene, demo_candidates_t3):
    path = tmp_path / "candidates.csv"
    write_candidates_csv(demo_candidates_t3, path)
    assert read_candidates_csv(path, demo_scene.catalog) == demo_candidates_t3
    assert read_candidates_csv(path) == demo_candidates_t3  # demo catalog by default
    with pytest.raises(ValueError, match="'type-3' not in the scene catalog"):
        read_candidates_csv(path, catalog=())
    header = path.read_text().splitlines()[0]
    assert header.split(",") == CANDIDATES_CSV_HEADER


def test_targets_csv_rejects_wrong_header(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("a,b,c\n1,2,3\n")
    with pytest.raises(ValueError, match="header"):
        read_targets_csv(path)
    with pytest.raises(ValueError, match="header"):
        read_candidates_csv(path)
