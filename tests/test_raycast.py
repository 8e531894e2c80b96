import math
import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (
    brute_force_density,
    brute_force_visibility,
    cast_ray_ref,
    convex_polygon,
    reference_cast_all,
    reference_clip_prism,
    reference_cloud,
    reference_distances,
    scattered_targets,
    vouching,
)
from lidarplan import (
    Candidate,
    MountZone,
    Obstacle,
    RoadSegment,
    Scene,
    SensorSpec,
    Solution,
    TargetGrid,
    VehicleModel,
    VisibilityGrid,
    build_visibility_grid,
    discretize_roi,
    enumerate_candidates,
    generate_beams,
    occlusion_monte_carlo,
)
from lidarplan import raycast
from lidarplan.evaluation import sample_density
from lidarplan.raycast import (
    CULL_MARGIN,
    VGRID_HEADER,
    VGRID_MAGIC,
    WINDOW_SLACK_M,
    BUCKETS_PER_TARGET,
    TargetIndex,
    _cast_all,
    _cast_scene,
    _ground_returns,
    _ground_t,
    _pairs,
    _pattern,
    _prism,
    _prisms,
    _rays,
    _returns,
    _windows,
    simulate_sensor,
    visibility_row,
)


def rect(x0, y0, x1, y1):
    return ((x0, y0), (x1, y0), (x1, y1), (x0, y1))


def open_scene(*obstacles):
    return Scene(
        road_segments=(RoadSegment(id="r", polygon=rect(-100, -100, 100, 100)),),
        obstacles=tuple(obstacles),
        mount_zones=(MountZone(id="z", geometry=rect(-1, -1, 1, 1), allowed_heights=(5.0,)),),
    )


def spec(channels=4, vmin=-20.0, vmax=0.0, hfov=360.0, step=10.0, range_m=60.0):
    return SensorSpec(
        type_id="t",
        channels=channels,
        vertical_fov_min=vmin,
        vertical_fov_max=vmax,
        horizontal_fov=hfov,
        range_m=range_m,
        unit_cost=1.0,
        azimuth_step=step,
    )


def angles_of(dirs):
    el = np.degrees(np.arcsin(np.clip(dirs[:, 2], -1, 1)))
    az = np.degrees(np.arctan2(dirs[:, 1], dirs[:, 0])) % 360.0
    return el, az


# ---------------------------------------------------------------------------
# beam fan


def test_beams_two_channel_example():
    dirs = generate_beams(spec(channels=2, vmin=-15, vmax=15, step=90.0))
    assert len(dirs) == 8
    el, az = angles_of(dirs)
    assert set(np.round(el, 9)) == {-15.0, 15.0}
    assert set(np.round(az, 9)) == {0.0, 90.0, 180.0, 270.0}
    assert np.allclose(np.linalg.norm(dirs, axis=1), 1.0)


def test_beams_single_channel_degenerate_fov():
    dirs = generate_beams(spec(channels=1, vmin=0.0, vmax=0.0, step=45.0))
    assert np.all(dirs[:, 2] == 0.0)  # all horizontal


def test_beams_single_channel_uses_midpoint():
    dirs = generate_beams(spec(channels=1, vmin=-20.0, vmax=-10.0, step=120.0))
    el, _ = angles_of(dirs)
    assert np.allclose(el, -15.0)


def test_beams_type1_count_matches_independent_loop(demo_scene):
    t1 = replace(demo_scene.sensor("type-1"), azimuth_step=0.4)
    dirs = generate_beams(t1)
    # independent azimuth count: multiples of the step strictly below 360
    n_az = 0
    while n_az * 0.4 < 360.0 - 1e-9:
        n_az += 1
    assert n_az == 900
    assert len(dirs) == 16 * n_az == 14400


def test_beams_elevations_span_fov_inclusive():
    dirs = generate_beams(spec(channels=5, vmin=-20, vmax=0, step=360.0))
    el, _ = angles_of(dirs)
    assert np.allclose(sorted(el), [-20, -15, -10, -5, 0])


def test_beams_partial_horizontal_fov():
    dirs = generate_beams(spec(channels=1, vmin=0, vmax=0, hfov=90.0, step=30.0))
    _, az = angles_of(dirs)
    assert np.allclose(sorted(az), [0.0, 30.0, 60.0])  # 90 itself excluded


# ---------------------------------------------------------------------------
# single-ray casting


def cast_one(origin, direction, scene, max_range):
    """Position of one ray's nearest hit, cast by _cast_scene with a one-row
    dirs, or None on a miss."""
    hit, pos, _ = _cast_scene(np.asarray(origin, dtype=np.float64),
                              np.asarray([direction], dtype=np.float64), scene, max_range)
    return pos[0] if hit[0] else None


def test_cast_ray_ground_distance_trig():
    # downward 15 degrees from 5 m up: planar distance 5 / tan(15 deg)
    e = math.radians(-15.0)
    d = (math.cos(e), 0.0, math.sin(e))
    sample = cast_one((0.0, 0.0, 5.0), d, open_scene(), 100.0)
    expected = 5.0 / math.tan(abs(e))
    assert sample is not None
    assert math.isclose(sample[0], expected, rel_tol=1e-9)
    assert sample[1] == 0.0
    assert sample[2] == 0.0  # stamped exactly onto the ground plane
    assert math.isclose(expected, 18.6602540378, rel_tol=1e-9)


def test_cast_ray_horizontal_misses():
    assert cast_one((0, 0, 5), (1.0, 0.0, 0.0), open_scene(), 100.0) is None


def test_cast_ray_beyond_range_misses():
    e = math.radians(-15.0)
    d = (math.cos(e), 0.0, math.sin(e))
    assert cast_one((0, 0, 5), d, open_scene(), 10.0) is None


def test_cast_ray_wall_blocks_ground():
    # beam would reach the ground 3 m ahead; a 1 m wall stands 1 m ahead
    wall = Obstacle(id="w", footprint=rect(1.0, -2.0, 1.2, 2.0), height=1.0)
    origin = (0.0, 0.0, 1.2)
    raw = (3.0, 0.0, -1.2)
    n = math.hypot(3.0, 1.2)
    d = (raw[0] / n, raw[1] / n, raw[2] / n)
    sample = cast_one(origin, d, open_scene(wall), 100.0)
    # independent ray-plane oracle: front face x = 1
    t_face = 1.0 / d[0]
    assert sample is not None
    assert math.isclose(sample[0], 1.0, abs_tol=1e-9)
    assert math.isclose(sample[2], origin[2] + t_face * d[2], rel_tol=1e-9)
    assert sample[2] > 0.0
    assert t_face < n  # hit strictly before the would-be ground hit


def test_cast_ray_matches_reference_on_random_rays(rng):
    obstacles = [
        Obstacle(
            id=f"o{k}",
            footprint=convex_polygon(rng, rng.uniform(-15, 15), rng.uniform(-15, 15), 1, 5),
            height=float(rng.uniform(1, 8)),
        )
        for k in range(3)
    ]
    scene = open_scene(*obstacles)
    for _ in range(300):
        origin = (rng.uniform(-20, 20), rng.uniform(-20, 20), rng.uniform(0.5, 10))
        v = rng.normal(size=3)
        v /= np.linalg.norm(v)
        mine = cast_one(origin, tuple(v), scene, 80.0)
        ref = cast_ray_ref(origin, tuple(v), scene, 80.0)
        if ref is None:
            assert mine is None
        else:
            assert mine is not None
            _, rx, ry, rz, _ = ref
            assert math.isclose(mine[0], rx, abs_tol=1e-6)
            assert math.isclose(mine[1], ry, abs_tol=1e-6)
            assert math.isclose(mine[2], rz, abs_tol=1e-6)


# ---------------------------------------------------------------------------
# obstacle culling: clipping only the rays that can reach a prism's box
# must give the same floats as clipping every ray against every prism


def cast_unculled(origin, dirs, scene, max_range):
    """(hit, positions, intensities) with every ray clipped against every prism."""
    gz = scene.ground_elevation
    t_ground = _ground_t(origin, dirs, gz)
    t_best = t_ground
    for obstacle in scene.obstacles:
        ok, t_hit = reference_clip_prism(origin, dirs, _prism(obstacle, gz).planes)
        t_best = np.where(ok & (t_hit < t_best), t_hit, t_best)
    return _returns(origin, dirs, t_best, t_ground, gz, max_range)


def assert_culling_exact(origin, dirs, scene, max_range, one_by_one=True):
    """The batch cast equals the unculled one, and (one_by_one) cast_one per ray."""
    origin = np.asarray(origin, dtype=np.float64)
    dirs = np.asarray(dirs, dtype=np.float64)
    culled = _cast_scene(origin, dirs, scene, max_range)
    for got, want in zip(culled, cast_unculled(origin, dirs, scene, max_range)):
        assert np.array_equal(got, want)
    for d, hit, pos in zip(dirs, culled[0], culled[1]) if one_by_one else ():
        sample = cast_one(tuple(origin), tuple(d), scene, max_range)
        assert (sample is not None) == hit
        if hit:
            assert tuple(sample[:3]) == tuple(pos)
    return culled


def unit(*v):
    v = np.asarray(v, dtype=np.float64)
    return v / np.linalg.norm(v)


def test_culling_axis_aligned_rays():
    # dy == 0 and dx == 0 exactly, from origins on a box edge line, on the
    # cull box's own edge, and clear of it
    box = Obstacle(id="b", footprint=rect(4.0, -1.0, 6.0, 1.0), height=3.0)
    side = Obstacle(id="s", footprint=rect(-1.0, 4.0, 1.0, 6.0), height=3.0)
    scene = open_scene(box, side)
    cx, cy, hx, hy = _prism(box, 0.0).box
    dirs = [unit(1, 0, -0.1), unit(1, 0, 0), unit(-1, 0, -0.1), unit(0, 1, -0.1),
            unit(0, 1, 0), unit(0, -1, -0.1), unit(1, 0, -0.5), (0.0, 0.0, -1.0)]
    for origin in [(0.0, 0.0, 2.0), (0.0, 1.0, 2.0), (0.0, -1.0, 2.0), (1.0, 0.0, 2.0),
                   (0.0, cy + hy, 2.0), (0.0, cy - hy, 2.0), (cx - hx, 0.0, 2.0),
                   (5.0, 0.0, 5.0), (0.0, 3.0, 2.0)]:
        assert_culling_exact(origin, dirs, scene, 60.0)
    hit, pos, _ = assert_culling_exact((0.0, 0.0, 2.0), [unit(1, 0, -0.1)], scene, 60.0)
    assert hit[0] and pos[0, 0] == 4.0  # stopped by the box face, not the ground


def test_culling_rays_from_inside_prisms():
    building = Obstacle(id="in", footprint=rect(-3.0, -3.0, 3.0, 3.0), height=10.0)
    kiosk = Obstacle(id="under", footprint=rect(8.0, -1.0, 10.0, 1.0), height=2.0)
    scene = open_scene(building, kiosk)
    dirs = generate_beams(spec(channels=7, vmin=-60, vmax=30, step=15.0))
    hit, pos, _ = assert_culling_exact((0.5, -0.5, 5.0), dirs, scene, 60.0)
    assert hit.all() and np.all(np.max(np.abs(pos[:, :2]), axis=1) <= 3.0 + 1e-9)
    hit, pos, _ = assert_culling_exact((9.0, 0.0, 4.0), dirs, scene, 60.0)
    down = dirs[:, 2] < -0.9
    assert np.all(pos[down & hit, 2] == 2.0)  # straight down onto the kiosk roof


def test_culling_grazing_edges_and_corners():
    box = Obstacle(id="b", footprint=rect(10.0, 2.0, 14.0, 6.0), height=4.0)
    tri = Obstacle(id="t", footprint=((-10.0, 0.0), (-6.0, 1.0), (-6.0, -1.0)), height=5.0)
    scene = open_scene(box, tri)
    # ground points on, and a hair either side of, every corner and edge
    marks = [(10, 2), (14, 2), (10, 6), (14, 6), (12, 2), (12, 6), (10, 4), (14, 4),
             (-10, 0), (-6, 1), (-6, -1), (-6, 0)]
    aims = [(mx + sx * e, my + sy * e) for mx, my in marks for e in (1e-7, 1e-4)
            for sx in (-1, 0, 1) for sy in (-1, 0, 1)]
    # origins on every side of the box, level with its edges, and inside it
    for ox in (0.0, 10.0, 12.0, 14.0, 20.0):
        for oy in (-3.0, 2.0, 4.0, 6.0, 10.0):
            origin = np.array([ox, oy, 3.0])
            dirs = []
            for ax, ay in aims:
                if (ax, ay) != (ox, oy):
                    dirs.append(unit(ax - ox, ay - oy, -3.0))  # lands on the aim
                    dirs.append(unit(ax - ox, ay - oy, 0.0))  # level, grazes faces
            assert_culling_exact(origin, dirs, scene, 80.0, one_by_one=False)
    origin = (0.0, 2.0, 3.0)  # one by one along the face y = 2
    assert_culling_exact(origin, [unit(1, 0, 0), unit(1, 0, -0.1), unit(1, 0, -0.2)], scene, 80.0)


def test_culling_hits_at_exactly_max_range():
    wall = Obstacle(id="w", footprint=rect(10.0, -2.0, 11.0, 2.0), height=4.0)
    scene = open_scene(wall)
    origin = (0.0, 0.0, 3.0)
    face = (1.0, 0.0, 0.0)  # meets x = 10 at t = 10 exactly
    ground = (math.sqrt(0.75), 0.0, -0.5)  # lands at t = 6 exactly
    for max_range in (6.0, 10.0, np.nextafter(10.0, 0.0), np.nextafter(6.0, 0.0)):
        hit, _, intensity = assert_culling_exact(origin, [face, ground], scene, max_range)
        assert list(hit) == [max_range == 10.0, max_range >= 6.0]
        assert intensity[1] == (1.0 - 6.0 / max_range if hit[1] else 0.0)
    assert cast_ray_ref(origin, face, scene, 10.0)[0] == 10.0


def test_culling_needle_corners_and_dense_scenes(rng):
    needle = Obstacle(id="n", footprint=((0.0, 8.0), (30.0, 8.0 + 1e-5), (30.0, 8.0 - 1e-5)),
                      height=6.0)
    assert _prism(needle, 0.0).box is None  # too sharp for a box: clipped against every ray
    sharp = Obstacle(id="s", footprint=((0.0, -8.0), (30.0, -7.99), (30.0, -8.01)), height=6.0)
    assert _prism(sharp, 0.0).box[3] > 0.01 + CULL_MARGIN  # margin grows at sharp corners
    obstacles = [needle, sharp] + [
        Obstacle(
            id=f"o{k}",
            footprint=convex_polygon(rng, rng.uniform(-30, 30), rng.uniform(-30, 30), 0.5, 4),
            height=float(rng.uniform(0.5, 9)),
        )
        for k in range(30)
    ]
    scene = open_scene(*obstacles)
    dirs = generate_beams(spec(channels=9, vmin=-40, vmax=20, step=3.0))
    for _ in range(6):
        origin = (rng.uniform(-25, 25), rng.uniform(-25, 25), rng.uniform(0.5, 8))
        hit, _, _ = assert_culling_exact(origin, dirs, scene, 45.0, one_by_one=False)
        assert hit.any()
    ref_hits = 0
    for _ in range(200):
        origin = (rng.uniform(-25, 25), rng.uniform(-25, 25), rng.uniform(0.5, 8))
        d = tuple(unit(*rng.normal(size=3)))
        mine, ref = cast_one(origin, d, scene, 45.0), cast_ray_ref(origin, d, scene, 45.0)
        assert (mine is None) == (ref is None)
        if ref is not None:
            ref_hits += 1
            assert np.allclose(mine[:3], ref[1:4], atol=1e-6)
    assert ref_hits > 50


NEEDLE = Obstacle(id="n", footprint=((0.0, 8.0), (30.0, 8.0 + 1e-5), (30.0, 8.0 - 1e-5)),
                  height=6.0)


@st.composite
def cast_cases(draw):
    """(origin, dirs, obstacles, split, max_range) for casting obstacles[:split]
    and then obstacles[split:] from the origin.  Origins fall anywhere, inside
    a cull box, or on or within 1e-9 m of an edge or corner of a cull box or
    of the box its azimuth window is taken from; beam fans are full or
    partial, upward beams are cast from at or below the ground too, and
    extra rays point straight up and down, along -x with dy = +0.0 and -0.0
    (azimuths +pi and -pi), and at every corner of those boxes."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    obstacles = [
        Obstacle(
            id=f"o{k}",
            footprint=convex_polygon(rng, rng.uniform(-20, 20), rng.uniform(-20, 20), 0.5, 5),
            height=float(rng.uniform(0.5, 8)),
        )
        for k in range(draw(st.integers(0, 8)))
    ]
    if draw(st.booleans()):
        obstacles.insert(draw(st.integers(0, len(obstacles))), NEEDLE)
    boxes = [box for o in obstacles if (box := _prism(o, 0.0).box) is not None]
    where = draw(st.sampled_from(["anywhere", "inside", "edge", "corner"]))
    if where == "anywhere" or not boxes:
        ox, oy = rng.uniform(-25, 25, 2)
    else:
        cx, cy, hx, hy = boxes[draw(st.integers(0, len(boxes) - 1))]
        grow = draw(st.sampled_from([0.0, WINDOW_SLACK_M]))
        off_x, off_y = (draw(st.sampled_from([0.0, 1e-9, -1e-9, 1e-12])) for _ in "xy")
        sx, sy = rng.choice([-1.0, 1.0], 2)
        ox, oy = cx + rng.uniform(-hx, hx), cy + rng.uniform(-hy, hy)
        on_x = where == "corner" or (where == "edge" and draw(st.booleans()))
        on_y = where == "corner" or (where == "edge" and not on_x)
        if on_x:
            ox = cx + sx * (hx + grow + off_x)
        if on_y:
            oy = cy + sy * (hy + grow + off_y)
    oz = draw(st.sampled_from([3.0, 0.0, -1.0]))
    fan = spec(
        channels=draw(st.integers(1, 6)), vmin=-70.0, vmax=draw(st.sampled_from([-5.0, 30.0])),
        hfov=draw(st.sampled_from([360.0, 135.0, 270.0])), step=draw(st.sampled_from([5.0, 12.0])),
    )
    dirs = [generate_beams(fan), np.array([
        (0.0, 0.0, -1.0), (0.0, 0.0, 1.0), (-0.8, 0.0, -0.6), (-0.8, -0.0, -0.6),
        (-1.0, 0.0, 0.0), (-1.0, -0.0, 0.0),
    ])]
    for cx, cy, hx, hy in boxes:
        for g in (0.0, WINDOW_SLACK_M):
            for kx, ky in ((-1, -1), (1, -1), (1, 1), (-1, 1)):
                ax, ay = cx + kx * (hx + g) - ox, cy + ky * (hy + g) - oy
                if ax or ay:
                    dirs.append(np.array([unit(ax, ay, -oz - 1.0), unit(ax, ay, 0.0)]))
    return (np.array([ox, oy, oz]), np.vstack(dirs), obstacles,
            draw(st.integers(0, len(obstacles))), draw(st.sampled_from([10.0, 45.0, 80.0])))


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(case=cast_cases())
def test_cast_all_equals_per_prism_reference(case):
    # a static cast, then one continued from it with more obstacles (as
    # GroundReturns.blocked adds vehicles), bit for bit, inf included
    origin, dirs, obstacles, split, max_range = case
    rays = _rays(dirs)
    got = want = _ground_t(origin, dirs, 0.0)
    for part in (obstacles[:split], obstacles[split:]):
        got = _cast_all(origin, rays, _prisms(part, 0.0), max_range, got)
        want = reference_cast_all(origin, dirs, [_prism(o, 0.0) for o in part], max_range, want)
        assert np.array_equal(got, want)


def reaches_box(origin, dirs, box, reach):
    """reference_cast_all's test of which rays reach a cull box, on every ray."""
    ox, oy = origin[0], origin[1]
    dx, dy = dirs[:, 0], dirs[:, 1]
    cx, cy, hx, hy = box
    end_x, end_y = ox + reach * dx, oy + reach * dy
    near = np.abs(dx * (cy - oy) - dy * (cx - ox)) <= hx * np.abs(dy) + hy * np.abs(dx)
    if ox < cx - hx:
        near &= end_x >= cx - hx
    elif ox > cx + hx:
        near &= end_x <= cx + hx
    if oy < cy - hy:
        near &= end_y >= cy - hy
    elif oy > cy + hy:
        near &= end_y <= cy + hy
    return near


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(case=cast_cases())
def test_windows_hold_every_ray_that_reaches_a_box(case):
    # at full range, the farthest any cast tests a box at
    origin, dirs, obstacles, _, max_range = case
    rays = _rays(dirs)
    ray, prism = _pairs(*_windows(origin, rays.phi, _prisms(obstacles, 0.0), max_range), rays.order)
    assert np.all(np.diff(prism) >= 0)  # grouped by prism, as _cast_all lays them out
    for j, obstacle in enumerate(obstacles):
        window = ray[prism == j]
        assert len(np.unique(window)) == len(window)
        box = _prism(obstacle, 0.0).box
        if box is None:
            assert len(window) == len(dirs)
        else:
            reached = np.flatnonzero(reaches_box(origin, dirs, box, max_range))
            assert np.isin(reached, window).all()


def test_cast_all_skips_prisms_out_of_range():
    # From a mount 1 m up, walls whose nearest face lies just inside
    # max_range (east), just past it but within the windows' slack (west),
    # and just past that slack (north): only the last gets an empty window,
    # and the cast equals reference_cast_all bit for bit, the hits of the
    # level beam on the near wall included.
    origin = np.array([0.0, 0.0, 1.0])
    dirs = generate_beams(spec(channels=3, vmin=-1.0, vmax=1.0, step=4.0))
    max_range, g = 30.0, WINDOW_SLACK_M
    walls = [
        Obstacle(id="in", footprint=rect(max_range - g, -4.0, max_range + 1.0, 4.0), height=3.0),
        Obstacle(id="slack", footprint=rect(-max_range - 1.0, -4.0, -max_range - g, 4.0),
                 height=3.0),
        Obstacle(id="out", footprint=rect(-4.0, max_range + 3 * g, 4.0, max_range + 1.0),
                 height=3.0),
    ]
    rays, prisms = _rays(dirs), _prisms(walls, 0.0)
    start, stop = _windows(origin, rays.phi, prisms, max_range)
    assert (stop - start).tolist()[2] == 0
    assert min((stop - start).tolist()[:2]) > 0
    t_ground = _ground_t(origin, dirs, 0.0)
    got = _cast_all(origin, rays, prisms, max_range, t_ground)
    want = reference_cast_all(origin, dirs, [_prism(w, 0.0) for w in walls], max_range, t_ground)
    assert np.array_equal(got, want)
    assert got.min() == max_range - g  # the level beam east, the only return in range


def test_cast_raises_no_warning(rng):
    # the scene of test_culling_needle_corners_and_dense_scenes, needle
    # (a prism without a cull box) included, and an empty one
    sharp = Obstacle(id="s", footprint=((0.0, -8.0), (30.0, -7.99), (30.0, -8.01)), height=6.0)
    obstacles = [NEEDLE, sharp] + [
        Obstacle(
            id=f"o{k}",
            footprint=convex_polygon(rng, rng.uniform(-30, 30), rng.uniform(-30, 30), 0.5, 4),
            height=float(rng.uniform(0.5, 9)),
        )
        for k in range(30)
    ]
    dirs = generate_beams(spec(channels=9, vmin=-40, vmax=20, step=3.0))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for _ in range(6):
            origin = np.array([rng.uniform(-25, 25), rng.uniform(-25, 25), rng.uniform(0.5, 8)])
            for scene in (open_scene(*obstacles), open_scene()):
                hit, _, _ = _cast_scene(origin, dirs, scene, 45.0)
                assert hit.any()
        cand = make_candidate(10.0, 8.0, 4.0, spec(channels=9, vmin=-40, vmax=20, step=3.0))
        returns = ground_returns(cand, open_scene(*obstacles[2:]))
        assert returns.blocked(_prisms([NEEDLE], 0.0)).any()
        # from mounts at and below the ground some beams never reach it,
        # and the beams at azimuth 0 have dy == 0; the pattern keeps only
        # the beams that reach it in range, and building the returns
        # filters the static ones
        for height in (0.0, -1.0, 0.5):
            cand = make_candidate(0.0, 0.0, height, spec(channels=9, vmin=-40, vmax=20, step=3.0))
            returns = ground_returns(cand, open_scene(*obstacles[2:]))
            assert (returns.rays.t_ground <= cand.sensor.range_m).all()


# ---------------------------------------------------------------------------
# whole-sensor simulation


def make_candidate(x, y, height, sensor):
    return Candidate(x=x, y=y, height=height, sensor=sensor, cost=sensor.unit_cost)


def ground_returns(cand, scene, intensity_min=None):
    """The candidate's GroundReturns as the pipeline builds them, with a
    TargetIndex over its pattern's own ground points, which culls no ray."""
    ground_z = scene.ground_elevation
    pattern = _pattern(cand.sensor, ground_z + cand.height, ground_z)
    index = TargetIndex((np.array([[cand.x], [cand.y]]) + pattern.offsets).T, 1.0)
    [(_, returns)] = _ground_returns([cand], [0], scene, index, intensity_min)
    assert np.array_equal(returns.rays.order, pattern.order)
    return returns


def test_simulate_downward_rings_upward_nothing():
    s = spec(channels=4, vmin=-20, vmax=10, step=30.0, range_m=100.0)
    cloud = simulate_sensor(make_candidate(0, 0, 5.0, s), open_scene())
    # channels at -20, -10, 0, +10: only the two downward ones return
    n_az = 12
    assert len(cloud) == 2 * n_az
    radii = np.hypot(cloud[:, 0], cloud[:, 1])
    expected = {5.0 / math.tan(math.radians(20)), 5.0 / math.tan(math.radians(10))}
    got = set(np.round(np.unique(radii), 6))
    assert got == {round(v, 6) for v in expected}
    assert np.all(cloud[:, 2] == 0.0)


def test_simulate_enclosed_sensor_hits_walls_only():
    box = Obstacle(id="box", footprint=rect(-2, -2, 2, 2), height=10.0)
    s = spec(channels=4, vmin=-25, vmax=15, step=30.0, range_m=100.0)
    cloud = simulate_sensor(make_candidate(0, 0, 5.0, s), open_scene(box))
    assert len(cloud) == len(generate_beams(s))  # every beam lands
    assert np.all(cloud[:, 2] > 0.0)  # all on faces, none on ground
    assert np.all(np.max(np.abs(cloud[:, :2]), axis=1) <= 2.0 + 1e-9)


def test_simulate_cloud_invariants(demo_scene):
    t2 = demo_scene.sensor("type-2")
    t2 = replace(t2, azimuth_step=5.0)
    cloud = simulate_sensor(make_candidate(14.0, -8.0, 5.4, t2), demo_scene)
    cap = t2.channels * math.ceil(t2.horizontal_fov / t2.azimuth_step)
    assert 0 < len(cloud) <= cap
    origin = np.array([14.0, -8.0, 5.4])
    dist = np.linalg.norm(cloud[:, :3] - origin, axis=1)
    assert np.all(dist <= t2.range_m + 1e-9)
    assert np.all(cloud[:, 2] >= -1e-9)
    inten = cloud[:, 3]
    assert np.all((0.0 <= inten) & (inten <= 1.0))
    assert np.allclose(inten, 1.0 - dist / t2.range_m, atol=1e-9)


def test_simulate_matches_scalar_reference(demo_scene):
    t3 = replace(demo_scene.sensor("type-3"), azimuth_step=30.0)
    cand = make_candidate(-10.0, -8.0, 8.0, t3)
    cloud = simulate_sensor(cand, demo_scene)
    origin = (cand.x, cand.y, 8.0)
    ref_hits = []
    for d in generate_beams(t3):
        ref = cast_ray_ref(origin, tuple(d), demo_scene, t3.range_m)
        if ref is not None:
            ref_hits.append(ref[1:4])
    assert len(cloud) == len(ref_hits)
    mine = cloud[np.lexsort(cloud[:, :3].T)][:, :3]
    ref_arr = np.array(ref_hits)
    ref_arr = ref_arr[np.lexsort(ref_arr.T)]
    assert np.allclose(mine, ref_arr, atol=1e-6)


def test_ground_distance_formula_all_demo_types(demo_scene):
    # single azimuth per channel keeps this cheap without losing channels
    for base in demo_scene.catalog:
        s = replace(base, azimuth_step=360.0)
        for height in (3.5, 5.4, 8.0):
            cloud = simulate_sensor(make_candidate(0.0, 0.0, height, s), open_scene())
            el, _ = angles_of(generate_beams(s))
            down = el[el < 0]
            expected = sorted(
                height / math.tan(math.radians(abs(e)))
                for e in down
                if height / math.sin(math.radians(abs(e))) <= s.range_m
            )
            radii = sorted(np.hypot(cloud[:, 0], cloud[:, 1]))
            assert len(radii) == len(expected)
            for got, want in zip(radii, expected):
                assert math.isclose(got, want, rel_tol=1e-6)


# ---------------------------------------------------------------------------
# visibility grid


def micro_scene_and_targets(rng, n_obstacles=2):
    road = RoadSegment(id="r", polygon=rect(-20, -20, 20, 20))
    obstacles = tuple(
        Obstacle(
            id=f"o{k}",
            footprint=convex_polygon(rng, rng.uniform(-12, 12), rng.uniform(-12, 12), 0.8, 3.5),
            height=float(rng.uniform(1.0, 6.0)),
        )
        for k in range(n_obstacles)
    )
    scene = Scene(
        road_segments=(road,),
        obstacles=obstacles,
        mount_zones=(MountZone(id="z", geometry=rect(-18, -18, 18, 18), allowed_heights=(5.0,)),),
    )
    targets = discretize_roi(scene, spacing=8.0)
    return scene, targets


def micro_candidates(rng, n):
    s = spec(channels=6, vmin=-25, vmax=-2, step=20.0, range_m=80.0)
    return [
        make_candidate(rng.uniform(-15, 15), rng.uniform(-15, 15), rng.uniform(3, 8), s)
        for _ in range(n)
    ]


def test_grid_matches_quadratic_brute_force(rng):
    for _ in range(6):
        scene, targets = micro_scene_and_targets(rng)
        cands = tuple(micro_candidates(rng, 3))
        delta = float(rng.uniform(1.0, 5.0))
        grid = build_visibility_grid(cands, targets, scene, delta=delta)
        clouds = [reference_cloud(c, scene) for c in cands]
        expected = brute_force_visibility(clouds, [tuple(p) for p in targets.points], delta)
        assert np.array_equal(grid.bits, expected)


def test_grid_with_intensity_floor_matches_brute_force(rng):
    scene, targets = micro_scene_and_targets(rng)
    cands = tuple(micro_candidates(rng, 3))
    grid = build_visibility_grid(cands, targets, scene, delta=3.0, intensity_min=0.8)
    clouds = [reference_cloud(c, scene) for c in cands]
    expected = brute_force_visibility(
        clouds, [tuple(p) for p in targets.points], 3.0, intensity_min=0.8
    )
    assert np.array_equal(grid.bits, expected)
    loose = build_visibility_grid(cands, targets, scene, delta=3.0)
    assert np.all(grid.bits <= loose.bits)  # the floor only removes bits


def test_empty_cloud_gives_zero_row(rng):
    scene, targets = micro_scene_and_targets(rng, n_obstacles=0)
    # horizontal-only fan never returns from the ground
    s = spec(channels=1, vmin=0, vmax=0, step=60.0)
    cands = (make_candidate(0, 0, 5.0, s),)
    grid = build_visibility_grid(cands, targets, scene, delta=2.0)
    assert not grid.bits.any()


def test_obstacle_face_returns_do_not_count(rng):
    # enclosed sensor: plenty of returns, none eligible for coverage
    scene, targets = micro_scene_and_targets(rng, n_obstacles=0)
    box = Obstacle(id="box", footprint=rect(-1.5, -1.5, 1.5, 1.5), height=12.0)
    walled = replace(scene, obstacles=scene.obstacles + (box,))
    s = spec(channels=6, vmin=-25, vmax=0, step=30.0)
    cand = make_candidate(0, 0, 5.0, s)
    assert len(simulate_sensor(cand, walled)) > 0
    grid = build_visibility_grid((cand,), targets, walled, delta=4.0)
    assert not grid.bits.any()


def test_huge_delta_covers_everything(rng):
    scene, targets = micro_scene_and_targets(rng, n_obstacles=0)
    cands = tuple(micro_candidates(rng, 2))
    grid = build_visibility_grid(cands, targets, scene, delta=1e9)
    assert grid.bits.all()


def test_delta_monotonicity(rng):
    for _ in range(4):
        scene, targets = micro_scene_and_targets(rng)
        cands = tuple(micro_candidates(rng, 3))
        d1, d2 = sorted(rng.uniform(0.5, 6.0, 2))
        small = build_visibility_grid(cands, targets, scene, delta=float(d1))
        large = build_visibility_grid(cands, targets, scene, delta=float(d2))
        assert np.all(small.bits <= large.bits)


def test_range_monotonicity(rng):
    for _ in range(4):
        scene, targets = micro_scene_and_targets(rng)
        base = micro_candidates(rng, 3)
        longer = [
            replace(c, sensor=replace(c.sensor, range_m=c.sensor.range_m * 2))
            for c in base
        ]
        g1 = build_visibility_grid(tuple(base), targets, scene, delta=3.0)
        g2 = build_visibility_grid(tuple(longer), targets, scene, delta=3.0)
        assert np.all(g1.bits <= g2.bits)


def test_obstacle_never_adds_bits(rng):
    for _ in range(4):
        scene, targets = micro_scene_and_targets(rng, n_obstacles=1)
        cands = tuple(micro_candidates(rng, 3))
        before = build_visibility_grid(cands, targets, scene, delta=3.0)
        extra = Obstacle(
            id="new",
            footprint=convex_polygon(rng, rng.uniform(-10, 10), rng.uniform(-10, 10), 1, 4),
            height=float(rng.uniform(1, 8)),
        )
        after = build_visibility_grid(
            cands, targets, replace(scene, obstacles=scene.obstacles + (extra,)), delta=3.0
        )
        assert np.all(after.bits <= before.bits)


def test_grid_rejects_bad_delta(rng):
    scene, targets = micro_scene_and_targets(rng)
    cands = tuple(micro_candidates(rng, 1))
    with pytest.raises(ValueError, match="delta"):
        build_visibility_grid(cands, targets, scene, delta=0.0)


@pytest.mark.parametrize("intensity_min", [None, 0.5])
def test_ground_returns_match_full_cloud_on_demo(demo_scene, demo_targets, intensity_min):
    # every catalog type at every mount height, downward beams only vs the
    # ground hits of the whole reference cloud
    cands = enumerate_candidates(demo_scene, spacing=12.0, types=demo_scene.catalog)
    assert {(c.sensor.type_id, c.height) for c in cands} == {
        (s.type_id, h) for s in demo_scene.catalog for h in (3.5, 5.4, 8.0)
    }
    grid = build_visibility_grid(cands, demo_targets, demo_scene, 1.5, intensity_min)
    index = TargetIndex(demo_targets.points, 1.5)
    for i, cand in enumerate(cands):
        full = reference_cloud(cand, demo_scene)
        want = vouching_xy(full, intensity_min)
        got = ground_returns(cand, demo_scene, intensity_min).xy
        assert np.array_equal(got, want)
        row = visibility_row(want, index)
        assert np.array_equal(grid.bits[i], row)
    assert grid.bits.any()


@pytest.mark.parametrize("intensity_min", [None, 0.5])
def test_a_cast_hands_out_only_ground_points(demo_scene, intensity_min):
    # each sample is its ray's ground point, and vehicles can only take
    # samples away: with none, blocked masks nothing
    gz = demo_scene.ground_elevation
    cands = enumerate_candidates(demo_scene, spacing=12.0, types=demo_scene.catalog)
    counted = 0
    for cand in cands:
        returns = ground_returns(cand, demo_scene, intensity_min)
        offsets = returns.rays.offsets[:, returns.ray].T
        assert np.array_equal(returns.xy, np.array([cand.x, cand.y]) + offsets)
        assert not returns.blocked(_prisms([], gz)).any()
        counted += len(returns.xy)
    assert counted > 0


def test_ground_returns_from_mounts_at_or_below_ground():
    # from below the ground the upward beams meet it from beneath; from a
    # mount on it no beam reaches it, so there is no sample
    box = Obstacle(id="b", footprint=rect(3.0, -2.0, 5.0, 2.0), height=3.0)
    s = spec(channels=5, vmin=-20, vmax=20, step=30.0)
    for height in (0.0, -1.0, 0.5):
        cand = make_candidate(0.0, 0.0, height, s)
        want = vouching_xy(reference_cloud(cand, open_scene(box)))
        assert (len(want) > 0) == (height != 0.0)
        assert np.array_equal(ground_returns(cand, open_scene(box)).xy, want)


def test_each_cast_cuts_only_its_own_windows(monkeypatch):
    # 50 mounts of one spec and height share a pattern, but the first cast
    # pulled cuts the windows from its own mount alone, once
    s = spec(channels=4, vmin=-30.0, vmax=-5.0, step=10.0)
    cands = [make_candidate(2.0 * k - 50.0, 3.0, 5.0, s) for k in range(50)]
    scene = open_scene(Obstacle(id="b", footprint=rect(3.0, -2.0, 5.0, 2.0), height=3.0))
    index = TargetIndex(np.array([[0.0, 0.0], [10.0, 10.0]]), 1.0)
    windows, shapes = raycast._windows, []

    def recorded(origin, *args):
        shapes.append(np.shape(origin))
        return windows(origin, *args)

    monkeypatch.setattr(raycast, "_windows", recorded)
    next(_ground_returns(cands, range(len(cands)), scene, index, None))
    assert shapes == [(3,)]


def test_visibility_row_empty_targets():
    empty = TargetGrid(
        points=np.zeros((0, 2)),
        weights=np.zeros(0),
        segment_of=(),
    )
    s = spec()
    cloud = reference_cloud(make_candidate(0, 0, 5.0, s), open_scene())
    row = visibility_row(vouching_xy(cloud), TargetIndex(empty.points, 2.0))
    assert row.shape == (0,)


# ---------------------------------------------------------------------------
# target index against the quadratic oracles


def cloud_around(rng, points, n, reach, lo, hi):
    """n samples (x, y, z, intensity, ground): half within `reach` per axis
    of random target points, half uniform over [lo, hi)^2; about a quarter
    are obstacle hits (z = 1), the rest ground hits (z = 0)."""
    near = points[rng.integers(0, len(points), n // 2)] + rng.uniform(-reach, reach, (n // 2, 2))
    xy = np.vstack([near, rng.uniform(lo, hi, (n - n // 2, 2))])
    z = np.where(rng.random(n) < 0.25, 1.0, 0.0)
    return np.column_stack([xy, z, rng.random(n), z == 0.0])


def vouching_xy(cloud, intensity_min=None):
    """The xy that GroundReturns.xy would hold for this cloud (rows x, y, z,
    intensity, ground)."""
    return vouching(cloud, intensity_min)[:, :2]


def closed_counts(index, cloud):
    """Per-target count of ground samples at distance <= delta, from the index."""
    counts = np.zeros(index.size, dtype=np.int64)
    for ids, closed, _ in index.within(vouching_xy(cloud)):
        np.add.at(counts, ids[closed], 1)
    return counts


def assert_index_matches_oracles(targets, cloud, delta):
    xy = [tuple(p) for p in targets.points]
    index = TargetIndex(targets.points, delta)
    for intensity_min in (None, 0.5):
        want = brute_force_visibility([cloud], xy, delta, intensity_min)[0]
        assert np.array_equal(visibility_row(vouching_xy(cloud, intensity_min), index), want)
    assert np.array_equal(closed_counts(index, cloud),
                          brute_force_density([cloud], xy, delta))


def test_index_scattered_targets_with_duplicates(rng):
    for n, duplicates in [(1, 0), (1, 3), (2, 2), (40, 10), (150, 30)]:
        targets = scattered_targets(rng, n, -10.0, 10.0, duplicates)
        delta = float(rng.uniform(0.2, 4.0))
        # uniform samples reach well past the targets on every side
        cloud = cloud_around(rng, targets.points, 400, 1.5 * delta, -25.0, 25.0)
        assert_index_matches_oracles(targets, cloud, delta)


@pytest.mark.parametrize("unit", [0.125, 0.25, 0.5])
def test_index_pairs_at_exactly_delta(rng, unit):
    # Dyadic coordinates and 3-4-5 offsets: every sample below sits at
    # exactly delta = 5 * unit from its target, which the strict test must
    # reject and the closed one count.  Targets are 3 * delta apart, so no
    # other target is that close.
    delta = 5 * unit
    cells = rng.choice(400, 60, replace=False)
    points = 3 * delta * np.column_stack([cells % 20, cells // 20]).astype(float) - 7.0
    targets = TargetGrid(points=np.vstack([points, points[:5]]),
                         weights=np.ones(65), segment_of=("r",) * 65)
    offsets = unit * np.array([(5, 0), (0, 5), (-5, 0), (0, -5), (3, 4), (-4, 3), (-3, -4),
                               (4, -3)], dtype=float)
    xy = (points[:, None, :] + offsets[None, :, :]).reshape(-1, 2)
    inside = points[::2] + 0.5 * offsets[4]  # half the targets also get a sample within delta
    samples = np.vstack([xy, inside])
    cloud = np.column_stack([samples, np.zeros(len(samples)), np.ones((len(samples), 2))])
    assert_index_matches_oracles(targets, cloud, delta)
    row = visibility_row(vouching_xy(cloud), TargetIndex(targets.points, delta))
    assert np.array_equal(row[:60], np.arange(60) % 2 == 0)
    assert np.all(closed_counts(TargetIndex(targets.points, delta), cloud)[:60] >= 8)


def test_index_wide_extent_tiny_delta_caps_buckets(rng):
    targets = scattered_targets(rng, 300, -1e4, 1e4, duplicates=20)
    delta = 1e-3
    index = TargetIndex(targets.points, delta)
    assert index.cell > 1000 * delta  # the cap doubled the cell many times
    assert index.nx * index.ny <= BUCKETS_PER_TARGET * len(targets)
    cloud = cloud_around(rng, targets.points, 2000, 2 * delta, -2e4, 2e4)
    assert_index_matches_oracles(targets, cloud, delta)
    assert visibility_row(vouching_xy(cloud), index).any()


def test_near_keeps_occupied_blocks(rng):
    # near keeps a point whose cell is at most one cell from a target's, so
    # every point within delta of a target.  A tiny delta makes the cap
    # double the cells
    targets = scattered_targets(rng, 20, -5.0, 5.0, duplicates=3)
    delta = 1e-3
    index = TargetIndex(targets.points, delta)
    close = targets.points + rng.uniform(-0.7, 0.7, (len(targets), 2)) * delta
    xy = np.vstack([close, rng.uniform(-8.0, 8.0, (300, 2))])
    cell = np.floor((xy[:, None, :] - targets.points.min(axis=0)) / index.cell)
    own = np.floor((targets.points - targets.points.min(axis=0)) / index.cell)
    want = (np.abs(cell - own[None, :, :]).max(axis=2) <= 1).any(axis=1)
    assert np.array_equal(index.near(xy), want)
    assert want[:len(close)].all() and not want.all()
    assert TargetIndex(np.zeros((0, 2)), delta).near(xy).tolist() == [False] * len(xy)


def test_index_rejects_a_smaller_reach(rng):
    targets = scattered_targets(rng, 10, 0.0, 5.0)
    with pytest.raises(ValueError, match="delta"):
        TargetIndex(targets.points, 0.0)


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(seed=st.integers(0, 2**32 - 1), chunk=st.sampled_from([1, 7, 1 << 20]))
def test_block_lists_hold_each_pair_within_delta_once(seed, chunk):
    # a target within delta of a sample comes out once for that sample, in
    # chunks of any size
    rng = np.random.default_rng(seed)
    targets = scattered_targets(rng, int(rng.integers(1, 60)), -5.0, 5.0, int(rng.integers(0, 10)))
    delta = float(rng.choice([1e-3, 0.3, 1.0, 4.0]))
    xy = np.vstack([
        targets.points[rng.integers(0, len(targets), 30)]
        + rng.uniform(-2 * delta, 2 * delta, (30, 2)),
        rng.uniform(-8.0, 8.0, (30, 2)),
    ])
    index = TargetIndex(targets.points, delta)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(raycast, "PAIR_CHUNK", chunk)
        chunks = list(index.within(xy))
    ids = np.concatenate([np.zeros(0, dtype=int)] + [ids for ids, _, _ in chunks])
    closed = np.concatenate([np.zeros(0, dtype=bool)] + [closed for _, closed, _ in chunks])
    every = np.hypot(xy[:, None, 0] - targets.points[None, :, 0],
                     xy[:, None, 1] - targets.points[None, :, 1])
    assert np.array_equal(np.sort(ids[closed]), np.sort(np.nonzero(every <= delta)[1]))


def pairs_around_delta(rng, delta):
    """(targets, samples): samples at planar distance exactly delta and one
    ulp to either side of targets on an axis (so the difference is exact),
    at delta in random directions (up to rounding) from other targets, and
    scattered around them; coordinates scale with delta."""
    ulps = [delta, np.nextafter(delta, 0.0), np.nextafter(delta, np.inf)]
    on_axis = np.column_stack([np.zeros(3), rng.uniform(-5.0, 5.0, 3) * delta])
    others = rng.uniform(-5.0, 5.0, (6, 2)) * delta
    angle = rng.uniform(0.0, 2.0 * np.pi, 6)
    samples = np.vstack([
        [(sign * u, y) for _, y in on_axis for u in ulps for sign in (1.0, -1.0)],
        [(y, sign * u) for _, y in on_axis for u in ulps for sign in (1.0, -1.0)],
        others + delta * np.column_stack([np.cos(angle), np.sin(angle)]),
        rng.uniform(-6.0, 6.0, (20, 2)) * delta,
    ])
    return np.vstack([on_axis, on_axis[:, ::-1], others]), samples


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(seed=st.integers(0, 2**32 - 1), delta=st.one_of(
    st.floats(1e-3, 1e3), st.sampled_from([1e-3, 1.0, 1e3, 2.0**-420, 1e-300])))
def test_pair_decisions_match_hypot(seed, delta):
    # within's strict and closed decisions on squared distance against
    # np.hypot on every pair (reference_distances), for pairs at delta and
    # one ulp off; samples at NaN and inf coordinates pair with no target.
    # A tiny delta takes np.hypot everywhere
    rng = np.random.default_rng(seed)
    targets, xy = pairs_around_delta(rng, delta)
    index = TargetIndex(targets, delta)
    assert np.isinf(index.band).all() == (delta <= 2.0**-400)
    bad = np.array([(np.nan, 0.0), (0.0, np.inf), (-np.inf, np.nan), (np.inf, np.inf)])
    assert list(index.within(bad)) == []
    got, want = list(index.within(np.vstack([xy, bad]))), list(reference_distances(index, xy))
    assert len(got) == len(want) == 1
    (ids, closed, strict), (want_ids, dist) = got[0], want[0]
    assert np.array_equal(ids, want_ids)
    assert np.array_equal(closed, dist <= delta)
    assert np.array_equal(strict, dist < delta)
    assert (dist == delta).any() and (dist < delta).any() and (dist > delta).any()


@pytest.mark.parametrize("ulp", [-1, 0, 1])
def test_rows_and_density_decide_pairs_at_delta_as_hypot(ulp):
    # targets 0.7 m west of a sensor's ground returns, each at |dx| from
    # its return, a few ulps either side of 0.7; delta the median of those
    # distances or one ulp off it: the grid row and sample_density against
    # np.hypot on every pair
    sensor = spec(channels=3, vmin=-30.0, vmax=-10.0, step=20.0)
    cand, scene = make_candidate(0.3, -0.2, 5.0, sensor), open_scene()
    xy = vouching_xy(reference_cloud(cand, scene))
    points = xy[::2] - [0.7, 0.0]
    delta = float(np.median(np.abs(xy[::2, 0] - points[:, 0])))
    delta = float(np.nextafter(delta, np.inf if ulp > 0 else 0.0)) if ulp else delta
    targets = TargetGrid(points=points, weights=np.ones(len(points)),
                         segment_of=("r",) * len(points))
    index = TargetIndex(points, delta)
    row, closed, strict = np.zeros(len(points), dtype=bool), *np.zeros((2, len(points)), int)
    for ids, dist in reference_distances(index, xy):
        row[ids[dist < delta]] = True
        np.add.at(closed, ids[dist <= delta], 1)
        np.add.at(strict, ids[dist < delta], 1)
        assert (np.abs(dist - delta) <= 4 * np.spacing(delta)).sum() >= 2
    grid = build_visibility_grid((cand,), targets, scene, delta)
    assert np.array_equal(grid.bits[0], row)
    got = sample_density(xy, index)
    assert np.array_equal(got[0], closed) and np.array_equal(got[1], strict)
    assert row.any() and not row.all()


# ---------------------------------------------------------------------------
# culled casts (ground patterns, the target cull) against the full cloud


def culling_case(rng):
    """(scene, targets, candidates, delta, intensity_min) for checking the
    culled casts: the ground at one of three elevations, obstacles touching
    the ground next to targets, ranges shorter than some beams' ground
    distance, mounts sharing a ground pattern, scattered and duplicate
    targets, and targets within delta of ground returns, so that a tiny
    delta still sets bits."""
    gz = float(rng.choice([0.0, 100.0, -7.25]))
    delta = float(rng.choice([1e-3, 0.05, 0.6, 2.5]))
    specs = [
        replace(spec(channels=int(rng.integers(1, 6)), vmin=float(rng.uniform(-70.0, -10.0)),
                     vmax=float(rng.uniform(-8.0, 15.0)), hfov=float(rng.choice([360.0, 200.0])),
                     step=float(rng.choice([5.0, 9.0, 17.0])),
                     range_m=float(rng.uniform(3.0, 25.0))), type_id=f"s{k}")
        for k in range(2)
    ]
    cands = [
        make_candidate(float(rng.uniform(-10.0, 10.0)), float(rng.uniform(-10.0, 10.0)),
                       float(rng.choice([0.5, 2.0, 6.5])), specs[int(rng.integers(2))])
        for _ in range(int(rng.integers(1, 5)))
    ]
    scattered = scattered_targets(rng, int(rng.integers(1, 25)), -12.0, 12.0,
                                  int(rng.integers(0, 4)))
    obstacles = [
        Obstacle(id=f"o{k}", height=float(rng.uniform(0.3, 5.0)), footprint=convex_polygon(
            rng, x + rng.uniform(-1.0, 1.0), y + rng.uniform(-1.0, 1.0), 0.2, 1.5))
        for k, (x, y) in enumerate(scattered.points[:int(rng.integers(0, 4))])
    ]
    scene = replace(open_scene(*obstacles), ground_elevation=gz)
    ground = np.vstack([np.zeros((0, 2))] + [vouching_xy(reference_cloud(c, scene)) for c in cands])
    n = 8 if len(ground) else 0
    near = ground[rng.integers(0, max(1, len(ground)), n)] + rng.uniform(-0.7, 0.7, (n, 2)) * delta
    points = np.vstack([scattered.points, near])
    targets = TargetGrid(points=points, weights=rng.uniform(0.5, 2.0, len(points)),
                         segment_of=("r",) * len(points))
    return scene, targets, cands, delta, [None, 0.3, 0.7][int(rng.integers(3))]


def assert_culled_casts_match_oracles(scene, targets, cands, delta, intensity_min):
    """Grid rows, and the density and coverage the eval stage reports over
    every candidate, against the quadratic oracles on reference_cloud."""
    xy, w = [tuple(p) for p in targets.points], targets.weights
    clouds = [reference_cloud(c, scene) for c in cands]
    grid = build_visibility_grid(tuple(cands), targets, scene, delta, intensity_min)
    bits = brute_force_visibility(clouds, xy, delta, intensity_min)
    assert np.array_equal(grid.bits, bits)
    everything = Solution(selected=tuple(range(len(cands))), covered=frozenset(), objective=0.0,
                          total_cost=0.0, method="all", optimality_bound=0.0)
    report = occlusion_monte_carlo(
        everything, scene, targets, tuple(cands), VehicleModel(count=0),
        trials=1, seed=0, delta=delta, intensity_min=intensity_min,
    )
    density = brute_force_density(clouds, xy, delta, intensity_min)
    assert np.array_equal(np.array(report.density), density)
    assert report.per_trial == (float(w[bits.any(axis=0)].sum()) / float(w.sum()),)
    return bits, density


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_culled_casts_match_full_cloud_oracles(seed):
    assert_culled_casts_match_oracles(*culling_case(np.random.default_rng(seed)))


def ground_level_wall(short_range):
    """(candidate, scene, wall, hit): a one-channel sensor 5 m above the
    ground at z = 100, and a wall 3 floats short of where its first beam
    (azimuth 0, 30 degrees down) meets the ground.  The beam hits the wall
    at a z that rounds to the ground's, at xy `hit`: an obstacle hit whose
    z alone would read as a ground return.  With short_range, the range is
    the float just below the beam's ground distance, so that hit is the
    beam's only return."""
    origin = np.array([0.0, 0.0, 105.0])
    beam = generate_beams(spec(channels=1, vmin=-30.0, vmax=-30.0, step=90.0))[:1]
    t_ground = float(_ground_t(origin, beam, 100.0)[0])
    range_m = float(np.nextafter(t_ground, 0.0)) if short_range else 50.0
    sensor = spec(channels=1, vmin=-30.0, vmax=-30.0, step=90.0, range_m=range_m)
    cand = make_candidate(0.0, 0.0, 5.0, sensor)
    x_wall = t_ground * beam[0, 0]
    for _ in range(3):
        x_wall = float(np.nextafter(x_wall, -np.inf))
    wall = Obstacle(id="w", footprint=rect(x_wall, -1.0, x_wall + 2.0, 1.0), height=3.0)
    scene = replace(open_scene(), ground_elevation=100.0)
    samples = simulate_sensor(cand, replace(scene, obstacles=scene.obstacles + (wall,)))
    (hit,) = samples[np.abs(samples[:, 0] - x_wall) < 1e-9]
    assert hit[2] == 100.0 and hit[0] < t_ground * beam[0, 0]  # at ground level, off the wall
    assert (t_ground > range_m) == short_range
    return cand, scene, wall, hit[:2]


@pytest.mark.parametrize("short_range", [False, True])
def test_obstacle_hit_at_ground_level_never_vouches_for_a_target(short_range):
    # only a ray whose nearest hit is the ground vouches for a target, and
    # this beam's is the wall, however its z rounds
    cand, scene, wall, hit = ground_level_wall(short_range)
    delta = 1e-3
    points = np.array([hit + [0.5 * delta, 0.0], [-20.0, -20.0]])
    targets = TargetGrid(points=points, weights=np.ones(2), segment_of=("r", "r"))
    bits, density = assert_culled_casts_match_oracles(
        replace(scene, obstacles=scene.obstacles + (wall,)), targets, [cand], delta, None
    )
    assert bits[0].tolist() == [False, False]
    assert density.tolist() == [0, 0]


# ---------------------------------------------------------------------------
# grid file format


def test_vgrid_round_trip(tmp_path, rng):
    bits = rng.random((13, 37)) < 0.3
    grid = VisibilityGrid(bits=bits, delta=1.75)
    path = tmp_path / "g.vgrd"
    grid.save(path)
    back = VisibilityGrid.load(path)
    assert np.array_equal(back.bits, bits)
    assert back.delta == 1.75
    raw = path.read_bytes()
    assert raw[:4] == VGRID_MAGIC
    # one padded row of ceil(37/8) bytes per candidate after the header
    assert len(raw) == 20 + 13 * 5


@pytest.mark.parametrize("rows", [0, 3])
@pytest.mark.parametrize("cols", [1, 7, 8, 9])
def test_vgrid_round_trip_pads_each_row(tmp_path, rng, rows, cols):
    bits = rng.random((rows, cols)) < 0.5
    path = tmp_path / "g.vgrd"
    VisibilityGrid(bits=bits, delta=0.5).save(path)
    # each row msb first, zero-padded to whole bytes
    body = bytes(
        sum(1 << (7 - k) for k, bit in enumerate(row[i:i + 8]) if bit)
        for row in bits.tolist() for i in range(0, cols, 8)
    )
    assert path.read_bytes()[VGRID_HEADER.size:] == body
    back = VisibilityGrid.load(path)
    assert back.bits.dtype == bool and back.bits.shape == (rows, cols)
    assert np.array_equal(back.bits, bits)


def test_vgrid_rejects_bad_magic(tmp_path):
    path = tmp_path / "bad.vgrd"
    path.write_bytes(b"NOPE" + b"\x00" * 32)
    with pytest.raises(ValueError, match="magic"):
        VisibilityGrid.load(path)


def test_vgrid_rejects_truncation(tmp_path, rng):
    bits = rng.random((4, 40)) < 0.5
    path = tmp_path / "g.vgrd"
    VisibilityGrid(bits=bits, delta=1.0).save(path)
    data = path.read_bytes()
    path.write_bytes(data[:-3])
    with pytest.raises(ValueError, match="bytes"):
        VisibilityGrid.load(path)
    path.write_bytes(data[:10])
    with pytest.raises(ValueError):
        VisibilityGrid.load(path)
