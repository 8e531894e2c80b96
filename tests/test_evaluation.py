import math
from dataclasses import replace
from xml.etree import ElementTree

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (
    brute_force_density,
    brute_force_visibility,
    exhaustive_best,
    random_instance,
    reference_cloud,
    scattered_targets,
)
from lidarplan import (
    Budget,
    Candidate,
    Cardinality,
    DeploymentProblem,
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
    compare_weighted,
    discretize_roi,
    gain_curve,
    occlusion_monte_carlo,
    render_coverage_map,
    solve,
    solve_exact,
    solve_greedy,
)
from lidarplan import evaluation, raycast
from lidarplan.evaluation import PROXY_NOTE, _sample_vehicles, _trial_rng, write_gain_curve_csv
from lidarplan.raycast import _prisms
from test_raycast import (
    assert_culled_casts_match_oracles,
    culling_case,
    ground_level_wall,
    make_candidate,
    open_scene,
    spec,
)


def rect(x0, y0, x1, y1):
    return ((x0, y0), (x1, y0), (x1, y1), (x0, y1))


# ---------------------------------------------------------------------------
# gain curves


def swept(grid, weights, costs, kind, budgets):
    """The gain curve over `budgets`, each point solved by auto as the CLI does."""
    make = {"count": lambda b: Cardinality(int(b)), "budget": Budget}[kind]
    solutions = [solve(DeploymentProblem(grid, weights, costs, make(b))) for b in budgets]
    return gain_curve(budgets, solutions, weights)


def test_gain_curve_demo_saturates(demo_grid_t3, demo_targets, demo_candidates_t3):
    curve = swept(
        demo_grid_t3,
        demo_targets.weights,
        [c.cost for c in demo_candidates_t3],
        kind="count",
        budgets=[1, 2, 3, 4],
    )
    assert all(m == "exact" for m in curve.methods)
    objs = list(curve.objectives)
    assert objs == sorted(objs)
    assert objs[-1] == objs[-2]  # saturated: the 4th unit adds nothing
    assert curve.coverages[-1] == 1.0


def test_gain_curve_single_candidate_flat():
    bits = np.array([[1, 1, 0, 1]], dtype=bool)
    curve = swept(
        VisibilityGrid(bits=bits, delta=1.0),
        np.ones(4),
        np.ones(1),
        kind="count",
        budgets=[1, 2, 3],
    )
    assert curve.objectives == (3.0, 3.0, 3.0)


def test_gain_curve_monotone_on_random_instances(rng):
    for _ in range(15):
        rows, weights, costs, _, _ = random_instance(rng, 9, 25)
        grid = VisibilityGrid(bits=rows, delta=1.0)
        curve = swept(
            grid, weights, costs, kind="count",
            budgets=list(range(1, rows.shape[0] + 1)),
        )
        objs = curve.objectives
        assert all(a <= b + 1e-12 for a, b in zip(objs, objs[1:]))
        sweep = np.linspace(costs.min(), costs.sum(), 4)
        curve_b = swept(
            grid, weights, costs, kind="budget", budgets=sorted(set(map(float, sweep)))
        )
        objs_b = curve_b.objectives
        assert all(a <= b + 1e-12 for a, b in zip(objs_b, objs_b[1:]))


def test_gain_curve_rejects_bad_inputs():
    # budgets themselves are checked where they are parsed (the CLI's --gain-budgets)
    sol = Solution(selected=(0,), covered=frozenset({0, 1}), objective=2.0, total_cost=1.0,
                   method="exact", optimality_bound=2.0)
    for budgets, solutions, weights, match in [
        ([1, 2], [sol], np.ones(2), "2 budgets but 1 solutions"),
        ([1], [], np.ones(2), "1 budgets but 0 solutions"),
        ([1], [sol], np.zeros(2), "total target weight"),
        ([1.5], [sol], np.zeros(2), "total target weight"),
    ]:
        with pytest.raises(ValueError, match=match):
            gain_curve(budgets, solutions, weights)


def test_gain_curve_csv(tmp_path):
    bits = np.array([[1, 0], [0, 1]], dtype=bool)
    grid = VisibilityGrid(bits=bits, delta=1.0)
    curve = swept(grid, np.ones(2), np.ones(2), kind="count", budgets=[1])
    path = tmp_path / "curve.csv"
    write_gain_curve_csv(curve, path)
    lines = path.read_text().strip().splitlines()
    assert lines == ["budget,objective,coverage,method", "1.0,1.0,0.5,exact"]


# ---------------------------------------------------------------------------
# weighted-vs-vanilla comparison


def compared(grid, weights, costs, constraint):
    """(vanilla, weighted, comparison): `grid` solved by auto under `constraint`
    with unit weights and with `weights`, as the CLI does, then compared."""
    vanilla, weighted = (solve(DeploymentProblem(grid, w, costs, constraint))
                         for w in (np.ones_like(weights), weights))
    return vanilla, weighted, compare_weighted(vanilla, weighted, weights)


def test_compare_weighted_demo_prioritizes_center(
    demo_grid_t1, demo_weights_central10, demo_candidates_t1
):
    weights = demo_weights_central10
    vanilla, weighted, cmp = compared(
        demo_grid_t1, weights, [c.cost for c in demo_candidates_t1], Cardinality(4)
    )
    assert cmp.n_priority == 36
    assert cmp.weighted_priority >= cmp.vanilla_priority
    assert weighted.objective >= vanilla.objective


def test_compare_weighted_uniform_weights_rejected():
    grid = VisibilityGrid(bits=np.ones((2, 3), dtype=bool), delta=1.0)
    with pytest.raises(ValueError, match="high-priority"):
        compared(grid, np.ones(3), np.ones(2), Cardinality(1))


def test_compare_weighted_equal_weights_above_one(rng):
    # uniformly doubled weights change nothing about the choice
    for _ in range(10):
        rows, _, costs, _, count = random_instance(rng, 8, 20)
        grid = VisibilityGrid(bits=rows, delta=1.0)
        vanilla, weighted, cmp = compared(grid, np.full(rows.shape[1], 2.0), costs, count)
        assert vanilla.selected == weighted.selected
        assert cmp.vanilla_overall == cmp.weighted_overall
        assert math.isclose(weighted.objective, 2.0 * vanilla.objective, rel_tol=1e-12)


def test_compare_weighted_hot_target_covered_by_all():
    bits = np.array([[1, 1, 0], [1, 0, 1]], dtype=bool)  # target 0 seen by both
    grid = VisibilityGrid(bits=bits, delta=1.0)
    weights = np.array([5.0, 1.0, 1.0])
    _, _, cmp = compared(grid, weights, np.ones(2), Cardinality(1))
    assert cmp.n_priority == 1
    assert cmp.vanilla_priority == 1.0
    assert cmp.weighted_priority == 1.0


def test_compare_weighted_objective_dominance(rng):
    # the weighted run can never do worse under its own objective than the
    # vanilla selection evaluated with the same weights
    for _ in range(20):
        rows, weights, costs, budget, count = random_instance(rng, 9, 20)
        weights = weights + 1.5  # ensure a priority region exists
        grid = VisibilityGrid(bits=rows, delta=1.0)
        for constraint in (budget, count):
            vanilla, weighted, _ = compared(grid, weights, costs, constraint)
            vanilla_under_w = float(weights[list(vanilla.covered)].sum())
            assert weighted.objective >= vanilla_under_w - 1e-9


# ---------------------------------------------------------------------------
# occlusion Monte-Carlo


def micro_setup():
    scene = Scene(
        road_segments=(RoadSegment(id="r", polygon=rect(-20, -20, 20, 20)),),
        mount_zones=(MountZone(id="z", geometry=rect(-18, -18, 18, 18),
                               allowed_heights=(6.0,)),),
    )
    targets = discretize_roi(scene, spacing=5.0)
    s = SensorSpec(
        type_id="t",
        channels=12,
        vertical_fov_min=-25.0,
        vertical_fov_max=-2.0,
        horizontal_fov=360.0,
        range_m=80.0,
        unit_cost=10.0,
        azimuth_step=6.0,
    )
    cands = (
        Candidate(x=-10.0, y=-10.0, height=6.0, sensor=s, cost=10.0),
        Candidate(x=10.0, y=10.0, height=6.0, sensor=s, cost=10.0),
    )
    grid = build_visibility_grid(cands, targets, scene, delta=2.5)
    problem = DeploymentProblem(grid, targets.weights, np.full(2, 10.0), Cardinality(2))
    solution = solve_exact(problem)
    return scene, targets, cands, solution


def test_occlusion_zero_vehicles_equals_static():
    scene, targets, cands, solution = micro_setup()
    report = occlusion_monte_carlo(
        solution, scene, targets, cands,
        VehicleModel(count=0), trials=3, seed=11, delta=2.5,
    )
    assert report.per_trial == (report.static_coverage,) * 3
    assert report.mean_coverage == report.static_coverage
    assert report.min_coverage == report.static_coverage


def test_occlusion_static_covered_is_the_solutions():
    scene, targets, cands, solution = micro_setup()
    report = occlusion_monte_carlo(solution, scene, targets, cands, VehicleModel(count=2),
                                   trials=2, seed=3, delta=2.5)
    assert solution.covered
    assert report.static_covered == solution.covered


def test_occlusion_same_seed_identical_and_prefix_stable():
    scene, targets, cands, solution = micro_setup()
    kwargs = dict(vehicle=VehicleModel(count=3), seed=42, delta=2.5)
    a = occlusion_monte_carlo(solution, scene, targets, cands, trials=4, **kwargs)
    b = occlusion_monte_carlo(solution, scene, targets, cands, trials=4, **kwargs)
    assert replace(a, density=None) == replace(b, density=None)
    assert np.array_equal(a.density, b.density)  # an int64 array, which == compares elementwise
    short = occlusion_monte_carlo(solution, scene, targets, cands, trials=2, **kwargs)
    assert short.per_trial == a.per_trial[:2]  # per-trial substreams


def test_trial_vehicles_golden_on_demo(demo_scene):
    # Trial 1 of seed 7 as (x0, y0, x1, y1) boxes.  random.Random's str
    # seeding, random() and uniform() are stable across CPython versions,
    # so these floats must not change with the interpreter or numpy.
    golden = [
        (2.516874081611542, -45.70303284927463, 4.516874081611542, -41.20303284927463),
        (-14.040778796133871, 4.759895358599326, -9.540778796133871, 6.759895358599326),
        (1.8109498240153066, -47.45913743455962, 3.8109498240153066, -42.95913743455962),
        (0.3491395267877113, -29.57131480288136, 2.3491395267877113, -25.07131480288136),
    ]
    boxes = _sample_vehicles(demo_scene, VehicleModel(count=4), _trial_rng(7, 1))
    assert [b.footprint for b in boxes] == [rect(*g) for g in golden]
    assert [b.id for b in boxes] == [f"vehicle_{k}" for k in range(4)]
    assert {b.height for b in boxes} == {1.6}
    fewer = _sample_vehicles(demo_scene, VehicleModel(count=2), _trial_rng(7, 1))
    assert fewer == boxes[:2]  # a larger count extends a smaller one's draw
    assert _sample_vehicles(demo_scene, VehicleModel(count=4), _trial_rng(7, 2)) != boxes


def test_vehicles_pick_segments_in_proportion_to_area(demo_scene):
    # areas 10, 0.5 and 30 give shares of 10/40.5, 0.5/40.5 and 30/40.5; over
    # 4000 draws, 3 sigma of a binomial share is < 0.021
    roads = (RoadSegment(id="a", polygon=rect(0, 0, 10, 1)),
             RoadSegment(id="thin", polygon=rect(0, 10, 0.5, 11)),
             RoadSegment(id="b", polygon=rect(0, 20, 10, 23)))
    scene = replace(demo_scene, road_segments=roads)
    boxes = _sample_vehicles(scene, VehicleModel(count=4000), _trial_rng(3, 0))
    assert len(boxes) == 4000
    cy = np.array([b.footprint[0][1] + b.footprint[2][1] for b in boxes]) / 2
    for lo, hi, area in [(0, 1, 10), (10, 11, 0.5), (20, 23, 30)]:
        assert abs(np.mean((cy >= lo) & (cy <= hi)) - area / 40.5) < 0.021


def test_occlusion_bounds_and_order():
    scene, targets, cands, solution = micro_setup()
    report = occlusion_monte_carlo(
        solution, scene, targets, cands,
        VehicleModel(count=4), trials=6, seed=5, delta=2.5,
    )
    assert report.min_coverage <= report.mean_coverage <= report.static_coverage
    assert all(0.0 <= c <= report.static_coverage + 1e-12 for c in report.per_trial)


def test_occlusion_single_blocking_vehicle():
    # one beam, one reachable cell, and a road so small that any vehicle
    # drawn on it must interrupt the sightline
    elevation = -math.degrees(math.atan2(5.0, 20.0))
    s = SensorSpec(
        type_id="t",
        channels=1,
        vertical_fov_min=elevation,
        vertical_fov_max=elevation,
        horizontal_fov=360.0,
        range_m=50.0,
        unit_cost=1.0,
        azimuth_step=360.0,  # single beam along +x
    )
    scene = Scene(
        road_segments=(RoadSegment(id="r", polygon=rect(19.5, -0.5, 20.5, 0.5)),),
        mount_zones=(MountZone(id="z", geometry=rect(-1, -1, 1, 1),
                               allowed_heights=(5.0,)),),
    )
    targets = discretize_roi(scene, spacing=0.3)
    cands = (Candidate(x=0.0, y=0.0, height=5.0, sensor=s, cost=1.0),)
    grid = build_visibility_grid(cands, targets, scene, delta=0.8)
    assert grid.bits.all()  # statically the lone ground return covers all
    problem = DeploymentProblem(grid, targets.weights, np.ones(1), Cardinality(1))
    solution = solve_exact(problem)
    report = occlusion_monte_carlo(
        solution, scene, targets, cands,
        VehicleModel(count=1), trials=5, seed=3, delta=0.8,
    )
    assert report.static_coverage == 1.0
    assert report.per_trial == (0.0,) * 5
    assert report.mean_coverage == 0.0


@pytest.mark.parametrize("intensity_min", [None, 0.5])
def test_occlusion_trials_match_full_recast(
    demo_scene, demo_targets, demo_candidates_t1, demo_grid_t1, intensity_min
):
    # Reference: recast the selected sensors into the scene with the trial's
    # vehicles added and OR their rows.  Boxes come from the same substreams.
    problem = DeploymentProblem(
        demo_grid_t1, demo_targets.weights, [c.cost for c in demo_candidates_t1], Cardinality(4)
    )
    solution = solve_greedy(problem)
    chosen = tuple(demo_candidates_t1[i] for i in solution.selected)
    vehicle = VehicleModel(count=12)
    total_w = float(demo_targets.weights.sum())
    static = build_visibility_grid(
        chosen, demo_targets, demo_scene, delta=1.5, intensity_min=intensity_min
    ).bits.any(axis=0)
    occluded = 0
    for seed in (0, 1, 2):
        report = occlusion_monte_carlo(
            solution, demo_scene, demo_targets, demo_candidates_t1, vehicle,
            trials=3, seed=seed, delta=1.5, intensity_min=intensity_min,
        )
        for t, got in enumerate(report.per_trial):
            boxes = _sample_vehicles(demo_scene, vehicle, _trial_rng(seed, t))
            trial_scene = replace(demo_scene, obstacles=demo_scene.obstacles + tuple(boxes))
            covered = build_visibility_grid(
                chosen, demo_targets, trial_scene, delta=1.5, intensity_min=intensity_min
            ).bits.any(axis=0)
            assert got == float(demo_targets.weights[covered].sum()) / total_w
            occluded += int(np.any(static & ~covered))
    assert occluded > 0  # the vehicles did remove bits


def assert_trials_match_simulated_recast(scene, targets, cands, delta, intensity_min,
                                         vehicle, seed):
    """Each trial's coverage with every candidate selected against the
    quadratic oracle on reference_cloud's clouds with the trial's vehicles
    added, drawn from the same substreams.  Returns the coverages."""
    xy, w = [tuple(p) for p in targets.points], targets.weights
    everything = Solution(selected=tuple(range(len(cands))), covered=frozenset(), objective=0.0,
                          total_cost=0.0, method="all", optimality_bound=0.0)
    report = occlusion_monte_carlo(everything, scene, targets, tuple(cands), vehicle,
                                   trials=3, seed=seed, delta=delta, intensity_min=intensity_min)
    for t, got in enumerate(report.per_trial):
        boxes = evaluation._sample_vehicles(scene, vehicle, evaluation._trial_rng(seed, t))
        trial_scene = replace(scene, obstacles=scene.obstacles + tuple(boxes))
        clouds = [reference_cloud(c, trial_scene) for c in cands]
        covered = brute_force_visibility(clouds, xy, delta, intensity_min).any(axis=0)
        assert got == float(w[covered].sum()) / float(w.sum())
    return report.per_trial


@settings(max_examples=30, deadline=None, derandomize=True, database=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_occlusion_trials_match_simulated_recast(seed):
    # vehicles dropped over the small scene's targets and obstacles
    scene, targets, cands, delta, intensity_min = culling_case(np.random.default_rng(seed))
    road = RoadSegment(id="r", polygon=rect(-12, -12, 12, 12))
    scene = replace(scene, road_segments=(road,))
    vehicle = VehicleModel(length=3.0, width=1.5, height=2.0, count=6)
    assert_trials_match_simulated_recast(scene, targets, cands, delta, intensity_min, vehicle,
                                         seed)


def test_trial_loses_a_target_behind_a_vehicle_face_at_ground_level(monkeypatch):
    # The vehicle is a wall just short of a beam's ground point: the beam
    # now ends on the wall, at a z that rounds to the ground's, and that hit
    # vouches for no target, so the target next to it is lost.
    cand, scene, wall, hit = ground_level_wall(short_range=False)
    delta = 1e-3
    targets = TargetGrid(points=np.array([hit + [0.5 * delta, 0.0], [-20.0, -20.0]]),
                         weights=np.ones(2), segment_of=("r", "r"))
    static = build_visibility_grid((cand,), targets, scene, delta).bits
    assert static.mean() == 0.5  # the static scene covers the first target
    monkeypatch.setattr(evaluation, "_sample_vehicles", lambda scene, vehicle, rng: [wall])
    assert assert_trials_match_simulated_recast(
        scene, targets, [cand], delta, None, VehicleModel(count=1), 0
    ) == (0.0,) * 3


def test_culled_casts_match_oracles_across_the_seam(monkeypatch):
    # From a mount at the origin, a low wall across the -x axis, whose
    # azimuth window runs on past pi, and beyond it a vehicle across the
    # axis, whose window starts below -pi.  The rays that reach targets
    # behind either, on both sides of the axis, lie on both sides of the
    # seam at +-pi, where one turn of azimuths would end the windows.
    sensor = spec(channels=6, vmin=-40.0, vmax=-8.0, step=3.0, range_m=40.0)
    cand = make_candidate(0.0, 0.0, 5.0, sensor)
    wall = Obstacle(id="wall", footprint=rect(-9.0, -1.0, -8.0, 1.5), height=1.0)
    vehicle = Obstacle(id="vehicle", footprint=rect(-20.0, -1.25, -16.0, 0.75), height=1.6)
    scene = open_scene(wall)
    pattern = raycast._pattern(sensor, 5.0, 0.0, None)
    _, stop = raycast._windows(np.array([0.0, 0.0, 5.0]), pattern.phi,
                               _prisms([wall, vehicle], 0.0), sensor.range_m)
    assert (stop > len(pattern.dirs)).all()  # both windows run into the second turn
    xs, ys = np.meshgrid(np.arange(-24.0, -3.0), np.arange(-4.0, 5.0))
    points = np.column_stack([xs.ravel(), ys.ravel()])
    targets = TargetGrid(points=points, weights=np.ones(len(points)),
                         segment_of=("r",) * len(points))
    bits, _ = assert_culled_casts_match_oracles(scene, targets, [cand], 0.8, None)
    seen = points[bits[0]]
    assert (seen[:, 0] < -9.0).any() and (seen[:, 1] > 0).any() and (seen[:, 1] < 0).any()
    monkeypatch.setattr(evaluation, "_sample_vehicles", lambda scene, vehicle_, rng: [vehicle])
    coverages = assert_trials_match_simulated_recast(
        scene, targets, [cand], 0.8, None, VehicleModel(count=1), 0)
    assert coverages[0] < bits[0].mean()  # the vehicle hides targets


def test_occlusion_prepares_each_trials_vehicles_once(monkeypatch):
    # one prepared prism set per trial, then one for the static scene as
    # the sensors are cast, however many sensors are selected
    scene, targets, cands, solution = micro_setup()
    assert len(solution.selected) == 2
    made = []

    def counting(obstacles, ground_z):
        made.append(len(obstacles))
        return _prisms(obstacles, ground_z)

    monkeypatch.setattr(evaluation, "_prisms", counting)
    monkeypatch.setattr(raycast, "_prisms", counting)
    occlusion_monte_carlo(solution, scene, targets, cands,
                          VehicleModel(count=3), trials=4, seed=7, delta=2.5)
    assert made == [3, 3, 3, 3, 0]


def test_occlusion_counts_each_sensor_once_and_each_trial_once(monkeypatch):
    # a sensor's static samples, then one count per trial over the samples
    # that every selected sensor lost in it: S + T counts, not S * (1 + T)
    scene, targets, cands, solution = micro_setup()
    assert len(solution.selected) == 2
    counted, count = [], evaluation.sample_density

    def counting(xy, index):
        counted.append(len(xy))
        return count(xy, index)

    monkeypatch.setattr(evaluation, "sample_density", counting)
    occlusion_monte_carlo(solution, scene, targets, cands,
                          VehicleModel(count=3), trials=4, seed=7, delta=2.5)
    assert len(counted) == 6


def test_occlusion_of_an_empty_selection():
    scene, targets, cands, _ = micro_setup()
    grid = build_visibility_grid(cands, targets, scene, delta=2.5)
    none = solve_exact(DeploymentProblem(grid, targets.weights, np.full(2, 10.0), Cardinality(0)))
    assert none.selected == ()
    report = occlusion_monte_carlo(none, scene, targets, cands,
                                   VehicleModel(count=3), trials=3, seed=7, delta=2.5)
    assert report.per_trial == (0.0,) * 3
    assert report.mean_coverage == report.min_coverage == report.static_coverage == 0.0
    assert report.density.shape == (len(targets),)
    assert not report.density.any()
    assert report.static_covered == frozenset()


def test_occlusion_validates_inputs():
    scene, targets, cands, solution = micro_setup()
    with pytest.raises(ValueError, match="trials"):
        occlusion_monte_carlo(solution, scene, targets, cands,
                              VehicleModel(count=1), trials=0, seed=1, delta=2.5)
    with pytest.raises(ValueError, match="dimensions"):
        VehicleModel(length=0.0)
    with pytest.raises(ValueError, match="count"):
        VehicleModel(count=-1)


# ---------------------------------------------------------------------------
# sample density


def static_density(solution, scene, targets, cands, delta, intensity_min=None):
    """Per-target density as the eval stage reads it: counted by
    occlusion_monte_carlo from its one static cast of each selected sensor."""
    report = occlusion_monte_carlo(solution, scene, targets, cands, VehicleModel(count=0),
                                   trials=1, seed=0, delta=delta, intensity_min=intensity_min)
    return np.array(report.density, dtype=np.int64)


def test_sample_density_nonzero_exactly_where_useful():
    scene, targets, cands, solution = micro_setup()
    density = static_density(solution, scene, targets, cands, delta=2.5)
    assert density.shape == (len(targets),)
    covered = np.zeros(len(targets), dtype=bool)
    covered[list(solution.covered)] = True
    assert np.all(density[covered] >= 1)


@pytest.mark.parametrize("intensity_min", [None, 0.5])
def test_sample_density_matches_closed_radius_oracle_on_demo(
    demo_scene, demo_targets, demo_candidates_t1, demo_grid_t1, intensity_min
):
    problem = DeploymentProblem(
        demo_grid_t1, demo_targets.weights, [c.cost for c in demo_candidates_t1], Cardinality(3)
    )
    solution = solve_greedy(problem)
    density = static_density(
        solution, demo_scene, demo_targets, demo_candidates_t1, 1.5, intensity_min
    )
    clouds = [reference_cloud(demo_candidates_t1[i], demo_scene) for i in solution.selected]
    want = brute_force_density(clouds, [tuple(p) for p in demo_targets.points], 1.5,
                               intensity_min)
    assert want.sum() > 0
    assert np.array_equal(density, want)


def test_sample_density_matches_closed_radius_oracle_on_scattered_targets(rng):
    scene, _, cands, solution = micro_setup()
    assert len(solution.selected) == 2
    clouds = [reference_cloud(cands[i], scene) for i in solution.selected]
    counted = 0
    for n, duplicates in [(1, 0), (1, 2), (60, 15)]:
        # the samples reach well past [-25, 25)^2 and the targets beyond them
        targets = scattered_targets(rng, n, -25.0, 25.0, duplicates)
        delta = float(rng.uniform(0.3, 3.0))
        for intensity_min in (None, 0.5):
            density = static_density(solution, scene, targets, cands, delta, intensity_min)
            want = brute_force_density(clouds, [tuple(p) for p in targets.points], delta,
                                       intensity_min)
            assert np.array_equal(density, want)
            counted += int(want.sum())
    assert counted > 0


def test_sample_density_counts_a_sample_at_exactly_delta():
    # One beam, one ground return; the first target sits at exactly delta
    # from it by construction, the second just past delta.
    s = SensorSpec(type_id="t", channels=1, vertical_fov_min=-14.0, vertical_fov_max=-14.0,
                   horizontal_fov=360.0, range_m=50.0, unit_cost=1.0, azimuth_step=360.0)
    scene = Scene(
        road_segments=(RoadSegment(id="r", polygon=rect(15, -5, 25, 5)),),
        mount_zones=(MountZone(id="z", geometry=rect(-1, -1, 1, 1), allowed_heights=(5.0,)),),
    )
    cands = (Candidate(x=0.0, y=0.0, height=5.0, sensor=s, cost=1.0),)
    (sx, sy, _, _, _), = reference_cloud(cands[0], scene)
    points = np.array([[sx + 1.0, sy], [np.nextafter(sx + 1.0, np.inf), sy]])
    delta = abs(sx - points[0, 0])
    targets = TargetGrid(points=points, weights=np.ones(2), segment_of=("r", "r"))
    solution = Solution(selected=(0,), covered=frozenset(), objective=0.0, total_cost=1.0,
                        method="exact", optimality_bound=0.0)
    density = static_density(solution, scene, targets, cands, delta)
    assert density.tolist() == [1, 0]
    assert np.array_equal(density, brute_force_density(
        [reference_cloud(cands[0], scene)], [tuple(p) for p in points], delta))
    grid = build_visibility_grid(cands, targets, scene, delta=delta)
    assert not grid.bits.any()  # the strict radius leaves both out


def test_proxy_note_mentions_limits():
    assert "not object-detection accuracy" in PROXY_NOTE


# ---------------------------------------------------------------------------
# rendering


def test_render_byte_identical_across_runs(tmp_path, demo_scene, demo_targets,
                                           demo_grid_t3, demo_candidates_t3):
    problem = DeploymentProblem(
        demo_grid_t3, demo_targets.weights, [c.cost for c in demo_candidates_t3], Cardinality(3)
    )
    solution = solve_exact(problem)
    p1, p2 = tmp_path / "a.svg", tmp_path / "b.svg"
    render_coverage_map(demo_scene, demo_targets, solution,
                        demo_candidates_t3, p1)
    render_coverage_map(demo_scene, demo_targets, solution,
                        demo_candidates_t3, p2)
    assert p1.read_bytes() == p2.read_bytes()


def test_render_empty_and_full_selection(tmp_path):
    scene, targets, cands, solution = micro_setup()
    grid = build_visibility_grid(cands, targets, scene, delta=2.5)

    empty = solve_exact(
        DeploymentProblem(grid, targets.weights, np.full(2, 10.0), Cardinality(0))
    )
    p = tmp_path / "empty.svg"
    render_coverage_map(scene, targets, empty, cands, p)
    text = p.read_text()
    assert text.count('fill="#d62728"') == 0  # no covered dots
    assert "<svg" in text and text.rstrip().endswith("</svg>")

    full_grid = VisibilityGrid(bits=np.ones_like(grid.bits), delta=grid.delta)
    full = solve_exact(
        DeploymentProblem(full_grid, targets.weights, np.full(2, 10.0), Cardinality(1))
    )
    p2 = tmp_path / "full.svg"
    render_coverage_map(scene, targets, full, cands, p2)
    assert p2.read_text().count('fill="#d62728"') == len(targets)

    # a type id with XML's special characters still gives a well-formed map
    odd = [replace(c, sensor=replace(c.sensor, type_id="A&B <1>")) for c in cands]
    p3 = tmp_path / "odd.svg"
    render_coverage_map(scene, targets, full, odd, p3)
    labels = [t.text for t in ElementTree.parse(p3).iter("{http://www.w3.org/2000/svg}text")]
    assert labels == ["A&B <1>@6m"] * len(full.selected)


def test_render_golden_demo(tmp_path, demo_scene, demo_targets, demo_grid_t3,
                            demo_candidates_t3):
    import pathlib

    golden = pathlib.Path(__file__).parent / "golden" / "coverage_demo.svg"
    problem = DeploymentProblem(
        demo_grid_t3, demo_targets.weights, [c.cost for c in demo_candidates_t3], Cardinality(3)
    )
    solution = solve_exact(problem)
    out = tmp_path / "demo.svg"
    render_coverage_map(demo_scene, demo_targets, solution,
                        demo_candidates_t3, out)
    assert out.read_bytes() == golden.read_bytes()
