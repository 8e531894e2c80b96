"""Release-gate checks: nine end-to-end criteria, each reporting one
pass/fail line in the terminal summary.

These are intentionally heavier than the unit tests: large randomized
suites against independent oracles, the bundled-scene scenario checks with
frozen regression values, and whole-pipeline determinism.
"""

import json
import math
import time
from dataclasses import replace

import numpy as np

from conftest import record_acceptance
from helpers import (
    brute_force_visibility,
    convex_polygon,
    exhaustive_best,
    random_instance,
    reference_cloud,
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
    VisibilityGrid,
    build_visibility_grid,
    compare_weighted,
    discretize_roi,
    generate_beams,
    occlusion_monte_carlo,
    solve,
    solve_exact,
    solve_greedy,
    VehicleModel,
)
from lidarplan.cli import main as cli_main
from lidarplan.raycast import simulate_sensor

SUITE_SEED = 777
SUITE_SIZE = 500


def _check(num: int, label: str, ok: bool, detail: str = "") -> None:
    line = f"criterion {num} ({label}): {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f" [{detail}]"
    record_acceptance(line)
    print(line)
    assert ok, line


def _suite(size=SUITE_SIZE):
    rng = np.random.default_rng(SUITE_SEED)
    return [random_instance(rng, 15, 60) for _ in range(size)]


def rect(x0, y0, x1, y1):
    return ((x0, y0), (x1, y0), (x1, y1), (x0, y1))


def micro_scene(rng, n_obstacles):
    scene = Scene(
        road_segments=(RoadSegment(id="r", polygon=rect(-20, -20, 20, 20)),),
        obstacles=tuple(
            Obstacle(
                id=f"o{k}",
                footprint=convex_polygon(
                    rng, rng.uniform(-12, 12), rng.uniform(-12, 12), 0.8, 3.5
                ),
                height=float(rng.uniform(1.0, 6.0)),
            )
            for k in range(n_obstacles)
        ),
        mount_zones=(
            MountZone(id="z", geometry=rect(-18, -18, 18, 18), allowed_heights=(5.0,)),
        ),
    )
    targets = discretize_roi(scene, spacing=6.0)  # 36 targets
    spec = SensorSpec(
        type_id="t",
        channels=6,
        vertical_fov_min=-25.0,
        vertical_fov_max=-2.0,
        horizontal_fov=360.0,
        range_m=80.0,
        unit_cost=1.0,
        azimuth_step=20.0,
    )
    cands = tuple(
        Candidate(
            x=float(rng.uniform(-15, 15)),
            y=float(rng.uniform(-15, 15)),
            height=float(rng.uniform(3, 8)),
            sensor=spec,
            cost=1.0,
        )
        for _ in range(int(rng.integers(1, 6)))
    )
    return scene, targets, cands


def test_criterion_1_exact_solver_matches_exhaustive_oracle():
    t0 = time.perf_counter()
    mismatches = 0
    for rows, weights, costs, budget, count in _suite():
        for constraint in (budget, count):
            grid = VisibilityGrid(bits=rows, delta=1.0)
            sol = solve_exact(DeploymentProblem(grid, weights, costs, constraint))
            want = exhaustive_best(rows, weights, costs, constraint)
            if not math.isclose(sol.objective, want, rel_tol=1e-12, abs_tol=1e-9):
                mismatches += 1
    elapsed = time.perf_counter() - t0
    _check(
        1,
        "exact solver vs exhaustive subset oracle",
        mismatches == 0 and elapsed < 60.0,
        f"{SUITE_SIZE} instances x 2 constraint forms, {mismatches} mismatches, "
        f"{elapsed:.1f}s",
    )


def test_criterion_2_greedy_approximation_guarantee():
    bound = 1.0 - 1.0 / math.e
    ratios = []
    violations = 0
    for rows, weights, costs, _, count in _suite():
        grid = VisibilityGrid(bits=rows, delta=1.0)
        problem = DeploymentProblem(grid, weights, costs, count)
        exact = solve_exact(problem)
        greedy = solve_greedy(problem)
        if exact.objective <= 0:
            ratios.append(1.0)
            continue
        ratio = greedy.objective / exact.objective
        ratios.append(ratio)
        if ratio < bound - 1e-9:
            violations += 1
    _check(
        2,
        "greedy within 1-1/e of exact, cardinality mode",
        violations == 0,
        f"mean ratio {np.mean(ratios):.4f}, min {min(ratios):.4f}, "
        f"{violations} below bound over {SUITE_SIZE} instances",
    )


def test_criterion_3_visibility_grid_matches_brute_force():
    rng = np.random.default_rng(SUITE_SEED + 3)
    bad = 0
    scenes = 0
    for _ in range(10):
        scene, targets, cands = micro_scene(rng, n_obstacles=int(rng.integers(0, 4)))
        delta = float(rng.uniform(1.0, 5.0))
        grid = build_visibility_grid(cands, targets, scene, delta=delta)
        clouds = [reference_cloud(c, scene) for c in cands]
        want = brute_force_visibility(
            clouds, [tuple(p) for p in targets.points], delta, 0.0
        )
        scenes += 1
        if not np.array_equal(grid.bits, want):
            bad += 1
    _check(
        3,
        "visibility grid vs quadratic brute force",
        bad == 0,
        f"{scenes} micro-scenes bit-identical",
    )


def test_criterion_4_ground_distance_formula(demo_scene):
    open_scene = Scene(
        road_segments=(RoadSegment(id="r", polygon=rect(-400, -400, 400, 400)),),
        mount_zones=(MountZone(id="z", geometry=rect(-1, -1, 1, 1), allowed_heights=(5.0,)),),
    )
    checked = 0
    worst = 0.0
    ok = True
    for base in demo_scene.catalog:
        spec = replace(base, azimuth_step=45.0)
        dirs = generate_beams(spec)
        elev = np.degrees(np.arcsin(np.clip(dirs[:, 2], -1, 1)))
        for height in (3.5, 5.4, 8.0):
            cand = Candidate(x=0.0, y=0.0, height=height, sensor=spec,
                             cost=1.0)
            cloud = simulate_sensor(cand, open_scene)
            down = elev < 0
            t_ground = np.full(len(dirs), np.inf)
            t_ground[down] = height / np.sin(np.radians(-elev[down]))
            should_hit = t_ground <= spec.range_m
            if should_hit.sum() != len(cloud):
                ok = False
                continue
            predicted = height / np.tan(np.radians(-elev[should_hit]))
            radii = np.hypot(cloud[:, 0], cloud[:, 1])
            rel = np.abs(radii - predicted) / predicted
            worst = max(worst, float(rel.max()))
            checked += int(should_hit.sum())
            if not np.all(rel < 1e-6):
                ok = False
    _check(
        4,
        "downward beams land at height/tan(|elevation|)",
        ok,
        f"{checked} beams over 3 specs x 3 heights, worst rel err {worst:.2e}",
    )


def test_criterion_5_unit_weights_reproduce_plain_coverage_count():
    rng = np.random.default_rng(SUITE_SEED + 5)
    exact_matches = 0
    n = 200
    for _ in range(n):
        rows, _, costs, budget, count = random_instance(rng, 12, 40)
        grid = VisibilityGrid(bits=rows, delta=1.0)
        ones = np.ones(rows.shape[1])
        for constraint in (budget, count):
            sol = solve_exact(DeploymentProblem(grid, ones, costs, constraint))
            count_objective = exhaustive_best(rows, ones, costs, constraint)
            if sol.objective == count_objective == float(len(sol.covered)):
                exact_matches += 1
    _check(
        5,
        "weighted solver with unit weights equals plain covered count",
        exact_matches == 2 * n,
        f"{exact_matches}/{2 * n} instances matched exactly",
    )


def test_criterion_6_monotonicity_suite():
    rng = np.random.default_rng(SUITE_SEED + 6)
    violations = 0

    # exact objective non-decreasing in N and in C
    for _ in range(30):
        rows, weights, costs, _, _ = random_instance(rng, 9, 30)
        grid = VisibilityGrid(bits=rows, delta=1.0)
        objs = [
            solve_exact(DeploymentProblem(grid, weights, costs, Cardinality(k))).objective
            for k in range(rows.shape[0] + 1)
        ]
        violations += sum(1 for a, b in zip(objs, objs[1:]) if b < a - 1e-9)
        objs = [
            solve_exact(DeploymentProblem(grid, weights, costs, Budget(float(c)))).objective
            for c in np.linspace(0, costs.sum(), 5)
        ]
        violations += sum(1 for a, b in zip(objs, objs[1:]) if b < a - 1e-9)

    # visibility bits monotone in delta and range; obstacles only clear bits
    for _ in range(6):
        scene, targets, cands = micro_scene(rng, n_obstacles=2)
        d1, d2 = sorted(rng.uniform(0.5, 6.0, 2))
        g1 = build_visibility_grid(cands, targets, scene, delta=float(d1))
        g2 = build_visibility_grid(cands, targets, scene, delta=float(d2))
        violations += int(np.any(g1.bits & ~g2.bits))

        far = tuple(replace(c, sensor=replace(c.sensor, range_m=c.sensor.range_m * 2))
                    for c in cands)
        g3 = build_visibility_grid(far, targets, scene, delta=float(d1))
        violations += int(np.any(g1.bits & ~g3.bits))

        extra = Obstacle(
            id="extra",
            footprint=convex_polygon(rng, rng.uniform(-10, 10), rng.uniform(-10, 10), 1, 4),
            height=float(rng.uniform(1, 8)),
        )
        blocked = replace(scene, obstacles=scene.obstacles + (extra,))
        g4 = build_visibility_grid(cands, targets, blocked, delta=float(d1))
        violations += int(np.any(g4.bits & ~g1.bits))
    _check(
        6,
        "monotone in N, C, delta, range; obstacles never add bits",
        violations == 0,
        f"{violations} violations",
    )


# Frozen values for the bundled scene, first derived by the exact solver
# and pinned here as regression goldens.
GOLDEN_T3_OBJECTIVES = {1: 329.0, 2: 360.0, 3: 360.0, 4: 360.0}
GOLDEN_T3_N1_PICK = (-10.0, -8.0, 5.4)
GOLDEN_T1_N1_PICK = (-10.0, -8.0, 3.5)
GOLDEN_T1_N1_OBJECTIVE = 134.0
GOLDEN_CENTRAL_VANILLA = 35 / 36
GOLDEN_CENTRAL_WEIGHTED = 36 / 36


def test_criterion_7_demo_scenario(demo_targets, demo_grid_t3, demo_candidates_t3,
                                   demo_grid_t1, demo_candidates_t1, demo_weights_central10):
    notes = []
    ok = True

    # (a) Type-3 saturation: the fourth unit is within 1% of pointless
    objectives = {}
    picks = {}
    for n in (1, 2, 3, 4):
        sol = solve_exact(
            DeploymentProblem(
                demo_grid_t3, demo_targets.weights, [c.cost for c in demo_candidates_t3],
                Cardinality(n),
            )
        )
        objectives[n] = sol.objective
        picks[n] = sol.selected
    total = float(demo_targets.weights.sum())
    marginal = objectives[4] - objectives[3]
    sat_ok = marginal < 0.01 * total
    golden_ok = objectives == GOLDEN_T3_OBJECTIVES
    ok &= sat_ok and golden_ok
    notes.append(f"a: N=4 marginal {marginal:g} < {0.01 * total:g} "
                 f"{'and goldens held' if golden_ok else 'BUT GOLDENS MOVED'}")

    # (b) central weight 10: the weighted run covers the center at least as well
    weights10 = demo_weights_central10
    vanilla, weighted = (
        solve(DeploymentProblem(demo_grid_t1, w, [c.cost for c in demo_candidates_t1],
                                Cardinality(4)))
        for w in (np.ones_like(weights10), weights10)
    )
    cmp = compare_weighted(vanilla, weighted, weights10)
    b_ok = (
        cmp.weighted_priority >= cmp.vanilla_priority
        and cmp.vanilla_priority == GOLDEN_CENTRAL_VANILLA
        and cmp.weighted_priority == GOLDEN_CENTRAL_WEIGHTED
    )
    ok &= b_ok
    notes.append(
        f"b: central {cmp.vanilla_priority:.4f} -> {cmp.weighted_priority:.4f}"
    )

    # (c) best single Type-1 mounts low, best single Type-3 mounts high
    t1 = solve_exact(
        DeploymentProblem(
            demo_grid_t1, demo_targets.weights, [c.cost for c in demo_candidates_t1], Cardinality(1)
        )
    )
    t3 = solve_exact(
        DeploymentProblem(
            demo_grid_t3, demo_targets.weights, [c.cost for c in demo_candidates_t3], Cardinality(1)
        )
    )
    c1 = demo_candidates_t1[t1.selected[0]]
    c3 = demo_candidates_t3[t3.selected[0]]
    c_ok = (
        c1.height == 3.5
        and c3.height >= 5.4
        and (c1.x, c1.y, c1.height) == GOLDEN_T1_N1_PICK
        and (c3.x, c3.y, c3.height) == GOLDEN_T3_N1_PICK
        and t1.objective == GOLDEN_T1_N1_OBJECTIVE
        and objectives[1] == t3.objective
    )
    ok &= c_ok
    notes.append(f"c: type-1 at {c1.height} m, type-3 at {c3.height} m")

    _check(7, "bundled-scene scenario checks", ok, "; ".join(notes))


def test_criterion_8_pipeline_determinism(tmp_path):
    args = [
        "--types", "type-3", "--count", "3", "--seed", "7",
        "--trials", "3", "--vehicles", "2",
        "--gain-budgets", "1,2,3,4",
    ]
    out_a = tmp_path / "a"
    out_b = tmp_path / "b"
    assert cli_main(["pipeline", *args, "--jobs", "4", "--out", str(out_a)]) == 0
    assert cli_main(["pipeline", *args, "--jobs", "1", "--out", str(out_b)]) == 0
    names = sorted(p.name for p in out_a.iterdir())
    same = names == sorted(p.name for p in out_b.iterdir())
    diffs = [
        n for n in names if (out_a / n).read_bytes() != (out_b / n).read_bytes()
    ]
    manifest_a = json.loads((out_a / "manifest.json").read_text())
    manifest_b = json.loads((out_b / "manifest.json").read_text())
    _check(
        8,
        "pipeline byte-identical across runs and worker counts",
        same and not diffs and manifest_a == manifest_b,
        f"{len(names)} artifacts compared" + (f", differing: {diffs}" if diffs else ""),
    )


def test_criterion_9_occlusion_proxy_sanity(demo_scene, demo_targets,
                                            demo_grid_t3, demo_candidates_t3):
    solution = solve_exact(
        DeploymentProblem(
            demo_grid_t3, demo_targets.weights, [c.cost for c in demo_candidates_t3], Cardinality(3)
        )
    )
    means = []
    zero_exact = False
    for count in (0, 2, 4, 8):
        report = occlusion_monte_carlo(
            solution, demo_scene, demo_targets, demo_candidates_t3,
            VehicleModel(count=count), trials=5, seed=19, delta=demo_grid_t3.delta,
        )
        means.append(report.mean_coverage)
        if count == 0:
            zero_exact = (
                report.mean_coverage == report.static_coverage
                and report.per_trial == (report.static_coverage,) * 5
            )
    non_increasing = all(b <= a + 1e-12 for a, b in zip(means, means[1:]))
    _check(
        9,
        "occlusion proxy: zero-vehicle exact, mean non-increasing in vehicles",
        zero_exact and non_increasing,
        "means over {0,2,4,8} vehicles: " + ", ".join(f"{m:.4f}" for m in means),
    )
