"""Post-solve analysis: budget sweeps, priority-weighting comparisons, a
Monte-Carlo moving-occluder robustness proxy, and SVG coverage maps.

The detection-quality proxies here are geometric (sample density, coverage
under random occluders), not object-detection metrics; reports label them
as proxies.  Both come from one cast of each selected sensor's ground rays
into the static scene (raycast.GroundReturns): an occlusion trial clips
only its vehicles against those rays and recounts only the rays they block.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

import numpy as np

from .discretization import Candidate, TargetGrid
from .geometry import points_in_polygon, polygon_area, polygon_bounds
from .raycast import TargetIndex, VisibilityGrid, _ground_returns, _prisms
from .scene import Obstacle, Scene, scene_bounds
from .solver import (
    EXACT_LIMIT_DEFAULT,
    Budget,
    Cardinality,
    DeploymentProblem,
    Solution,
    coverage_fraction,
    solve,
)

PROXY_NOTE = (
    "geometric proxy metrics (coverage, sample density, occlusion robustness); "
    "not object-detection accuracy"
)


@dataclass(frozen=True)
class GainCurve:
    """Objective as a function of budget, one solve per budget."""

    budgets: tuple[float, ...]
    objectives: tuple[float, ...]
    coverages: tuple[float, ...]
    methods: tuple[str, ...]


def gain_curve(
    grid: VisibilityGrid,
    weights: np.ndarray,
    costs: Sequence[float],
    kind: str,
    budgets: Sequence[float],
    exact_limit: int = EXACT_LIMIT_DEFAULT,
) -> GainCurve:
    """Solve the same instance at each budget in an increasing sweep.  Budgets
    must be finite, >= 0, strictly increasing and whole for kind "count", and
    the total weight > 0, or ValueError is raised before anything is solved."""
    if kind not in ("count", "budget"):
        raise ValueError(f"kind must be 'count' or 'budget', not {kind!r}")
    budgets = [float(b) for b in budgets]
    if not all(math.isfinite(b) and b >= 0 for b in budgets):
        raise ValueError("budgets must be finite and >= 0")
    if kind == "count" and not all(b.is_integer() for b in budgets):
        raise ValueError("count budgets must be whole numbers")
    if any(b2 <= b1 for b1, b2 in zip(budgets, budgets[1:])):
        raise ValueError("budgets must be strictly increasing")
    total_w = float(np.asarray(weights).sum())
    if not total_w > 0:
        raise ValueError("total target weight must be > 0")
    objectives, methods = [], []
    for b in budgets:
        constraint = Cardinality(int(b)) if kind == "count" else Budget(b)
        sol = solve(DeploymentProblem(grid, weights, costs, constraint), "auto", exact_limit)
        objectives.append(sol.objective)
        methods.append(sol.method)
    return GainCurve(
        budgets=tuple(budgets),
        objectives=tuple(objectives),
        coverages=tuple(obj / total_w for obj in objectives),
        methods=tuple(methods),
    )


def write_gain_curve_csv(curve: GainCurve, path: str | Path) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["budget", "objective", "coverage", "method"])
        writer.writerows(zip(curve.budgets, curve.objectives, curve.coverages, curve.methods))


@dataclass(frozen=True)
class WeightedComparison:
    """Same grid solved with unit weights vs. priority weights.

    Coverage numbers are unweighted fractions of targets covered, overall
    and restricted to the high-priority region (targets with weight > 1).
    """

    vanilla: Solution
    weighted: Solution
    vanilla_overall: float
    weighted_overall: float
    vanilla_priority: float
    weighted_priority: float
    n_priority: int


def compare_weighted(
    grid: VisibilityGrid,
    weights: np.ndarray,
    costs: Sequence[float],
    constraint,
    exact_limit: int = EXACT_LIMIT_DEFAULT,
) -> WeightedComparison:
    """Solve once with all weights 1 and once with the given weights."""
    weights = np.asarray(weights, dtype=np.float64)
    priority = weights > 1
    if not priority.any():
        raise ValueError("no high-priority targets: every weight is <= 1")
    unit = np.ones_like(weights)
    vanilla = solve(DeploymentProblem(grid, unit, costs, constraint), "auto", exact_limit)
    weighted = solve(DeploymentProblem(grid, weights, costs, constraint), "auto", exact_limit)

    def frac(sol: Solution, mask: np.ndarray) -> float:
        hits = sum(1 for j in sol.covered if mask[j])
        return hits / int(mask.sum())

    everywhere = np.ones(grid.cols, dtype=bool)
    return WeightedComparison(
        vanilla=vanilla,
        weighted=weighted,
        vanilla_overall=frac(vanilla, everywhere),
        weighted_overall=frac(weighted, everywhere),
        vanilla_priority=frac(vanilla, priority),
        weighted_priority=frac(weighted, priority),
        n_priority=int(priority.sum()),
    )


@dataclass(frozen=True)
class VehicleModel:
    """Axis-aligned occluder boxes standing in for parked/moving vehicles.

    Defaults approximate a typical sedan; count is the fixed number dropped
    per trial.
    """

    length: float = 4.5
    width: float = 2.0
    height: float = 1.6
    count: int = 4

    def __post_init__(self):
        if self.length <= 0 or self.width <= 0 or self.height <= 0:
            raise ValueError("vehicle dimensions must be > 0")
        if self.count < 0:
            raise ValueError("vehicle count must be >= 0")


@dataclass(frozen=True)
class OcclusionReport:
    mean_coverage: float
    min_coverage: float
    static_coverage: float
    per_trial: tuple[float, ...]
    density: tuple[int, ...]  # sample_density per target, static scene, summed over sensors


def _sample_vehicles(scene: Scene, vehicle: VehicleModel,
                     rng: np.random.Generator) -> list[Obstacle]:
    """Drop vehicle boxes uniformly over the road area, sequentially from
    one stream so a larger count extends a smaller one's draw."""
    segments = scene.road_segments
    areas = np.array([polygon_area(s.polygon) for s in segments])
    probs = areas / areas.sum()
    boxes: list[Obstacle] = []
    for k in range(vehicle.count):
        seg = segments[int(rng.choice(len(segments), p=probs))]
        bx0, by0, bx1, by1 = polygon_bounds(seg.polygon)
        cx = cy = None
        for _ in range(10000):
            px = rng.uniform(bx0, bx1)
            py = rng.uniform(by0, by1)
            if points_in_polygon(px, py, seg.polygon):
                cx, cy = px, py
                break
        if cx is None:
            continue
        # Heading snaps to the segment's longer bbox axis.
        if bx1 - bx0 >= by1 - by0:
            hx, hy = vehicle.length / 2, vehicle.width / 2
        else:
            hx, hy = vehicle.width / 2, vehicle.length / 2
        boxes.append(
            Obstacle(
                id=f"vehicle_{k}",
                footprint=(
                    (cx - hx, cy - hy),
                    (cx + hx, cy - hy),
                    (cx + hx, cy + hy),
                    (cx - hx, cy + hy),
                ),
                height=vehicle.height,
            )
        )
    return boxes


def occlusion_monte_carlo(
    solution: Solution,
    scene: Scene,
    targets: TargetGrid,
    candidates: Sequence[Candidate],
    vehicle: VehicleModel,
    trials: int,
    seed: int,
    delta: float,
    intensity_min: float | None = None,
) -> OcclusionReport:
    """Coverage of the chosen deployment under randomly placed vehicle
    boxes, and the static scene's sample density.

    Vehicles can only bring a beam's hit nearer, so each selected sensor is
    cast once against the static scene, whose samples give each target its
    density and strict count (sample_density).  A trial clips its vehicles
    against the sensor's rays; the rays they block trade their static
    sample for their new hit if still eligible, and a target is covered
    while its strict count is above 0, as in a recast with the vehicles.
    Prisms are made once; each trial uses the substream (seed, trial).
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    weights = targets.weights
    total_w = float(weights.sum())
    if total_w <= 0:
        raise ValueError("total target weight must be > 0")
    static_cov = coverage_fraction(solution, weights)
    ground_z = scene.ground_elevation
    static = _prisms(scene.obstacles, ground_z)
    trial_prisms = [
        _prisms(_sample_vehicles(scene, vehicle, np.random.default_rng([seed, t])), ground_z)
        for t in range(trials)
    ]
    covered = np.zeros((trials, len(targets)), dtype=bool)
    density = np.zeros(len(targets), dtype=np.int64)
    index = TargetIndex(targets.points, delta)
    for i, sensor in _ground_returns(candidates, solution.selected, scene, static, index):
        ray, xy, key = sensor.eligible(intensity_min)
        closed, strict = sample_density(xy, index, key)
        density += closed
        for t, vehicles in enumerate(trial_prisms):
            blocked, t_best = sensor.clip(vehicles)
            lost = (t_best < sensor.t_static)[ray]  # the blocked rays' static samples
            _, new_xy, new_key = sensor.eligible(intensity_min, t_best, blocked)
            lost_count = sample_density(xy[lost], index, key[lost])[1]
            covered[t] |= strict - lost_count + sample_density(new_xy, index, new_key)[1] > 0
    coverages = [float(weights[row].sum()) / total_w for row in covered]
    return OcclusionReport(
        mean_coverage=float(np.mean(coverages)),
        min_coverage=float(np.min(coverages)),
        static_coverage=static_cov,
        per_trial=tuple(coverages),
        density=tuple(density.tolist()),
    )


def sample_density(xy: np.ndarray, index: TargetIndex,
                   key: np.ndarray | None = None) -> tuple[np.ndarray, np.ndarray]:
    """(closed, strict): per indexed target, the samples of xy (eligible
    returns, GroundReturns.eligible) at np.hypot(dx, dy) <= index.delta, a
    proxy for how strongly each cell is observed, and those < index.delta,
    raycast.visibility_row's strict radius."""
    closed, strict = np.zeros((2, index.size), dtype=np.int64)
    for ids, near, inside in index.within(xy, key):
        closed += np.bincount(ids.compress(near), minlength=index.size)
        strict += np.bincount(ids.compress(inside), minlength=index.size)
    return closed, strict


_SVG_COLORS = {
    "background": "#f7f7f5",
    "road": "#d8d8d8",
    "road_edge": "#b9b9b9",
    "cell": "#c9c9c9",
    "obstacle": "#8f8f8f",
    "obstacle_edge": "#5f5f5f",
    "covered": "#d62728",
    "uncovered_edge": "#9a9a9a",
    "sensor": "#2ca02c",
    "label": "#1a5e1a",
}


def _fmt(v: float) -> str:
    return f"{v:.3f}"


def render_coverage_map(
    scene: Scene,
    targets: TargetGrid,
    grid: VisibilityGrid,
    solution: Solution,
    candidates: Sequence[Candidate],
    path: str | Path,
) -> None:
    """Write an SVG map: roads, obstacles, target cells (covered ones as
    filled red dots, uncovered hollow), and the selected sensors as green
    circles labeled type@height.

    Output is plain text with fixed ordering and 3-decimal coordinates, so
    identical inputs give byte-identical files.
    """
    xmin, ymin, xmax, ymax = scene_bounds(scene)
    for c in candidates:
        xmin, xmax = min(xmin, c.x), max(xmax, c.x)
        ymin, ymax = min(ymin, c.y), max(ymax, c.y)
    margin = 2.0 * targets.spacing
    xmin, ymin, xmax, ymax = xmin - margin, ymin - margin, xmax + margin, ymax + margin
    scale = 8.0
    width, height = (xmax - xmin) * scale, (ymax - ymin) * scale

    def sx(x: float) -> str:
        return _fmt((x - xmin) * scale)

    def sy(y: float) -> str:
        return _fmt((ymax - y) * scale)  # flip: SVG y grows downward

    def poly(points, fill, stroke, width_px=1.0, opacity=None) -> str:
        pts = " ".join(f"{sx(px)},{sy(py)}" for px, py in points)
        extra = f' fill-opacity="{opacity}"' if opacity is not None else ""
        return (
            f'<polygon points="{pts}" fill="{fill}" stroke="{stroke}" '
            f'stroke-width="{width_px}"{extra}/>'
        )

    lines = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_fmt(width)}" '
        f'height="{_fmt(height)}" viewBox="0 0 {_fmt(width)} {_fmt(height)}">',
        f"<title>coverage {_fmt(100.0 * len(solution.covered) / max(1, grid.cols))}% "
        f"({solution.method})</title>",
        f'<rect width="100%" height="100%" fill="{_SVG_COLORS["background"]}"/>',
    ]
    for seg in scene.road_segments:
        lines.append(poly(seg.polygon, _SVG_COLORS["road"], _SVG_COLORS["road_edge"]))
    half = targets.spacing / 2.0
    points = targets.points.tolist()
    cell = (
        f'width="{_fmt(targets.spacing * scale)}" height="{_fmt(targets.spacing * scale)}" '
        f'fill="none" stroke="{_SVG_COLORS["cell"]}" stroke-width="0.5"/>'
    )
    for x, y in points:
        lines.append(f'<rect x="{sx(x - half)}" y="{sy(y + half)}" {cell}')
    for obstacle in scene.obstacles:
        lines.append(
            poly(
                obstacle.footprint,
                _SVG_COLORS["obstacle"],
                _SVG_COLORS["obstacle_edge"],
                opacity=0.9,
            )
        )
    r_dot = _fmt(targets.spacing * 0.15 * scale)
    dot = {  # by whether the target is covered
        True: f'r="{r_dot}" fill="{_SVG_COLORS["covered"]}"/>',
        False: f'r="{r_dot}" fill="#ffffff" '
               f'stroke="{_SVG_COLORS["uncovered_edge"]}" stroke-width="0.8"/>',
    }
    covered = np.zeros(len(points), dtype=bool)
    covered[list(solution.covered)] = True
    for (x, y), hit in zip(points, covered.tolist()):
        lines.append(f'<circle cx="{sx(x)}" cy="{sy(y)}" {dot[hit]}')
    r_sensor = _fmt(targets.spacing * 0.3 * scale)
    font = _fmt(targets.spacing * 0.55 * scale)
    for i in solution.selected:
        c = candidates[i]
        lines.append(
            f'<circle cx="{sx(c.x)}" cy="{sy(c.y)}" r="{r_sensor}" '
            f'fill="{_SVG_COLORS["sensor"]}" stroke="#ffffff" stroke-width="1.5"/>'
        )
        lines.append(
            f'<text x="{sx(c.x)}" y="{_fmt(float(sy(c.y)) - float(r_sensor) - 4.0)}" '
            f'text-anchor="middle" font-family="sans-serif" font-size="{font}" '
            f'fill="{_SVG_COLORS["label"]}">{c.sensor.type_id}@{c.height:g}m</text>'
        )
    lines.append("</svg>")
    with open(path, "w", encoding="utf-8") as fh:  # line by line: no copy of the whole map
        fh.writelines(line + "\n" for line in lines)
