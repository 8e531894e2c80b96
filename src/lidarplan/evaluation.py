"""Post-solve analysis: budget sweeps, priority-weighting comparisons, a
Monte-Carlo moving-occluder robustness proxy, and SVG coverage maps.

Nothing here solves: the sweep and the comparison summarize solutions the
caller solved (the CLI's Run.solved, which solves each distinct problem of
a run once).  The detection-quality proxies are geometric (sample density,
coverage under random occluders), not object-detection metrics; reports
label them as proxies.  Both come from one cast of each selected sensor's
ground rays into the static scene (raycast.GroundReturns), which hands out
its sample positions: an occlusion trial casts only its vehicles, from the
ground, against those rays and takes away the samples of the rays they block.
"""

from __future__ import annotations

import bisect
import itertools
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

import numpy as np

from .discretization import Candidate, TargetGrid, _write_csv
from .geometry import points_in_polygon, polygon_area, polygon_bounds
from .raycast import TargetIndex, _ground_returns, _prisms
from .scene import Obstacle, Scene, scene_bounds
from .solver import Solution, coverage_fraction

PROXY_NOTE = (
    "geometric proxy metrics (coverage, sample density, occlusion robustness); "
    "not object-detection accuracy"
)


@dataclass(frozen=True)
class GainCurve:
    """Objective as a function of budget, from one solution per budget."""

    budgets: tuple[float, ...]
    objectives: tuple[float, ...]
    coverages: tuple[float, ...]
    methods: tuple[str, ...]


def gain_curve(budgets: Sequence[float], solutions: Sequence[Solution],
               weights: np.ndarray) -> GainCurve:
    """The sweep's points: solutions[k] solves the instance at budgets[k],
    and its coverage is its objective over the total weight, which must be
    > 0."""
    if len(budgets) != len(solutions):
        raise ValueError(f"{len(budgets)} budgets but {len(solutions)} solutions")
    total_w = float(np.asarray(weights).sum())
    if not total_w > 0:
        raise ValueError("total target weight must be > 0")
    objectives = tuple(sol.objective for sol in solutions)
    return GainCurve(
        budgets=tuple(float(b) for b in budgets),
        objectives=objectives,
        coverages=tuple(obj / total_w for obj in objectives),
        methods=tuple(sol.method for sol in solutions),
    )


def write_gain_curve_csv(curve: GainCurve, path: str | Path) -> None:
    _write_csv(path, ["budget", "objective", "coverage", "method"],
               zip(curve.budgets, curve.objectives, curve.coverages, curve.methods))


@dataclass(frozen=True)
class WeightedComparison:
    """A deployment solved with unit weights (vanilla) against one solved
    with priority weights, on the same grid and constraint.

    Coverage numbers are unweighted fractions of targets covered, overall
    and restricted to the high-priority region (targets with weight > 1).
    """

    vanilla_overall: float
    weighted_overall: float
    vanilla_priority: float
    weighted_priority: float
    n_priority: int


def compare_weighted(vanilla: Solution, weighted: Solution,
                     weights: np.ndarray) -> WeightedComparison:
    """Coverage of both solutions, everywhere and where the weight exceeds 1."""
    priority = np.asarray(weights, dtype=np.float64) > 1
    if not priority.any():
        raise ValueError("no high-priority targets: every weight is <= 1")

    def frac(sol: Solution, mask: np.ndarray) -> float:
        hits = sum(1 for j in sol.covered if mask[j])
        return hits / int(mask.sum())

    everywhere = np.ones(len(priority), dtype=bool)
    return WeightedComparison(
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
    density: np.ndarray  # int64 sample_density per target, static scene, summed over sensors
    static_covered: frozenset[int]  # the targets that some sensor's strict count reaches


def _trial_rng(seed: int, t: int) -> random.Random:
    """Trial t's vehicle stream.  A str seed is hashed with SHA-512, so
    "seed:t" gives each (seed, trial) its own stream on every CPython."""
    return random.Random(f"{seed}:{t}")


def _sample_vehicles(scene: Scene, vehicle: VehicleModel,
                     rng: random.Random) -> list[Obstacle]:
    """Drop vehicle boxes uniformly over the road area, sequentially from
    one stream so a larger count extends a smaller one's draw.  Only
    random() and uniform() are drawn: Python keeps their output fixed."""
    segments = scene.road_segments
    cumulative = list(itertools.accumulate(polygon_area(s.polygon) for s in segments))
    boxes: list[Obstacle] = []
    for k in range(vehicle.count):
        # a segment with probability proportional to its area (every area is > 0)
        seg = segments[bisect.bisect_right(cumulative, rng.random() * cumulative[-1])]
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
    boxes, and the static scene's sample density and covered targets.

    Only a ray whose nearest hit is the ground gives a sample, and vehicles
    can only bring a hit nearer, so they only take samples away.  Each
    selected sensor is cast once against the static scene, whose sample
    positions give each target its density and strict count
    (sample_density); its rays hold no beam below intensity_min (_pattern).
    A trial casts only its vehicles, from the ground, against those rays
    (GroundReturns.blocked); the samples they stop short are lost, and a
    target is covered while its strict count stays above 0, as in a recast.
    Prisms are made once.  Each trial draws its vehicles from its own
    Python random.Random stream, seeded by (seed, trial) (_trial_rng).
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    weights = targets.weights
    total_w = float(weights.sum())
    if total_w <= 0:
        raise ValueError("total target weight must be > 0")
    static_cov = coverage_fraction(solution, weights)
    trial_prisms = [
        _prisms(_sample_vehicles(scene, vehicle, _trial_rng(seed, t)), scene.ground_elevation)
        for t in range(trials)
    ]
    covered = np.zeros((trials, len(targets)), dtype=bool)
    density = np.zeros(len(targets), dtype=np.int64)
    static_covered = np.zeros(len(targets), dtype=bool)
    index = TargetIndex(targets.points, delta)
    for _, sensor in _ground_returns(candidates, solution.selected, scene, index, intensity_min):
        closed, strict = sample_density(sensor.xy, index)
        density += closed
        static_covered |= strict > 0
        for t, vehicles in enumerate(trial_prisms):
            covered[t] |= strict - sample_density(sensor.xy[sensor.blocked(vehicles)], index)[1] > 0
    coverages = [float(weights[row].sum()) / total_w for row in covered]
    return OcclusionReport(
        mean_coverage=float(np.mean(coverages)),
        min_coverage=float(np.min(coverages)),
        static_coverage=static_cov,
        per_trial=tuple(coverages),
        density=density,
        static_covered=frozenset(np.flatnonzero(static_covered).tolist()),
    )


def sample_density(xy: np.ndarray, index: TargetIndex) -> tuple[np.ndarray, np.ndarray]:
    """(closed, strict): per indexed target, the samples of xy (sample
    positions, GroundReturns.xy) at np.hypot(dx, dy) <= index.delta,
    a proxy for how strongly each cell is observed, and those < index.delta,
    raycast.visibility_row's strict radius."""
    closed, strict = np.zeros((2, index.size), dtype=np.int64)
    for ids, near, inside in index.within(xy):
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
    solution: Solution,
    candidates: Sequence[Candidate],
    path: str | Path,
) -> None:
    """Write an SVG map: roads, obstacles, target cells (covered ones as
    filled red dots, uncovered hollow), and the selected sensors as green
    circles labeled type@height.  Cells, dots and labels scale with the
    lattice step that the target points give (TargetGrid.spacing).

    Output is plain text with fixed ordering and 3-decimal coordinates, so
    identical inputs give byte-identical files.
    """
    xmin, ymin, xmax, ymax = scene_bounds(scene)
    for c in candidates:
        xmin, xmax = min(xmin, c.x), max(xmax, c.x)
        ymin, ymax = min(ymin, c.y), max(ymax, c.y)
    step = targets.spacing
    margin = 2.0 * step
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
        f"<title>coverage {_fmt(100.0 * len(solution.covered) / max(1, len(targets)))}% "
        f"({solution.method})</title>",
        f'<rect width="100%" height="100%" fill="{_SVG_COLORS["background"]}"/>',
    ]
    for seg in scene.road_segments:
        lines.append(poly(seg.polygon, _SVG_COLORS["road"], _SVG_COLORS["road_edge"]))
    half = step / 2.0
    points = targets.points.tolist()
    cell = (
        f'width="{_fmt(step * scale)}" height="{_fmt(step * scale)}" '
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
    r_dot = _fmt(step * 0.15 * scale)
    dot = {  # by whether the target is covered
        True: f'r="{r_dot}" fill="{_SVG_COLORS["covered"]}"/>',
        False: f'r="{r_dot}" fill="#ffffff" '
               f'stroke="{_SVG_COLORS["uncovered_edge"]}" stroke-width="0.8"/>',
    }
    covered = np.zeros(len(points), dtype=bool)
    covered[list(solution.covered)] = True
    for (x, y), hit in zip(points, covered.tolist()):
        lines.append(f'<circle cx="{sx(x)}" cy="{sy(y)}" {dot[hit]}')
    r_sensor = _fmt(step * 0.3 * scale)
    font = _fmt(step * 0.55 * scale)
    for i in solution.selected:
        c = candidates[i]
        label = c.sensor.type_id.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")
        lines.append(
            f'<circle cx="{sx(c.x)}" cy="{sy(c.y)}" r="{r_sensor}" '
            f'fill="{_SVG_COLORS["sensor"]}" stroke="#ffffff" stroke-width="1.5"/>'
        )
        lines.append(
            f'<text x="{sx(c.x)}" y="{_fmt(float(sy(c.y)) - float(r_sensor) - 4.0)}" '
            f'text-anchor="middle" font-family="sans-serif" font-size="{font}" '
            f'fill="{_SVG_COLORS["label"]}">{label}@{c.height:g}m</text>'
        )
    lines.append("</svg>")
    with open(path, "w", encoding="utf-8") as fh:  # line by line: no copy of the whole map
        fh.writelines(line + "\n" for line in lines)
