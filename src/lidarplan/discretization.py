"""Lattice discretization of the region of interest and the mount zones.

Turns continuous road polygons into a finite set of target points and the
mount zones into a finite set of sensor placement candidates.  Both lattices
use the same rule: uniformly spaced coordinates strictly inside the
bounding box of the relevant geometry (the first lattice line sits one
spacing step past the minimum, the last strictly before the maximum), each
owned by the first region in file order (road segment or mount zone) that
holds it, a region being tested only inside its grown bounding box (_claim).
Points exactly on a polygon edge count as inside, with tolerance 1e-9 m.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from functools import partial
from pathlib import Path
from typing import Sequence

import numpy as np

from .geometry import EDGE_EPS, points_in_polygon, points_segment_distance, polygon_bounds
from .scene import MountZone, Scene, SensorSpec, demo_scene_path, load_scene, scene_bounds

TARGETS_CSV_HEADER = ["idx", "x", "y", "weight", "segment"]
CANDIDATES_CSV_HEADER = ["idx", "x", "y", "height", "type", "cost"]
# Most points a lattice's bounding box may hold (a 2048 x 2048 box, or the
# demo scene at about 5 cm).  A huge scene extent or a tiny spacing is
# refused before numpy is asked for the lattice.
MAX_LATTICE_POINTS = 1 << 22


class EmptyGridError(ValueError):
    """No lattice point fell inside any containing geometry."""


class LatticeTooLargeError(ValueError):
    """The lattice would hold more than MAX_LATTICE_POINTS points."""


@dataclass(frozen=True)
class TargetGrid:
    """Discretized region of interest, the columns of targets.csv.

    points[k] is the k-th lattice point (row-major: y outer, x inner),
    weights[k] its priority weight, segment_of[k] the id of the first road
    segment in file order that contains it.
    """

    points: np.ndarray  # (N, 2) float64
    weights: np.ndarray  # (N,) float64
    segment_of: tuple[str, ...]

    def __len__(self) -> int:
        return len(self.points)

    @property
    def spacing(self) -> float:
        """The lattice step, read from the points: the smallest positive gap
        between lattice lines; 1.0 when no axis has two lines."""
        gaps = [float(np.diff(vals).min()) for vals in map(np.unique, self.points.T)
                if len(vals) > 1]
        return min(gaps, default=1.0)


@dataclass(frozen=True)
class Candidate:
    """One feasible placement: position on the mount lattice, a mounting
    height drawn from the containing zone, and a sensor type."""

    x: float
    y: float
    height: float
    sensor: SensorSpec
    cost: float


def lattice_coords(lo: float, hi: float, spacing: float) -> np.ndarray:
    """Uniform coordinates strictly between lo and hi: lo + k*spacing, k >= 1.

    When (hi - lo) is an exact multiple of spacing the endpoint is excluded.
    """
    if spacing <= 0:
        raise ValueError("spacing must be > 0")
    n = int(np.floor((hi - lo) / spacing - EDGE_EPS))
    return lo + spacing * np.arange(1, n + 1, dtype=np.float64)


def _claim(bounds, spacing: float, what: tuple[str, str],
           regions) -> tuple[np.ndarray, np.ndarray]:
    """(points (N, 2), owner (N,)): the lattice points strictly inside bounds,
    row-major (y outer, x inner), that a region holds, each with the index of
    the first region that does.  regions yields (vertices, pad, contains):
    contains(xs, ys) is asked only about unclaimed points within pad of the
    vertices' bounding box.  what (lattice, region) names them in the errors:
    LatticeTooLargeError, before allocating more than MAX_LATTICE_POINTS points
    (an empty axis counts as one line, an extent overflowing to inf is refused
    too), and EmptyGridError when no region holds a point."""
    if spacing <= 0:
        raise ValueError("spacing must be > 0")
    xmin, ymin, xmax, ymax = bounds
    nx, ny = (max(np.floor((hi - lo) / spacing - EDGE_EPS), 0.0)
              for lo, hi in ((xmin, xmax), (ymin, ymax)))
    points = max(nx, 1.0) * max(ny, 1.0)
    if not points <= MAX_LATTICE_POINTS:
        raise LatticeTooLargeError(
            f"{what[0]} lattice at spacing {spacing} would hold {points:.4g} points, "
            f"more than {MAX_LATTICE_POINTS}"
        )
    gx, gy = np.meshgrid(lattice_coords(xmin, xmax, spacing),
                         lattice_coords(ymin, ymax, spacing))
    xs, ys = gx.ravel(), gy.ravel()
    owner = np.full(xs.shape, -1, dtype=np.int64)
    for k, (vertices, pad, contains) in enumerate(regions):
        x0, y0, x1, y1 = polygon_bounds(vertices)
        near = np.flatnonzero((owner == -1) & (xs >= x0 - pad) & (xs <= x1 + pad)
                              & (ys >= y0 - pad) & (ys <= y1 + pad))
        owner[near[contains(xs[near], ys[near])]] = k
    keep = np.flatnonzero(owner >= 0)
    if not len(keep):
        raise EmptyGridError(f"no lattice point at spacing {spacing} falls inside any {what[1]}")
    return np.column_stack([xs[keep], ys[keep]]), owner[keep]


def discretize_roi(scene: Scene, spacing: float) -> TargetGrid:
    """Lattice points strictly inside the ROI bounding box that fall inside
    at least one road segment, in row-major (y outer, x inner) order.  A
    segment holds no point more than EDGE_EPS outside its bounding box.

    Raises EmptyGridError when the spacing is too coarse to produce any
    point inside a segment, LatticeTooLargeError when it is so fine that
    the lattice would exceed MAX_LATTICE_POINTS.
    """
    xmin, ymin, xmax, ymax = scene_bounds(scene)
    if spacing >= xmax - xmin or spacing >= ymax - ymin:
        raise EmptyGridError(
            f"spacing {spacing} is not smaller than the ROI extent "
            f"({xmax - xmin} x {ymax - ymin})"
        )
    segments = scene.road_segments
    points, owner = _claim(
        (xmin, ymin, xmax, ymax), spacing, ("target", "road segment"),
        ((seg.polygon, EDGE_EPS, partial(points_in_polygon, vertices=seg.polygon))
         for seg in segments),
    )
    weights = np.array([seg.priority_weight for seg in segments], dtype=np.float64)[owner]
    return TargetGrid(points=points, weights=weights,
                      segment_of=tuple(segments[k].id for k in owner))


def _zone_contains(zone: MountZone, xs: np.ndarray, ys: np.ndarray,
                   spacing: float) -> np.ndarray:
    if zone.kind == "polygon":
        return points_in_polygon(xs, ys, zone.geometry)
    # Polyline zones are corridors half a lattice spacing to each side.
    inside = np.zeros(xs.shape, dtype=bool)
    for a, b in zip(zone.geometry[:-1], zone.geometry[1:]):
        inside |= points_segment_distance(xs, ys, a, b) <= spacing / 2.0 + EDGE_EPS
    return inside


def enumerate_candidates(
    scene: Scene, spacing: float, types: Sequence[SensorSpec]
) -> tuple[Candidate, ...]:
    """Cartesian product of mount-lattice positions, allowed heights, and
    sensor types.

    Positions are lattice points strictly inside the bounding box of the
    union of mount-zone geometries; each position belongs to the first zone
    in file order that contains it.  Ordering is position (row-major), then
    the zone's height list, then the given types: catalog entries in catalog
    order, any other spec after them in the given order, duplicates once.
    """
    if not types:
        raise ValueError("types must be non-empty")
    rank = {spec: k for k, spec in enumerate(scene.catalog)}
    specs = sorted(dict.fromkeys(types), key=lambda spec: rank.get(spec, len(rank)))
    zones = scene.mount_zones
    # Past its test's reach, a zone's box grows by 2 * EDGE_EPS, more than the
    # sqrt(2) * EDGE_EPS that points_in_polygon accepts past a corner.
    points, owner = _claim(
        polygon_bounds(p for zone in zones for p in zone.geometry), spacing,
        ("mount", "mount zone"),
        ((zone.geometry,
          (0.0 if zone.kind == "polygon" else spacing / 2.0 + EDGE_EPS) + 2 * EDGE_EPS,
          partial(_zone_contains, zone, spacing=spacing)) for zone in zones),
    )
    return tuple(
        Candidate(x=x, y=y, height=float(h), sensor=spec,
                  cost=spec.unit_cost + zones[k].install_surcharge)
        for (x, y), k in zip(points.tolist(), owner.tolist())
        for h in zones[k].allowed_heights
        for spec in specs
    )


def _write_csv(path: str | Path, header: Sequence[str], rows) -> None:
    """A CSV artifact: the header line, then one line per row."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def write_targets_csv(grid: TargetGrid, path: str | Path) -> None:
    _write_csv(path, TARGETS_CSV_HEADER, zip(range(len(grid)), *grid.points.T.tolist(),
                                             grid.weights.tolist(), grid.segment_of))


def _read_csv(path: str | Path, header: list[str], parse_row) -> list:
    """The rows of a CSV artifact, each converted by parse_row.  Text that is
    not UTF-8, a wrong header, a malformed row or an idx other than the row's
    0-based position raises ValueError naming the file and line."""
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        rows = []
        try:
            found = next(reader, None)
            if found != header:
                raise ValueError(f"bad header {found!r}, expected {header!r}")
            for row in reader:
                if len(row) != len(header):
                    raise ValueError(f"expected {len(header)} fields, got {len(row)}")
                if row[0] != str(len(rows)):
                    raise ValueError(f"idx {row[0]!r}, expected {len(rows)}")
                rows.append(parse_row(row))
        except UnicodeDecodeError as exc:  # decoding runs ahead of line_num
            raise ValueError(f"{path}: {exc}") from None
        except ValueError as exc:
            raise ValueError(f"{path}:{reader.line_num}: {exc}") from None
    return rows


def _numbers(row: list[str], cols: Sequence[int], what: str) -> list[float]:
    """The fields of row at cols as finite floats, the last of them, a
    weight or a cost (`what`), >= 0; ValueError otherwise."""
    values = [float(row[k]) for k in cols]
    if not all(map(math.isfinite, values)):
        raise ValueError("non-finite number")
    if values[-1] < 0:
        raise ValueError(f"{what} {values[-1]} must be >= 0")
    return values


def read_targets_csv(path: str | Path) -> TargetGrid:
    rows = _read_csv(path, TARGETS_CSV_HEADER, lambda r: (*_numbers(r, (1, 2, 3), "weight"), r[4]))
    xs, ys, ws, segs = zip(*rows) if rows else ((), (), (), ())
    return TargetGrid(
        points=np.column_stack([xs, ys]) if xs else np.zeros((0, 2)),
        weights=np.asarray(ws, dtype=np.float64),
        segment_of=tuple(segs),
    )


def candidate_record(idx: int, c: Candidate) -> tuple:
    """The candidate at row idx as (idx, x, y, height, type, cost), the
    fields of CANDIDATES_CSV_HEADER."""
    return idx, c.x, c.y, c.height, c.sensor.type_id, c.cost


def write_candidates_csv(cands: Sequence[Candidate], path: str | Path) -> None:
    _write_csv(path, CANDIDATES_CSV_HEADER, map(candidate_record, range(len(cands)), cands))


def read_candidates_csv(
    path: str | Path, catalog: Sequence[SensorSpec] | None = None
) -> tuple[Candidate, ...]:
    """Candidates as written by write_candidates_csv, each row's type id
    resolved against `catalog` (default: the bundled demo scene's, like the
    CLI's default --scene).  Costs are kept as stored, because the zone
    surcharge they include is not in the file."""
    if catalog is None:
        catalog = load_scene(demo_scene_path()).catalog
    by_id = {s.type_id: s for s in catalog}

    def parse_row(r: list[str]) -> Candidate:
        if r[4] not in by_id:
            raise ValueError(f"candidate type {r[4]!r} not in the scene catalog")
        x, y, height, cost = _numbers(r, (1, 2, 3, 5), "cost")
        return Candidate(x, y, height, by_id[r[4]], cost)

    return tuple(_read_csv(path, CANDIDATES_CSV_HEADER, parse_row))
