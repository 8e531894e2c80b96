"""Spinning-LiDAR beam simulation and visibility matrix construction.

The scene is flat ground at a fixed elevation plus convex prisms (obstacle
footprints extruded upward).  Beams are cast analytically: the ground hit
comes from plane intersection, prism hits from slab clipping of the ray
against the footprint's edge half-planes and the z interval.  The nearest
hit within range becomes one point sample with a synthetic intensity of
1 - t/max_range.

A target counts as visible to a candidate when some sample of the simulated
cloud lies within planar distance delta of it; see eligible_samples for
which samples may vouch for a target.
"""

from __future__ import annotations

import struct
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from pathlib import Path
from typing import NamedTuple

import numpy as np
from scipy.spatial import cKDTree

from .discretization import Candidate, CandidateSet, TargetGrid
from .scene import Obstacle, Scene, SensorSpec

HIT_EPS = 1e-9  # surface-grazing tolerance, meters

VGRID_MAGIC = b"VGRD"
VGRID_HEADER = struct.Struct("<4sIId")  # magic, rows, cols, delta


class PointSample(NamedTuple):
    x: float
    y: float
    z: float
    intensity: float


@dataclass(frozen=True)
class PointCloud:
    """Simulated returns for one candidate; samples is an (N, 4) array of
    x, y, z, intensity rows in beam order."""

    sensor_index: int
    samples: np.ndarray

    def __len__(self) -> int:
        return len(self.samples)


def generate_beams(spec: SensorSpec) -> np.ndarray:
    """Unit direction vectors of one full revolution, channel-major.

    Channel elevations span [vertical_fov_min, vertical_fov_max] inclusive
    (a single channel sits at the midpoint).  Azimuths are the multiples of
    azimuth_step in [0, horizontal_fov), so a full 360-degree sweep never
    duplicates the 0/360 direction and the beam count is exactly
    channels * ceil(horizontal_fov / azimuth_step).
    """
    if spec.channels == 1:
        elevations = np.array([(spec.vertical_fov_min + spec.vertical_fov_max) / 2.0])
    else:
        elevations = np.linspace(spec.vertical_fov_min, spec.vertical_fov_max, spec.channels)
    n_az = int(np.ceil(spec.horizontal_fov / spec.azimuth_step - HIT_EPS))
    azimuths = np.arange(n_az, dtype=np.float64) * spec.azimuth_step

    el = np.deg2rad(elevations)[:, None]
    az = np.deg2rad(azimuths)[None, :]
    dx = np.cos(el) * np.cos(az)
    dy = np.cos(el) * np.sin(az)
    dz = np.sin(el) * np.ones_like(az)
    return np.stack([dx.ravel(), dy.ravel(), dz.ravel()], axis=1)


def _ccw_footprint(obstacle: Obstacle) -> np.ndarray:
    verts = np.asarray(obstacle.footprint, dtype=np.float64)
    x, y = verts[:, 0], verts[:, 1]
    signed2 = np.sum(x * np.roll(y, -1) - np.roll(x, -1) * y)
    return verts if signed2 >= 0 else verts[::-1]


def _clip_prism(
    origin: np.ndarray, dirs: np.ndarray, obstacle: Obstacle, ground_z: float
) -> tuple[np.ndarray, np.ndarray]:
    """Per-ray (hit?, t) for one extruded convex footprint via slab clipping.

    Rays starting inside the prism hit its boundary on the way out.
    """
    verts = _ccw_footprint(obstacle)
    n_rays = len(dirs)
    t_enter = np.zeros(n_rays)
    t_exit = np.full(n_rays, np.inf)
    ok = np.ones(n_rays, dtype=bool)

    # Half-planes: footprint edges (outward normal), then the z slab.
    constraints = []
    for a, b in zip(verts, np.roll(verts, -1, axis=0)):
        ex, ey = b[0] - a[0], b[1] - a[1]
        nx, ny = ey, -ex  # outward for counterclockwise winding
        constraints.append((nx, ny, 0.0, nx * a[0] + ny * a[1]))
    constraints.append((0.0, 0.0, 1.0, ground_z + obstacle.height))
    constraints.append((0.0, 0.0, -1.0, -ground_z))

    for nx, ny, nz, bound in constraints:
        slope = nx * dirs[:, 0] + ny * dirs[:, 1] + nz * dirs[:, 2]
        f0 = nx * origin[0] + ny * origin[1] + nz * origin[2] - bound
        with np.errstate(divide="ignore", invalid="ignore"):
            t_cross = -f0 / slope
        entering = slope < 0
        exiting = slope > 0
        t_enter = np.where(entering, np.maximum(t_enter, t_cross), t_enter)
        t_exit = np.where(exiting, np.minimum(t_exit, t_cross), t_exit)
        ok &= ~((slope == 0) & (f0 > 0))

    ok &= t_enter <= t_exit + HIT_EPS
    t_hit = np.where(t_enter > HIT_EPS, t_enter, t_exit)
    ok &= t_hit > HIT_EPS
    ok &= np.isfinite(t_hit)
    return ok, t_hit


def _cast_all(
    origin: np.ndarray, dirs: np.ndarray, scene: Scene, max_range: float
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Nearest hit per ray: (hit mask, positions (N,3), intensities).

    Ground hits get z stamped to the exact ground elevation so downstream
    consumers can classify them by equality.
    """
    n_rays = len(dirs)
    ground_z = scene.ground_elevation
    with np.errstate(divide="ignore", invalid="ignore"):
        t_ground = (ground_z - origin[2]) / dirs[:, 2]
    ground_ok = (dirs[:, 2] != 0) & (t_ground > HIT_EPS)
    t_best = np.where(ground_ok, t_ground, np.inf)
    on_ground = ground_ok.copy()

    for obstacle in scene.obstacles:
        ok, t_hit = _clip_prism(origin, dirs, obstacle, ground_z)
        better = ok & (t_hit < t_best)  # strict: earlier obstacle wins ties
        t_best = np.where(better, t_hit, t_best)
        on_ground &= ~better

    hit = np.isfinite(t_best) & (t_best <= max_range)
    t = np.where(hit, t_best, 0.0)
    pos = origin[None, :] + t[:, None] * dirs
    pos[on_ground & hit, 2] = ground_z
    intensity = np.where(hit, 1.0 - t / max_range, 0.0)
    return hit, pos, intensity


def cast_ray(
    origin: tuple[float, float, float],
    direction: tuple[float, float, float],
    scene: Scene,
    max_range: float,
) -> PointSample | None:
    """Nearest intersection of one unit-direction ray, or None on a miss."""
    o = np.asarray(origin, dtype=np.float64)
    d = np.asarray(direction, dtype=np.float64)[None, :]
    hit, pos, intensity = _cast_all(o, d, scene, max_range)
    if not hit[0]:
        return None
    return PointSample(pos[0, 0], pos[0, 1], pos[0, 2], float(intensity[0]))


def simulate_sensor(candidate: Candidate, scene: Scene, sensor_index: int = -1) -> PointCloud:
    """Cast every beam of the candidate's sensor from its mount position."""
    origin = np.array(
        [candidate.x, candidate.y, scene.ground_elevation + candidate.height]
    )
    dirs = generate_beams(candidate.sensor)
    hit, pos, intensity = _cast_all(origin, dirs, scene, candidate.sensor.range_m)
    samples = np.column_stack([pos[hit], intensity[hit]])
    return PointCloud(sensor_index=sensor_index, samples=samples)


def eligible_samples(
    samples: np.ndarray, ground_z: float, intensity_min: float | None
) -> np.ndarray:
    """Samples allowed to vouch for target visibility.

    Only ground-surface returns count: a return off an obstacle face proves
    the obstacle blocks the view there, not that the road cell behind it is
    observed.  This also makes occlusion strictly destructive (inserting an
    obstacle can only clear visibility bits, never set them).  An optional
    intensity floor models minimum return strength.
    """
    keep = samples[:, 2] == ground_z
    if intensity_min is not None:
        keep &= samples[:, 3] >= intensity_min
    return samples[keep]


def visibility_row(
    cloud: PointCloud,
    targets: TargetGrid,
    delta: float,
    intensity_min: float | None,
    ground_z: float,
) -> np.ndarray:
    """Boolean row: target j is visible iff some eligible sample lies within
    planar distance < delta of it."""
    good = eligible_samples(cloud.samples, ground_z, intensity_min)
    if len(good) == 0 or len(targets) == 0:
        return np.zeros(len(targets), dtype=bool)
    tree = cKDTree(good[:, :2])
    dist, _ = tree.query(targets.points, k=1, workers=1)
    return dist < delta


@dataclass(frozen=True)
class VisibilityGrid:
    """Binary candidate-by-target visibility matrix."""

    bits: np.ndarray  # (rows, cols) bool
    delta: float

    @property
    def rows(self) -> int:
        return self.bits.shape[0]

    @property
    def cols(self) -> int:
        return self.bits.shape[1]

    def save(self, path: str | Path) -> None:
        packed = np.packbits(self.bits.astype(np.uint8), axis=1)
        with open(path, "wb") as fh:
            fh.write(VGRID_HEADER.pack(VGRID_MAGIC, self.rows, self.cols, self.delta))
            fh.write(packed.tobytes())

    @classmethod
    def load(cls, path: str | Path) -> "VisibilityGrid":
        raw = Path(path).read_bytes()
        if len(raw) < VGRID_HEADER.size:
            raise ValueError(f"{path}: truncated grid file")
        magic, rows, cols, delta = VGRID_HEADER.unpack_from(raw)
        if magic != VGRID_MAGIC:
            raise ValueError(
                f"{path}: bad grid file magic {magic!r}, expected {VGRID_MAGIC!r}"
            )
        row_bytes = (cols + 7) // 8
        body = np.frombuffer(raw, dtype=np.uint8, offset=VGRID_HEADER.size)
        if len(body) != rows * row_bytes:
            raise ValueError(
                f"{path}: grid body has {len(body)} bytes, expected {rows * row_bytes}"
            )
        bits = np.unpackbits(body.reshape(rows, row_bytes), axis=1)[:, :cols].astype(bool)
        return cls(bits=bits, delta=delta)


def build_visibility_grid(
    candidates: CandidateSet,
    targets: TargetGrid,
    scene: Scene,
    delta: float,
    intensity_min: float | None = None,
    jobs: int | None = None,
) -> VisibilityGrid:
    """Simulate every candidate and assemble the visibility matrix.

    Rows are filled by candidate index, so the result is identical for any
    worker count.
    """
    if delta <= 0:
        raise ValueError("delta must be > 0")
    n_s, n_t = len(candidates), len(targets)
    bits = np.zeros((n_s, n_t), dtype=bool)
    ground_z = scene.ground_elevation

    def fill(i: int) -> None:
        cloud = simulate_sensor(candidates[i], scene, sensor_index=i)
        bits[i, :] = visibility_row(cloud, targets, delta, intensity_min, ground_z)

    if jobs is not None and jobs > 1 and n_s > 1:
        with ThreadPoolExecutor(max_workers=jobs) as pool:
            list(pool.map(fill, range(n_s)))
    else:
        for i in range(n_s):
            fill(i)
    return VisibilityGrid(bits=bits, delta=delta)

