"""Spinning-LiDAR beam simulation and visibility matrix construction.

The scene is flat ground at a fixed elevation plus convex prisms (obstacle
footprints extruded upward).  Beams are cast analytically: the ground hit
comes from plane intersection, prism hits from slab clipping of the ray
against the footprint's edge half-planes and the z interval.  The nearest
hit within range becomes one point sample with a synthetic intensity of
1 - t/max_range.

A cast handles all its prisms at once, in a fixed number of numpy calls.
Its rays are kept sorted by azimuth, twice round (_Rays).  Each prism's
cull box (its footprint's bounding box, grown by a margin far above the
clipping tolerance) spans an azimuth window from the origin: one span of
that order, cut by one searchsorted (_windows), so the work grows with
the rays that can reach an obstacle, not with rays times obstacles.
On those (ray, prism) pairs an exact test keeps the rays whose planar path
crosses the box before the ray's starting hit (the ground, or an earlier
cast) or its max range, and one pass clips every kept pair; each ray takes
its nearest hit.  Every other ray would keep its result, so the output is
the same as clipping every ray against every prism.

A target counts as visible to a candidate when some sample lies within
planar distance delta of it.  Only a ray whose nearest hit is the ground
gives a sample, at its ground point: a return off an obstacle proves the
obstacle blocks the view there, not that the road behind it is observed,
and an obstacle added to a scene can only take samples away.  So the grid
and the evaluation proxies cast only the beams of a ground pattern
(_pattern: those that reach the ground within range, with each beam's
ground offset from the mount), and of those only the ones whose ground
point TargetIndex.near keeps (GroundReturns, all built by _ground_returns,
which makes one pattern per spec and mount z; each cast takes its own
windows).  A cast hands out its sample positions, and tells which of them
extra obstacles block; simulate_sensor gives the full cloud.

Sample-to-target pairs are found through a TargetIndex, which alone maps
points to buckets: a uniform bucket grid over the target points with cells
at least delta wide, so every target within delta of a sample lies in the
3x3 block of cells around the sample's own, stored as one list.  Each pair
is decided on dx*dx + dy*dy, and by np.hypot only within a band around
delta^2 that rounding cannot cross, so both tests match np.hypot:
visibility is the strict one (distance < delta), sample density counts the
closed one (<= delta).
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from pathlib import Path
from typing import NamedTuple, Sequence

import numpy as np

from .discretization import Candidate, TargetGrid
from .scene import Obstacle, Scene, SensorSpec

HIT_EPS = 1e-9  # surface-grazing tolerance, meters
CULL_MARGIN = 1e-6  # meters an obstacle's cull box reaches past its footprint, at least
WINDOW_SLACK_M = 1e-3  # meters a cull box is grown by before its azimuth window is taken
WINDOW_SLACK_RAD = 1e-9  # radians an azimuth window is widened by on each side

BUCKETS_PER_TARGET = 16  # a TargetIndex has at most this many cells per target (or one)
PAIR_CHUNK = 1 << 20  # sample-target pairs decided at once by TargetIndex.within

VGRID_MAGIC = b"VGRD"
VGRID_HEADER = struct.Struct("<4sIId")  # magic, rows, cols, delta


def generate_beams(spec: SensorSpec) -> np.ndarray:
    """Unit direction vectors of one full revolution, channel-major.

    Channel elevations span [vertical_fov_min, vertical_fov_max] inclusive
    (a single channel sits at the midpoint).  Azimuths are the multiples of
    azimuth_step in [0, horizontal_fov), so a full 360-degree sweep never
    duplicates the 0/360 direction and the beam count is exactly
    spec.beam_count.
    """
    if spec.channels == 1:
        elevations = np.array([(spec.vertical_fov_min + spec.vertical_fov_max) / 2.0])
    else:
        elevations = np.linspace(spec.vertical_fov_min, spec.vertical_fov_max, spec.channels)
    azimuths = np.arange(spec.azimuth_count, dtype=np.float64) * spec.azimuth_step

    el = np.deg2rad(elevations)[:, None]
    az = np.deg2rad(azimuths)[None, :]
    dx = np.cos(el) * np.cos(az)
    dy = np.cos(el) * np.sin(az)
    dz = np.sin(el) * np.ones_like(az)
    return np.stack([dx.ravel(), dy.ravel(), dz.ravel()], axis=1)


def _ccw_footprint(obstacle: Obstacle) -> np.ndarray:
    verts = np.asarray(obstacle.footprint, dtype=np.float64)
    x, y = verts[:, 0], verts[:, 1]
    x_next, y_next = np.concatenate((x[1:], x[:1])), np.concatenate((y[1:], y[:1]))
    signed2 = np.sum(x * y_next - x_next * y)
    return verts if signed2 >= 0 else verts[::-1]


class _Prism(NamedTuple):
    """One obstacle made ready for clipping.

    planes holds (nx, ny, nz, bound) half-planes: footprint edges (outward
    normal), then the z slab.  box is (cx, cy, hx, hy), the centre and half
    sizes of a rectangle holding every point the clip can accept, or None
    when no such rectangle is worth testing against.
    """

    planes: tuple[tuple[float, float, float, float], ...]
    box: tuple[float, float, float, float] | None


def _prism(obstacle: Obstacle, ground_z: float) -> _Prism:
    verts = _ccw_footprint(obstacle).tolist()
    edges = [(bx - ax, by - ay) for (ax, ay), (bx, by) in zip(verts, verts[1:] + verts[:1])]
    planes = [(ey, -ex, 0.0, ey * ax - ex * ay) for (ax, ay), (ex, ey) in zip(verts, edges)]
    planes.append((0.0, 0.0, 1.0, ground_z + obstacle.height))
    planes.append((0.0, 0.0, -1.0, -ground_z))

    # The clip accepts points up to HIT_EPS outside each half-plane, which
    # is up to HIT_EPS / sin(theta / 2) off the footprint near a corner of
    # interior angle theta; CULL_MARGIN scaled the same way covers that and
    # any rounding in the cull test.  Repeated vertices make no corner.
    units = [(ex / n, ey / n) for ex, ey in edges if (n := (ex * ex + ey * ey) ** 0.5) > 0]
    sin_half = min(
        (max(0.0, 0.5 * (1.0 + ux * vx + uy * vy)) ** 0.5
         for (ux, uy), (vx, vy) in zip(units, units[1:] + units[:1])),
        default=0.0,
    )
    if sin_half <= CULL_MARGIN:  # a needle-sharp corner, or no area at all
        return _Prism(planes=tuple(planes), box=None)  # clip every ray
    margin = CULL_MARGIN / sin_half
    xs, ys = [x for x, _ in verts], [y for _, y in verts]
    return _Prism(planes=tuple(planes), box=(
        (min(xs) + max(xs)) / 2.0, (min(ys) + max(ys)) / 2.0,
        (max(xs) - min(xs)) / 2.0 + margin, (max(ys) - min(ys)) / 2.0 + margin,
    ))


class _Rays(NamedTuple):
    """Ray directions with their azimuth order, twice round: phi[k] is the
    k-th smallest azimuth np.arctan2(dy, dx), of ray order[k], and then each
    comes again plus 2 pi.  Every cast of the same directions shares one.  A
    _pattern adds t_ground and, as rows (2, N), the ground offsets
    t_ground * (dx, dy)."""

    dirs: np.ndarray
    order: np.ndarray
    phi: np.ndarray
    t_ground: np.ndarray | None = None
    offsets: np.ndarray | None = None


def _rays(dirs: np.ndarray) -> _Rays:
    phi = np.arctan2(dirs[:, 1], dirs[:, 0])
    order = np.tile(np.argsort(phi, kind="stable"), 2)
    return _Rays(dirs=dirs, order=order, phi=phi[order] + np.repeat([0.0, 2.0 * np.pi], len(phi)))


class _PrismSet(NamedTuple):
    """Prisms made ready for casting together.

    boxes (P, 4) holds each cull box (cx, cy, hx, hy), zeros where boxless
    is set (the prism's box is None: it is clipped against every ray).
    planes (4, K, P) holds the nx, ny, nz and bound of each prism's K
    half-planes, padded to the longest list with the no-op plane
    (0, 0, 0, 1), which no ray crosses.
    """

    boxes: np.ndarray
    boxless: np.ndarray
    planes: np.ndarray


def _prisms(obstacles: Sequence[Obstacle], ground_z: float) -> _PrismSet:
    prisms = [_prism(obstacle, ground_z) for obstacle in obstacles]
    k = max((len(p.planes) for p in prisms), default=0)
    pad = ((0.0, 0.0, 0.0, 1.0),)
    return _PrismSet(
        boxes=np.array([p.box or (0.0,) * 4 for p in prisms]).reshape(-1, 4),
        boxless=np.array([p.box is None for p in prisms], dtype=bool),
        planes=np.ascontiguousarray(np.array(
            [p.planes + pad * (k - len(p.planes)) for p in prisms]
        ).reshape(len(prisms), k, 4).T),
    )


def _ground_t(origin: np.ndarray, dirs: np.ndarray, ground_z: float) -> np.ndarray:
    """Distance along each ray to the ground plane, inf where it never gets there."""
    with np.errstate(divide="ignore", invalid="ignore"):
        t_ground = (ground_z - origin[2]) / dirs[:, 2]
    return np.where((dirs[:, 2] != 0) & (t_ground > HIT_EPS), t_ground, np.inf)


def _windows(origin: np.ndarray, phi: np.ndarray, prisms: _PrismSet,
             max_range: float) -> tuple[np.ndarray, np.ndarray]:
    """(start, stop), each (P,) for a mount at origin (3,): per prism, one
    span of positions in phi (twice round, _Rays) holding every ray that can
    reach its cull box, once: those whose azimuth lies in the interval the
    box, grown by WINDOW_SLACK_M, spans from the origin, widened by
    WINDOW_SLACK_RAD each side.  A prism without a box, or whose grown box
    holds the origin, gets [0, n), all n rays; one whose grown box is farther
    than max_range + WINDOW_SLACK_M gets an empty span."""
    ox, oy = origin[:2]
    cx, cy, hx, hy = prisms.boxes.T
    hx, hy = hx + WINDOW_SLACK_M, hy + WINDOW_SLACK_M
    vx, vy = cx - ox, cy - oy
    every = prisms.boxless | ((np.abs(vx) <= hx) & (np.abs(vy) <= hy))
    gap = np.hypot(np.maximum(np.abs(vx) - hx, 0.0), np.maximum(np.abs(vy) - hy, 0.0))
    far = ~prisms.boxless & (gap > max_range + WINDOW_SLACK_M)
    # A box clear of the origin lies in an open half-plane through it, so
    # each corner is less than pi from the centre's direction.
    centre = np.arctan2(vy, vx)
    vx, vy = vx[:, None], vy[:, None]
    ux = vx + hx[:, None] * np.array([-1.0, 1.0, 1.0, -1.0])
    uy = vy + hy[:, None] * np.array([-1.0, -1.0, 1.0, 1.0])
    turn = np.arctan2(vx * uy - vy * ux, vx * ux + vy * uy)
    lo = centre + turn.min(axis=-1) - WINDOW_SLACK_RAD
    hi = centre + turn.max(axis=-1) + WINDOW_SLACK_RAD
    # The interval is narrower than a turn and starts above -2 pi - slack.
    # Read a turn up when it starts below -pi, it is one span of phi, also
    # past pi, and holds a ray along -x whether its azimuth reads pi or -pi.
    up = np.where(lo < -np.pi, 2.0 * np.pi, 0.0)
    start = np.where(every, 0, np.searchsorted(phi, lo + up))
    stop = np.where(every, len(phi) // 2, np.searchsorted(phi, hi + up))
    return start, np.where(far, start, stop)


def _runs(first: np.ndarray, count: np.ndarray) -> np.ndarray:
    """The positions first[i], ..., first[i] + count[i] - 1 of every run, in turn."""
    pos = np.repeat(first - np.cumsum(count) + count, count)
    pos += np.arange(len(pos))
    return pos


def _pairs(start: np.ndarray, stop: np.ndarray, order: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(ray, prism) pairs of the rays order[start:stop] in each prism's span, by prism."""
    return order[_runs(start, stop - start)], np.repeat(np.arange(len(start)), stop - start)


def _cast_all(origin: np.ndarray, rays: _Rays, prisms: _PrismSet, max_range: float,
              t_start: np.ndarray) -> np.ndarray:
    """Nearest hit distance per ray once the prisms are clipped against the
    rays in rays.order, starting from t_start (the ground, or an earlier
    cast of the same rays).

    A prism is clipped only against the rays of its window (_windows) whose
    planar path from the origin to min(t_start, max_range) meets its box.
    For any other ray the clip would miss, or hit no nearer than t_start,
    or hit beyond max_range, where the ray ends without a return either
    way.  All kept (ray, prism) pairs are clipped in one pass with the
    elementwise steps of a per-prism clip, and each ray takes the least
    hit, so the result equals clipping every ray against every prism.
    """
    t_best = t_start.copy()
    ox, oy, oz = origin
    ray, prism = _pairs(*_windows(origin, rays.phi, prisms, max_range), rays.order)
    dx, dy, dz = (d[ray] for d in rays.dirs.T)
    reach = np.minimum(t_start[ray], max_range)

    # Separating axes: the ray's normal, then x and y.  All rays share the
    # origin, so only their ends are tested on x and y.  (np.take leaves
    # each gathered row contiguous; indexing boxes[prism] would not.)
    cx, cy, hx, hy = np.take(prisms.boxes.T, prism, axis=1)
    near = np.abs(dx * (cy - oy) - dy * (cx - ox)) <= hx * np.abs(dy) + hy * np.abs(dx)
    end_x, end_y = ox + reach * dx, oy + reach * dy
    near &= np.where(ox < cx - hx, end_x >= cx - hx, (ox <= cx + hx) | (end_x <= cx + hx))
    near &= np.where(oy < cy - hy, end_y >= cy - hy, (oy <= cy + hy) | (end_y <= cy + hy))
    near |= prisms.boxless[prism]
    ray, prism, dx, dy, dz = (a.compress(near) for a in (ray, prism, dx, dy, dz))

    # Slab clipping of every pair against its prism's planes, one plane
    # slot at a time.
    nx, ny, nz, bound = prisms.planes
    coef = np.stack((nx, ny, nz, nx * ox + ny * oy + nz * oz - bound), axis=1)  # (K, 4, P)
    t_enter = np.zeros(len(ray))
    t_exit = np.full(len(ray), np.inf)
    ok = np.ones(len(ray), dtype=bool)
    with np.errstate(divide="ignore", invalid="ignore"):
        for nx, ny, nz, f0 in (c.take(prism, axis=1) for c in coef):
            slope = nx * dx
            slope += ny * dy
            slope += nz * dz
            t_cross = -f0 / slope
            np.maximum(t_enter, t_cross, out=t_enter, where=slope < 0)
            np.minimum(t_exit, t_cross, out=t_exit, where=slope > 0)
            ok &= ~((slope == 0) & (f0 > 0))
    ok &= t_enter <= t_exit + HIT_EPS
    t_hit = np.where(t_enter > HIT_EPS, t_enter, t_exit)
    ok &= t_hit > HIT_EPS
    ok &= np.isfinite(t_hit)
    np.minimum.at(t_best, ray.compress(ok), t_hit.compress(ok))
    return t_best


def _returns(
    origin: np.ndarray, dirs: np.ndarray, t_best: np.ndarray, t_ground: np.ndarray,
    ground_z: float, max_range: float,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(hit mask, positions (N,3), intensities) of the nearest hits.

    A hit at t_ground is a ground hit (obstacles only ever lower t_best);
    its z is stamped to the exact ground elevation so downstream consumers
    can classify it by equality.
    """
    hit = np.isfinite(t_best) & (t_best <= max_range)
    t = np.where(hit, t_best, 0.0)
    pos = origin[None, :] + t[:, None] * dirs
    pos[hit & (t_best == t_ground), 2] = ground_z
    intensity = np.where(hit, 1.0 - t / max_range, 0.0)
    return hit, pos, intensity


def _cast_scene(
    origin: np.ndarray, dirs: np.ndarray, scene: Scene, max_range: float
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    ground_z = scene.ground_elevation
    t_ground = _ground_t(origin, dirs, ground_z)
    prisms = _prisms(scene.obstacles, ground_z)
    t_best = _cast_all(origin, _rays(dirs), prisms, max_range, t_ground)
    return _returns(origin, dirs, t_best, t_ground, ground_z, max_range)


def _mount(candidate: Candidate, scene: Scene) -> np.ndarray:
    return np.array([candidate.x, candidate.y, scene.ground_elevation + candidate.height])


def simulate_sensor(candidate: Candidate, scene: Scene) -> np.ndarray:
    """Cast every beam of the candidate's sensor from its mount position:
    the returns as an (N, 4) array of x, y, z, intensity rows in beam order."""
    dirs = generate_beams(candidate.sensor)
    hit, pos, intensity = _cast_scene(
        _mount(candidate, scene), dirs, scene, candidate.sensor.range_m
    )
    return np.column_stack([pos[hit], intensity[hit]])


def _pattern(spec: SensorSpec, mount_z: float, ground_z: float) -> _Rays:
    """The beams of one spec at one mount z that can give a sample, in beam
    order: those that reach the ground within range."""
    dirs = generate_beams(spec)
    t_ground = _ground_t(np.array([0.0, 0.0, mount_z]), dirs, ground_z)
    keep = t_ground <= spec.range_m
    dirs, t_ground = dirs[keep], t_ground[keep]
    return _rays(dirs)._replace(t_ground=t_ground, offsets=t_ground * dirs[:, :2].T)


class GroundReturns:
    """The samples of one mounted sensor, cast once against a scene: ray
    (pattern numbering) and xy (N, 2), in ray order.  A sample is the
    ground point of a ray whose nearest hit is the ground (t_static ==
    t_ground), at or above the intensity floor.  Of its _pattern, only the
    beams whose ground point TargetIndex.near keeps are cast; any other
    ground point has no target within delta.  Only the kept rays' order and
    phi are copied, and the cast takes its windows on them; other per-ray
    arrays keep the pattern's numbering.  Built by _ground_returns."""

    def __init__(self, candidate: Candidate, scene: Scene, pattern: _Rays, prisms: _PrismSet,
                 index: "TargetIndex", intensity_min: float | None):
        """pattern: _pattern of the spec and mount z; prisms: the scene's
        obstacles (_prisms); intensity_min: the floor on 1 - t/max_range."""
        self.origin = _mount(candidate, scene)
        self.max_range = candidate.sensor.range_m
        ground = (self.origin[:2, None] + pattern.offsets).T
        near = index.near(ground)
        keep = near[pattern.order]  # twice round, as order and phi
        self.rays = pattern._replace(order=pattern.order[keep], phi=pattern.phi[keep])
        self.t_static = _cast_all(self.origin, self.rays, prisms, self.max_range, pattern.t_ground)
        sample = near & (self.t_static == pattern.t_ground)
        if intensity_min is not None:
            sample &= 1.0 - pattern.t_ground / self.max_range >= intensity_min
        self.ray = np.flatnonzero(sample)
        self.xy = ground[self.ray]

    def blocked(self, extra: _PrismSet) -> np.ndarray:
        """Which samples of xy the `extra` prisms (_prisms) take away once
        they join the static scene: those whose rays they stop nearer."""
        t = _cast_all(self.origin, self.rays, extra, self.max_range, self.t_static)
        return t[self.ray] < self.t_static[self.ray]


def _ground_returns(candidates: Sequence[Candidate], rows: Sequence[int], scene: Scene,
                    index: "TargetIndex", intensity_min: float | None):
    """Yield (row, GroundReturns) for the candidates at `rows` in the static
    scene, grouped by spec and mount z in order of first use, one pattern
    alive at a time; the scene's prisms are made once."""
    ground_z = scene.ground_elevation
    prisms = _prisms(scene.obstacles, ground_z)
    groups: dict[tuple[SensorSpec, float], list[int]] = {}
    for i in rows:
        groups.setdefault((candidates[i].sensor, ground_z + candidates[i].height), []).append(i)
    for (spec, z), members in groups.items():
        pattern = _pattern(spec, z, ground_z)
        for i in members:
            yield i, GroundReturns(candidates[i], scene, pattern, prisms, index, intensity_min)


def eligible_samples(
    samples: np.ndarray, ground_z: float, intensity_min: float | None
) -> np.ndarray:
    """Samples (rows x, y, z, intensity, ...) of a full cloud
    (simulate_sensor) whose z is the ground elevation, at or above an
    optional intensity floor.

    This reads a ground return from the z that _returns stamps, so it
    differs from GroundReturns, which takes a ray's hit kind, only where
    rounding puts an obstacle hit at exactly the ground elevation.  No
    pipeline code calls it; it stays because the benchmark tracer wraps it
    by name.
    """
    keep = samples[:, 2] == ground_z
    if intensity_min is not None:
        keep &= samples[:, 3] >= intensity_min
    return samples[keep]


class TargetIndex:
    """Target points bucketed on a uniform grid, for finding the targets
    within `delta` of many samples.

    The cell side starts a hair above delta, so every target within delta
    of a sample lies in the 3x3 block of cells around the sample's cell,
    and doubles while there would be more than BUCKETS_PER_TARGET cells per
    target, so a wide extent with a tiny delta still takes little memory.
    Each cell's block is stored as one list, so a sample looks up one list,
    its own cell's (within); near tells which points' blocks hold a target,
    and a cast keeps only the rays whose ground points near keeps, which
    within then looks up in those same buckets.
    Any point set works: a lattice, targets read back from CSV, scattered or
    duplicate points, or none at all.
    """

    def __init__(self, points: np.ndarray, delta: float):
        if not delta > 0:
            raise ValueError("delta must be > 0")
        self.delta = delta
        points = np.asarray(points, dtype=np.float64).reshape(-1, 2)
        self.size = len(points)  # targets
        self.lo = points.min(axis=0) if len(points) else np.zeros(2)
        extent = points.max(axis=0) - self.lo if len(points) else np.zeros(2)
        # The slack keeps rounding in the cell arithmetic from putting a
        # pair within delta more than one cell apart.
        self.cell = delta * (1.0 + 1e-6)
        while True:
            self.nx, self.ny = (int(np.floor(e / self.cell)) + 1 for e in extent)
            if self.nx * self.ny <= max(1, BUCKETS_PER_TARGET * len(points)):
                break
            self.cell *= 2.0
        # Buckets are numbered over the grid padded by two empty cells on
        # each side.  A target is listed in the 3x3 block of each cell around
        # its own: bucket b's block holds the targets ids[start[b]:start[b+1]].
        self.width = self.nx + 4
        offsets = (np.arange(-1, 2)[:, None] * self.width + np.arange(-1, 2)).ravel()
        block = (self._keys(points)[:, None] + offsets).ravel()
        buckets = self.width * (self.ny + 4)
        self.start = np.concatenate(([0], np.cumsum(np.bincount(block, minlength=buckets))))
        self.ids = np.repeat(np.arange(len(points)), 9)[np.argsort(block, kind="stable")]
        self.xs, self.ys = points[self.ids, 0], points[self.ids, 1]
        self.occupied = self.start[1:] > self.start[:-1]  # buckets whose block holds a target
        # dx*dx + dy*dy decides a pair outside this band around delta^2, which rounding
        # cannot cross; np.hypot inside it, and everywhere if delta^2 may not be normal.
        d2 = delta * delta
        self.band = ((d2 * (1 - 2.0**-40), d2 * (1 + 2.0**-40)) if 2.0**-400 < delta < 2.0**400
                     else (-np.inf, np.inf))

    def _keys(self, xy: np.ndarray) -> np.ndarray:
        """Padded bucket of each point's cell; for a point two or more cells
        off the grid (or NaN), a padding bucket whose block is empty."""
        cx = np.fmin(np.fmax(np.floor((xy[:, 0] - self.lo[0]) / self.cell), -2.0), self.nx + 1)
        cy = np.fmin(np.fmax(np.floor((xy[:, 1] - self.lo[1]) / self.cell), -2.0), self.ny + 1)
        return ((cy + 2) * self.width + (cx + 2)).astype(np.intp)

    def near(self, xy: np.ndarray) -> np.ndarray:
        """Whether each point's bucket has a target in its 3x3 block, which
        holds every target within delta of the point."""
        return self.occupied[self._keys(xy)]

    def within(self, xy: np.ndarray):
        """Yield (ids, closed, strict) chunks over every (sample, target)
        pair in a sample's block, so every pair within delta, each once: the
        target ids, and whether np.hypot(dx, dy) <= delta and < delta (read
        off dx*dx + dy*dy outside the band)."""
        key = self._keys(xy)
        first = self.start.take(key)
        count = self.start.take(key + 1) - first
        sample = np.flatnonzero(count)
        first, count = first.take(sample), count.take(sample)
        ends = np.cumsum(count)
        i = 0
        while i < len(sample):  # about PAIR_CHUNK pairs at a time, at least one sample
            j = max(i + 1, int(np.searchsorted(ends, ends[i] - count[i] + PAIR_CHUNK, "right")))
            c = count[i:j]
            pos = _runs(first[i:j], c)  # the pairs' places in the block lists
            dx, dy = (np.repeat(v.take(sample[i:j]), c) - u.take(pos)
                      for v, u in ((xy[:, 0], self.xs), (xy[:, 1], self.ys)))
            s = dx * dx + dy * dy
            closed, strict = s <= self.band[1], s < self.band[0]
            band = np.flatnonzero(closed ^ strict)
            dist = np.hypot(dx[band], dy[band])
            closed[band], strict[band] = dist <= self.delta, dist < self.delta
            yield self.ids.take(pos), closed, strict
            i = j


def visibility_row(xy: np.ndarray, index: TargetIndex) -> np.ndarray:
    """Boolean row over the indexed targets: target j is visible iff some
    sample of xy (GroundReturns.xy) lies at planar distance
    np.hypot(dx, dy) < index.delta from it (a strict radius)."""
    row = np.zeros(index.size, dtype=bool)
    for ids, _, strict in index.within(xy):
        row[ids.compress(strict)] = True
    return row


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
        packed = np.packbits(self.bits, axis=1)
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
        if not 0 < delta < np.inf:  # NaN fails this too
            raise ValueError(f"{path}: grid delta must be finite and > 0, got {delta}")
        row_bytes = (cols + 7) // 8
        body = np.frombuffer(raw, dtype=np.uint8, offset=VGRID_HEADER.size)
        if len(body) != rows * row_bytes:
            raise ValueError(
                f"{path}: grid body has {len(body)} bytes, expected {rows * row_bytes}"
            )
        bits = np.unpackbits(body.reshape(rows, row_bytes), axis=1, count=cols).view(bool)
        return cls(bits=bits, delta=delta)


def build_visibility_grid(
    candidates: Sequence[Candidate],
    targets: TargetGrid,
    scene: Scene,
    delta: float,
    intensity_min: float | None = None,
) -> VisibilityGrid:
    """Simulate every candidate and assemble the visibility matrix, one row
    per candidate in one thread (the CLI's --jobs is kept for compatibility
    and has no effect).  TargetIndex rejects a delta that is not > 0."""
    bits = np.zeros((len(candidates), len(targets)), dtype=bool)
    index = TargetIndex(targets.points, delta)
    for i, returns in _ground_returns(candidates, range(len(candidates)), scene, index,
                                      intensity_min):
        bits[i, :] = visibility_row(returns.xy, index)
    return VisibilityGrid(bits=bits, delta=delta)
