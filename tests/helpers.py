"""Independent reference implementations used as test oracles.

Everything here is written against the problem statement, not the library
internals: different algorithms, plain loops, no imports from the package's
geometry or search code paths beyond the public dataclasses they validate.
"""

from __future__ import annotations

import math

import numpy as np

from lidarplan import Budget, Cardinality, TargetGrid
from lidarplan import raycast
from lidarplan.raycast import HIT_EPS


# ---------------------------------------------------------------------------
# Point-in-polygon oracle: winding-number formulation with an explicit
# on-boundary distance check (the library uses even-odd crossing counts).

BOUNDARY_TOL = 1e-9


def _seg_dist(px, py, ax, ay, bx, by):
    vx, vy = bx - ax, by - ay
    L2 = vx * vx + vy * vy
    if L2 == 0:
        return math.hypot(px - ax, py - ay)
    t = max(0.0, min(1.0, ((px - ax) * vx + (py - ay) * vy) / L2))
    return math.hypot(px - (ax + t * vx), py - (ay + t * vy))


def point_in_polygon_ref(point, vertices) -> bool:
    px, py = point
    n = len(vertices)
    for k in range(n):
        ax, ay = vertices[k]
        bx, by = vertices[(k + 1) % n]
        if _seg_dist(px, py, ax, ay, bx, by) <= BOUNDARY_TOL:
            return True  # closed polygons: boundary counts as inside
    winding = 0
    for k in range(n):
        ax, ay = vertices[k]
        bx, by = vertices[(k + 1) % n]
        if ay <= py:
            if by > py and (bx - ax) * (py - ay) - (by - ay) * (px - ax) > 0:
                winding += 1
        else:
            if by <= py and (bx - ax) * (py - ay) - (by - ay) * (px - ax) < 0:
                winding -= 1
    return winding != 0


# ---------------------------------------------------------------------------
# Exhaustive deployment oracle: enumerate every candidate subset by doubling.


def exhaustive_best(rows: np.ndarray, weights: np.ndarray, costs: np.ndarray,
                    constraint) -> float:
    """Optimal objective over all 2^n subsets (n small)."""
    rows = np.asarray(rows, dtype=bool)
    union = np.zeros((1, rows.shape[1]), dtype=bool)
    total_cost = np.zeros(1)
    size = np.zeros(1, dtype=np.int64)
    for i in range(rows.shape[0]):
        union = np.vstack([union, union | rows[i]])
        total_cost = np.concatenate([total_cost, total_cost + costs[i]])
        size = np.concatenate([size, size + 1])
    objectives = union @ np.asarray(weights, dtype=np.float64)
    if isinstance(constraint, Budget):
        feasible = total_cost <= constraint.limit + 1e-12
    else:
        feasible = size <= constraint.limit
    return float(objectives[feasible].max())


def reference_exact(problem):
    """The numpy branch and bound that solve_exact replaced, kept as its
    oracle: the same lexicographic depth-first search and union bound, with
    every value a float sum over a bool mask.  Returns (selected, objective,
    covered, total_cost) as solve_exact's Solution states them."""
    n = problem.grid.rows
    rows, w = problem.grid.bits, problem.weights
    if isinstance(problem.constraint, Cardinality):
        costs, cap = np.ones(n), float(problem.constraint.limit)
    else:
        costs, cap = problem.costs, float(problem.constraint.limit)
    best, best_sel = 0.0, ()

    def dfs(start: int, sel: list[int], covered: np.ndarray, spent: float) -> None:
        nonlocal best, best_sel
        for i in range(start, n):
            afford = costs[i:] <= cap - spent + 1e-12
            if float(w[covered | rows[i:][afford].any(axis=0)].sum()) <= best:
                return
            if afford[0]:
                sel.append(i)
                with_i = covered | rows[i]
                value = float(w[with_i].sum())
                if value > best:
                    best, best_sel = value, tuple(sel)
                dfs(i + 1, sel, with_i, spent + float(costs[i]))
                sel.pop()

    dfs(0, [], np.zeros(problem.grid.cols, dtype=bool), 0.0)
    mask = np.zeros(problem.grid.cols, dtype=bool)
    for i in best_sel:
        mask |= rows[i]
    total_cost = float(problem.costs[list(best_sel)].sum()) if best_sel else 0.0
    return best_sel, float(w[mask].sum()), frozenset(np.flatnonzero(mask).tolist()), total_cost


def random_instance(rng: np.random.Generator, max_rows: int = 15, max_cols: int = 60):
    """One random deployment instance plus both constraint forms."""
    n = int(rng.integers(1, max_rows + 1))
    m = int(rng.integers(1, max_cols + 1))
    density = rng.uniform(0.1, 0.6)
    rows = rng.random((n, m)) < density
    if rng.random() < 0.3:
        weights = rng.integers(0, 10, m).astype(np.float64)
    else:
        weights = rng.uniform(0.0, 10.0, m)
    costs = rng.uniform(1.0, 20.0, n)
    budget = Budget(float(rng.uniform(0.0, costs.sum() * 0.7)))
    count = Cardinality(int(rng.integers(0, n + 1)))
    return rows, weights, costs, budget, count


# ---------------------------------------------------------------------------
# Scalar reference ray caster: per-face plane intersections (the library
# clips against half-plane slabs instead).


def _ray_vertical_quad(o, d, a, b, zlo, zhi):
    """Hit t of the vertical rectangle swept by edge a-b, or None."""
    ex, ey = b[0] - a[0], b[1] - a[1]
    nx, ny = ey, -ex
    denom = nx * d[0] + ny * d[1]
    if abs(denom) < 1e-15:
        return None
    t = (nx * (a[0] - o[0]) + ny * (a[1] - o[1])) / denom
    if t <= 1e-9:
        return None
    px, py, pz = o[0] + t * d[0], o[1] + t * d[1], o[2] + t * d[2]
    L2 = ex * ex + ey * ey
    s = ((px - a[0]) * ex + (py - a[1]) * ey) / L2
    if -1e-9 <= s <= 1 + 1e-9 and zlo - 1e-9 <= pz <= zhi + 1e-9:
        return t
    return None


def _ray_horizontal_face(o, d, z_face, vertices):
    if abs(d[2]) < 1e-15:
        return None
    t = (z_face - o[2]) / d[2]
    if t <= 1e-9:
        return None
    p = (o[0] + t * d[0], o[1] + t * d[1])
    if point_in_polygon_ref(p, vertices):
        return t
    return None


def cast_ray_ref(origin, direction, scene, max_range):
    """Nearest hit as (t, x, y, z, on_ground) or None.

    Collects every face crossing and takes the minimum, which matches the
    from-inside semantics of the library (first boundary on the way out).
    """
    o = tuple(float(v) for v in origin)
    d = tuple(float(v) for v in direction)
    g = scene.ground_elevation
    best = None
    on_ground = False
    if d[2] < 0:
        t = (g - o[2]) / d[2]
        if t > 1e-9:
            best, on_ground = t, True
    for obstacle in scene.obstacles:
        verts = list(obstacle.footprint)
        zhi = g + obstacle.height
        hits = []
        for k in range(len(verts)):
            t = _ray_vertical_quad(o, d, verts[k], verts[(k + 1) % len(verts)], g, zhi)
            if t is not None:
                hits.append(t)
        for z_face in (g, zhi):
            t = _ray_horizontal_face(o, d, z_face, verts)
            if t is not None:
                hits.append(t)
        if hits and (best is None or min(hits) < best):
            best, on_ground = min(hits), False
    if best is None or best > max_range:
        return None
    x, y, z = o[0] + best * d[0], o[1] + best * d[1], o[2] + best * d[2]
    if on_ground:
        z = g
    return best, x, y, z, on_ground


# ---------------------------------------------------------------------------
# Per-prism reference cast: the loop the library's single-pass cast replaced,
# kept as its oracle.  Prisms are clipped one at a time, in order, each
# against the rays whose path up to their nearest hit so far meets its box.


def reference_clip_prism(
    origin: np.ndarray, dirs: np.ndarray, planes
) -> tuple[np.ndarray, np.ndarray]:
    """Per-ray (hit?, t) for one extruded convex footprint via slab clipping.

    Every step is elementwise, so clipping a subset of rays gives the same
    floats as clipping all of them.  Rays starting inside the prism hit its
    boundary on the way out.
    """
    n_rays = len(dirs)
    t_enter = np.zeros(n_rays)
    t_exit = np.full(n_rays, np.inf)
    ok = np.ones(n_rays, dtype=bool)

    with np.errstate(divide="ignore", invalid="ignore"):
        for nx, ny, nz, bound in planes:
            slope = nx * dirs[:, 0] + ny * dirs[:, 1] + nz * dirs[:, 2]
            f0 = nx * origin[0] + ny * origin[1] + nz * origin[2] - bound
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


def reference_cast_all(
    origin: np.ndarray, dirs: np.ndarray, prisms, max_range: float, t_best: np.ndarray
) -> np.ndarray:
    """Nearest hit distance per ray once the prisms are clipped in order,
    starting from t_best (the ground, or an earlier cast of the same rays).

    A prism is clipped only against the rays whose planar path from the
    origin to min(t_best, max_range) meets its box.  For any other ray the
    clip would miss, or hit no nearer than t_best, or hit beyond max_range,
    where the ray ends without a return either way.  The strict < lets an
    earlier obstacle win ties.
    """
    t_best = t_best.copy()
    ox, oy = origin[0], origin[1]
    dx, dy = dirs[:, 0], dirs[:, 1]
    adx, ady = np.abs(dx), np.abs(dy)
    reach = np.minimum(t_best, max_range)
    end_x, end_y = ox + reach * dx, oy + reach * dy
    for prism in prisms:
        if prism.box is None:
            idx = np.arange(len(dirs))
        else:
            # Separating axes: the ray's normal, then x and y.  All rays
            # share the origin, so only their ends are tested on x and y.
            cx, cy, hx, hy = prism.box
            near = np.abs(dx * (cy - oy) - dy * (cx - ox)) <= hx * ady + hy * adx
            if ox < cx - hx:
                near &= end_x >= cx - hx
            elif ox > cx + hx:
                near &= end_x <= cx + hx
            if oy < cy - hy:
                near &= end_y >= cy - hy
            elif oy > cy + hy:
                near &= end_y <= cy + hy
            idx = np.flatnonzero(near)
            if len(idx) == 0:
                continue
        ok, t_hit = reference_clip_prism(origin, dirs[idx], prism.planes)
        better = ok & (t_hit < t_best[idx])
        idx, t_hit = idx[better], t_hit[better]
        t_best[idx] = t_hit
        reach = np.minimum(t_hit, max_range)
        end_x[idx] = ox + reach * dx[idx]
        end_y[idx] = oy + reach * dy[idx]
    return t_best


def reference_cloud(candidate, scene) -> np.ndarray:
    """simulate_sensor's cloud without the culled cast: every beam against
    every obstacle through reference_cast_all, then the nearest hits turned
    into (x, y, z, intensity) rows as the library does, ground hits stamped
    to the ground elevation, in beam order.  A fifth column marks the rows
    whose nearest hit is the ground (1.0) rather than an obstacle (0.0)."""
    gz, max_range = scene.ground_elevation, candidate.sensor.range_m
    origin = np.array([candidate.x, candidate.y, gz + candidate.height])
    dirs = raycast.generate_beams(candidate.sensor)
    with np.errstate(divide="ignore", invalid="ignore"):
        t_ground = (gz - origin[2]) / dirs[:, 2]
    t_ground = np.where((dirs[:, 2] != 0) & (t_ground > HIT_EPS), t_ground, np.inf)
    prisms = [raycast._prism(o, gz) for o in scene.obstacles]
    t_best = reference_cast_all(origin, dirs, prisms, max_range, t_ground)
    hit = np.isfinite(t_best) & (t_best <= max_range)
    t = t_best[hit]
    pos = origin + t[:, None] * dirs[hit]
    ground = t == t_ground[hit]
    pos[ground, 2] = gz
    return np.column_stack([pos, 1.0 - t / max_range, ground])


def reference_distances(index, xy):
    """The target index's pair lookup with np.hypot on every pair, which
    TargetIndex.within replaced, kept as its oracle: yield (target ids,
    distances) chunks over every (sample, target) pair in a sample's block,
    each once, chunked and ordered as within yields them."""
    key = index._keys(xy)
    first = index.start[key]
    count = index.start[key + 1] - first
    sample = np.flatnonzero(count)
    first, count = first[sample], count[sample]
    ends = np.cumsum(count)
    i = 0
    while i < len(sample):  # about PAIR_CHUNK pairs at a time, at least one sample
        done = ends[i] - count[i]
        j = max(i + 1, int(np.searchsorted(ends, done + raycast.PAIR_CHUNK, side="right")))
        c = count[i:j]
        # Each pair's place in the block lists: the first target of its
        # sample's block plus a running index that restarts per sample.
        pos = np.repeat(first[i:j] - np.cumsum(c) + c, c)
        pos += np.arange(len(pos))
        at = np.repeat(sample[i:j], c)
        yield index.ids[pos], np.hypot(xy[at, 0] - index.xs[pos], xy[at, 1] - index.ys[pos])
        i = j


def vouching(cloud, intensity_min=None) -> np.ndarray:
    """The rows of a cloud (x, y, z, intensity, ground) that may vouch for a
    target: those marked as ground hits, at or above the intensity floor."""
    keep = cloud[:, 4] == 1.0
    if intensity_min is not None:
        keep &= cloud[:, 3] >= intensity_min
    return cloud[keep]


def brute_force_visibility(clouds, targets_xy, delta, intensity_min=None) -> np.ndarray:
    """Quadratic loop over (sample, target) pairs; vouching samples only."""
    n_s, n_t = len(clouds), len(targets_xy)
    bits = np.zeros((n_s, n_t), dtype=bool)
    for i, cloud in enumerate(clouds):
        for sample in vouching(cloud, intensity_min):
            for j, (tx, ty) in enumerate(targets_xy):
                if math.hypot(sample[0] - tx, sample[1] - ty) < delta:
                    bits[i, j] = True
    return bits


def brute_force_density(clouds, targets_xy, delta, intensity_min=None) -> np.ndarray:
    """Vouching samples at distance <= delta (a closed radius) of each
    target, summed over the clouds."""
    counts = np.zeros(len(targets_xy), dtype=np.int64)
    for cloud in clouds:
        for sample in vouching(cloud, intensity_min):
            for j, (tx, ty) in enumerate(targets_xy):
                if math.hypot(sample[0] - tx, sample[1] - ty) <= delta:
                    counts[j] += 1
    return counts


def scattered_targets(rng: np.random.Generator, n, lo, hi, duplicates=0) -> TargetGrid:
    """n uniform random target points in the square [lo, hi)^2, not on any
    lattice, plus copies of `duplicates` of them; random weights."""
    points = rng.uniform(lo, hi, (n, 2))
    points = np.vstack([points, points[rng.integers(0, n, duplicates)]])
    return TargetGrid(
        points=points,
        weights=rng.uniform(0.5, 2.0, len(points)),
        segment_of=("r",) * len(points),
    )


def _hull(points):
    """Convex hull vertices counter-clockwise (Andrew's monotone chain);
    points on a hull edge are dropped."""
    pts = sorted((float(x), float(y)) for x, y in points)

    def turn(o, a, b):
        return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])

    lower, upper = [], []
    for p in pts:
        while len(lower) >= 2 and turn(lower[-2], lower[-1], p) <= 0:
            lower.pop()
        lower.append(p)
    for p in reversed(pts):
        while len(upper) >= 2 and turn(upper[-2], upper[-1], p) <= 0:
            upper.pop()
        upper.append(p)
    return lower[:-1] + upper[:-1]


def convex_polygon(rng: np.random.Generator, cx, cy, r_lo, r_hi, n_lo=3, n_hi=7):
    """Random convex polygon around (cx, cy): convex hull of ring points.

    Angle-sorted points on a radius band are only star-shaped, so the hull
    step is what makes the result genuinely convex.
    """
    while True:
        n = int(rng.integers(max(n_lo, 3), n_hi + 1)) + 2
        angles = np.sort(rng.uniform(0.0, 2.0 * math.pi, n))
        radii = rng.uniform(r_lo, r_hi, n)
        pts = np.column_stack(
            [cx + radii * np.cos(angles), cy + radii * np.sin(angles)]
        )
        hull = _hull(pts)
        if len(hull) >= 3:
            return tuple(hull)
