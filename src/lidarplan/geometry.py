"""2-D polygon and bounding-box primitives shared by the scene and grid builders.

All polygons are plain sequences of (x, y) vertex pairs in meters, implicitly
closed (last vertex connects back to the first).  Boundary points count as
inside, with a 1e-9 m tolerance, so lattice tests are reproducible.
"""

from __future__ import annotations

import math
from typing import Iterable, Sequence

import numpy as np

# Tolerance for on-boundary ties (meters).
EDGE_EPS = 1e-9

Point = tuple[float, float]


def polygon_area(vertices: Sequence[Point]) -> float:
    """Unsigned shoelace area of a closed polygon."""
    area = 0.0
    n = len(vertices)
    for i in range(n):
        x0, y0 = vertices[i]
        x1, y1 = vertices[(i + 1) % n]
        area += x0 * y1 - x1 * y0
    return abs(area) / 2.0


def polygon_bounds(vertices: Iterable[Point]) -> tuple[float, float, float, float]:
    """(xmin, ymin, xmax, ymax) over a non-empty vertex list."""
    xs, ys = zip(*vertices)
    return min(xs), min(ys), max(xs), max(ys)


def points_in_polygon(xs: np.ndarray, ys: np.ndarray, vertices: Sequence[Point]) -> np.ndarray:
    """Closed point-in-polygon test (boundary counts as inside) for flat
    coordinate arrays or scalars.

    Even-odd ray crossing with an explicit on-edge test, so points within
    EDGE_EPS of any edge are deterministically inside.
    """
    xs = np.asarray(xs, dtype=float)
    ys = np.asarray(ys, dtype=float)
    n = len(vertices)
    inside = np.zeros(xs.shape, dtype=bool)
    on_edge = np.zeros(xs.shape, dtype=bool)
    for i in range(n):
        ax, ay = vertices[i]
        bx, by = vertices[(i + 1) % n]
        abx, aby = bx - ax, by - ay
        apx, apy = xs - ax, ys - ay
        seg_len = math.hypot(abx, aby)
        if seg_len == 0.0:
            on_edge |= np.hypot(apx, apy) <= EDGE_EPS
        else:
            cross = abx * apy - aby * apx
            dot = apx * abx + apy * aby
            on_edge |= (
                (np.abs(cross) / seg_len <= EDGE_EPS)
                & (dot >= -EDGE_EPS * seg_len)
                & (dot <= seg_len * seg_len + EDGE_EPS * seg_len)
            )
        crosses = (ay > ys) != (by > ys)
        with np.errstate(divide="ignore", invalid="ignore"):
            x_cross = ax + (ys - ay) / (by - ay) * (bx - ax)
        inside ^= crosses & (xs < x_cross)
    return inside | on_edge


def _segments_properly_intersect(
    a: Point, b: Point, c: Point, d: Point
) -> bool:
    """True if open segments a-b and c-d cross at an interior point."""

    def orient(p: Point, q: Point, r: Point) -> float:
        return (q[0] - p[0]) * (r[1] - p[1]) - (q[1] - p[1]) * (r[0] - p[0])

    o1, o2 = orient(a, b, c), orient(a, b, d)
    o3, o4 = orient(c, d, a), orient(c, d, b)
    return (o1 * o2 < 0) and (o3 * o4 < 0)


def polygon_is_simple(vertices: Sequence[Point]) -> bool:
    """True if no two non-adjacent edges cross (O(n^2); polygons are small)."""
    n = len(vertices)
    if n < 3:
        return False
    edges = [(vertices[i], vertices[(i + 1) % n]) for i in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            if j == i + 1 or (i == 0 and j == n - 1):
                continue  # adjacent edges share a vertex by construction
            if _segments_properly_intersect(*edges[i], *edges[j]):
                return False
    return True


def polygon_is_convex(vertices: Sequence[Point]) -> bool:
    """True if every turn has the same sign (collinear runs allowed)."""
    n = len(vertices)
    if n < 3:
        return False
    sign = 0
    for i in range(n):
        ax, ay = vertices[i]
        bx, by = vertices[(i + 1) % n]
        cx, cy = vertices[(i + 2) % n]
        cross = (bx - ax) * (cy - ay) - (by - ay) * (cx - ax)
        if abs(cross) <= EDGE_EPS:
            continue
        s = 1 if cross > 0 else -1
        if sign == 0:
            sign = s
        elif s != sign:
            return False
    return True


def points_segment_distance(xs: np.ndarray, ys: np.ndarray, a: Point, b: Point) -> np.ndarray:
    """Euclidean distance from each point to the closed segment a-b."""
    xs = np.asarray(xs, dtype=float)
    ys = np.asarray(ys, dtype=float)
    ax, ay = a
    bx, by = b
    abx, aby = bx - ax, by - ay
    denom = abx * abx + aby * aby
    if denom == 0.0:
        return np.hypot(xs - ax, ys - ay)
    t = np.clip(((xs - ax) * abx + (ys - ay) * aby) / denom, 0.0, 1.0)
    return np.hypot(xs - (ax + t * abx), ys - (ay + t * aby))
