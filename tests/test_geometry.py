import numpy as np

from helpers import _seg_dist, convex_polygon, point_in_polygon_ref
from lidarplan.geometry import (
    points_in_polygon,
    points_segment_distance,
    polygon_area,
    polygon_bounds,
    polygon_is_convex,
    polygon_is_simple,
)

UNIT_SQUARE = ((0.0, 0.0), (1.0, 0.0), (1.0, 1.0), (0.0, 1.0))
L_SHAPE = ((0, 0), (4, 0), (4, 2), (2, 2), (2, 4), (0, 4))
BOWTIE = ((0, 0), (2, 2), (2, 0), (0, 2))


def test_polygon_area_examples():
    assert polygon_area(UNIT_SQUARE) == 1.0
    assert polygon_area(((0, 0), (3, 0), (0, 4))) == 6.0
    assert polygon_area(L_SHAPE) == 12.0


def test_polygon_area_orientation_independent():
    assert polygon_area(UNIT_SQUARE)
    assert polygon_area(tuple(reversed(UNIT_SQUARE))) == polygon_area(UNIT_SQUARE)


def test_polygon_bounds():
    assert polygon_bounds(L_SHAPE) == (0, 0, 4, 4)
    assert polygon_bounds(((-2, 5), (3, -1), (0, 0))) == (-2, -1, 3, 5)


def _inside(points, poly):
    xs, ys = np.array(points, dtype=float).T
    return points_in_polygon(xs, ys, poly).tolist()


def test_point_in_polygon_interior_exterior():
    assert _inside([(0.5, 0.5), (1.5, 0.5)], UNIT_SQUARE) == [True, False]
    # (3, 3) is in the notch
    assert _inside([(1.0, 3.0), (3.0, 3.0)], L_SHAPE) == [True, False]


def test_point_in_polygon_boundary_is_inside():
    # closed polygon: edges and vertices count as inside
    assert _inside([(0.5, 0.0), (1.0, 1.0), (0.0, 0.3)], UNIT_SQUARE) == [True] * 3
    assert _inside([(2.0, 3.0)], L_SHAPE) == [True]
    # just past the EDGE_EPS tolerance is outside
    assert _inside([(0.5, -2e-9), (1.0 + 2e-9, 1.0)], UNIT_SQUARE) == [False, False]


def test_point_in_polygon_matches_winding_oracle(rng):
    for _ in range(40):
        poly = convex_polygon(rng, rng.uniform(-5, 5), rng.uniform(-5, 5), 1.0, 4.0)
        pts = rng.uniform(-10, 10, size=(50, 2))
        # vertices and edge midpoints exercise the boundary rule
        pts = np.vstack([pts, poly, (np.array(poly) + np.roll(poly, -1, axis=0)) / 2])
        want = [point_in_polygon_ref((px, py), poly) for px, py in pts]
        assert points_in_polygon(pts[:, 0], pts[:, 1], poly).tolist() == want


def test_point_in_polygon_concave_matches_oracle(rng):
    pts = np.vstack([rng.uniform(-1, 5, size=(500, 2)),
                     rng.integers(-1, 6, size=(100, 2)) / 2.0])  # lattice hits edges
    want = [point_in_polygon_ref((px, py), L_SHAPE) for px, py in pts]
    assert points_in_polygon(pts[:, 0], pts[:, 1], L_SHAPE).tolist() == want


def test_points_in_polygon_matches_scalar(rng):
    # one point passed as two floats gets the same answer as inside an array
    for poly in (UNIT_SQUARE, L_SHAPE, convex_polygon(rng, 0, 0, 1, 3)):
        xs = rng.uniform(-2, 5, 300)
        ys = rng.uniform(-2, 5, 300)
        vec = points_in_polygon(xs, ys, poly)
        scalar = np.array([bool(points_in_polygon(x, y, poly)) for x, y in zip(xs, ys)])
        assert np.array_equal(vec, scalar)


def test_polygon_is_simple():
    assert polygon_is_simple(UNIT_SQUARE)
    assert polygon_is_simple(L_SHAPE)
    assert not polygon_is_simple(BOWTIE)


def test_polygon_is_convex():
    assert polygon_is_convex(UNIT_SQUARE)
    assert polygon_is_convex(((0, 0), (4, 0), (2, 3)))
    assert not polygon_is_convex(L_SHAPE)


def test_point_segment_distance(rng):
    def dist(points, a, b):
        xs, ys = np.array(points, dtype=float).T
        return points_segment_distance(xs, ys, a, b).tolist()

    assert dist([(0, 1), (1, 0), (4, 0)], (0, 0), (2, 0)) == [1.0, 0.0, 2.0]
    # a degenerate segment is its single point
    assert dist([(3, 4)], (0, 0), (0, 0)) == [5.0]
    for _ in range(40):
        a, b = rng.uniform(-5, 5, 2), rng.uniform(-5, 5, 2)
        if rng.random() < 0.2:
            b = a.copy()
        pts = rng.uniform(-10, 10, size=(50, 2))
        got = points_segment_distance(pts[:, 0], pts[:, 1], tuple(a), tuple(b))
        want = [_seg_dist(px, py, *a, *b) for px, py in pts]
        assert np.allclose(got, want, rtol=1e-12, atol=1e-12)
