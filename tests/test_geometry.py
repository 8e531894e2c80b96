import numpy as np

from helpers import convex_polygon, point_in_polygon_ref
from lidarplan.geometry import (
    point_in_polygon,
    point_segment_distance,
    points_in_polygon,
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


def test_point_in_polygon_interior_exterior():
    assert point_in_polygon((0.5, 0.5), UNIT_SQUARE)
    assert not point_in_polygon((1.5, 0.5), UNIT_SQUARE)
    assert point_in_polygon((1.0, 3.0), L_SHAPE)
    assert not point_in_polygon((3.0, 3.0), L_SHAPE)  # the notch


def test_point_in_polygon_boundary_is_inside():
    # closed polygon: edges and vertices count as inside
    assert point_in_polygon((0.5, 0.0), UNIT_SQUARE)
    assert point_in_polygon((1.0, 1.0), UNIT_SQUARE)
    assert point_in_polygon((0.0, 0.3), UNIT_SQUARE)
    assert point_in_polygon((2.0, 3.0), L_SHAPE)


def test_point_in_polygon_matches_winding_oracle(rng):
    for _ in range(40):
        poly = convex_polygon(rng, rng.uniform(-5, 5), rng.uniform(-5, 5), 1.0, 4.0)
        pts = rng.uniform(-10, 10, size=(50, 2))
        for px, py in pts:
            assert point_in_polygon((px, py), poly) == point_in_polygon_ref(
                (px, py), poly
            )


def test_point_in_polygon_concave_matches_oracle(rng):
    pts = rng.uniform(-1, 5, size=(500, 2))
    for px, py in pts:
        assert point_in_polygon((px, py), L_SHAPE) == point_in_polygon_ref(
            (px, py), L_SHAPE
        )


def test_points_in_polygon_matches_scalar(rng):
    for poly in (UNIT_SQUARE, L_SHAPE, convex_polygon(rng, 0, 0, 1, 3)):
        xs = rng.uniform(-2, 5, 300)
        ys = rng.uniform(-2, 5, 300)
        vec = points_in_polygon(xs, ys, poly)
        scalar = np.array([point_in_polygon((x, y), poly) for x, y in zip(xs, ys)])
        assert np.array_equal(vec, scalar)


def test_polygon_is_simple():
    assert polygon_is_simple(UNIT_SQUARE)
    assert polygon_is_simple(L_SHAPE)
    assert not polygon_is_simple(BOWTIE)


def test_polygon_is_convex():
    assert polygon_is_convex(UNIT_SQUARE)
    assert polygon_is_convex(((0, 0), (4, 0), (2, 3)))
    assert not polygon_is_convex(L_SHAPE)


def test_point_segment_distance():
    assert point_segment_distance((0, 1), (0, 0), (2, 0)) == 1.0
    assert point_segment_distance((1, 0), (0, 0), (2, 0)) == 0.0
    # beyond the endpoint the nearest point is the endpoint itself
    assert point_segment_distance((3, 4), (0, 0), (0, 0)) == 5.0
    assert point_segment_distance((4, 0), (0, 0), (2, 0)) == 2.0

