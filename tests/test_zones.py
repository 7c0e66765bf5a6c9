import math
import random
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from geo_route_sim.geometry import Position
from geo_route_sim.zones import (
    ExpectedZone,
    RequestZone,
    _zone_bounds,
    expected_zone,
    in_request_zone,
    request_zone,
)

coords = st.floats(-500.0, 500.0, allow_nan=False, allow_infinity=False)
positions = st.builds(Position, coords, coords)
radii = st.floats(0.0, 200.0, allow_nan=False)
any_finite = st.one_of(st.floats(allow_nan=False, allow_infinity=False),
                       st.sampled_from([-sys.float_info.max, sys.float_info.max]))


class TestExpectedZone:
    def test_stationary_destination(self):
        ez = expected_zone(Position(100, 100), 0.0, 0.0, 10.0)
        assert ez.center == Position(100, 100)
        assert ez.radius == 0.0

    def test_radius_is_speed_times_elapsed(self):
        ez = expected_zone(Position(100, 100), 5.0, 0.0, 10.0)
        assert ez.radius == 50.0

    def test_zero_elapsed_time(self):
        assert expected_zone(Position(0, 0), 20.0, 3.0, 3.0).radius == 0.0

    def test_time_going_backwards_raises(self):
        with pytest.raises(ValueError, match="t1"):
            expected_zone(Position(0, 0), 5.0, 10.0, 3.0)

    def test_negative_speed_raises(self):
        for speed in (-1.0, math.nan):
            with pytest.raises(ValueError, match="dest_speed"):
                expected_zone(Position(0, 0), speed, 0.0, 1.0)

    def test_negative_radius_rejected(self):
        for radius in (-0.5, math.nan):
            with pytest.raises(ValueError, match="radius"):
                ExpectedZone(Position(0, 0), radius)

    @pytest.mark.parametrize("name", ["t0", "t1"])
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_non_finite_times_raise(self, name, value):
        times = {"t0": 0.0, "t1": 1.0, name: value}
        with pytest.raises(ValueError, match=name):
            expected_zone(Position(0, 0), 1.0, **times)


class TestRequestZone:
    @pytest.mark.parametrize("corners", [((1, 0), (0, 1)), ((0, 1), (1, 0))])
    def test_inverted_corners_rejected(self, corners):
        low, high = (Position(*c) for c in corners)
        with pytest.raises(ValueError, match="inverted"):
            RequestZone(low, high)

    def test_source_outside(self):
        rz = request_zone(Position(0, 0), ExpectedZone(Position(100, 100), 50.0))
        assert rz.min_corner == Position(0, 0)
        assert rz.max_corner == Position(150, 150)

    def test_source_inside_expected_zone(self):
        rz = request_zone(Position(100, 100), ExpectedZone(Position(100, 100), 50.0))
        assert rz.min_corner == Position(50, 50)
        assert rz.max_corner == Position(150, 150)

    def test_per_axis_min_max(self):
        # min/max per axis over {source, center +- radius}
        rz = request_zone(Position(200, 60), ExpectedZone(Position(100, 100), 30.0))
        assert rz.min_corner == Position(70, 60)
        assert rz.max_corner == Position(200, 130)

    @given(positions, positions, radii)
    def test_contains_source_and_disk_extremes(self, source, center, radius):
        rz = request_zone(source, ExpectedZone(center, radius))
        assert in_request_zone(source.x, source.y, rz)
        for p in _disk_extremes(center, radius):
            assert in_request_zone(p.x, p.y, rz)

    def test_contains_sampled_disk_points(self):
        rng = random.Random(20240811)
        for _ in range(40):
            source = Position(rng.uniform(-500, 500), rng.uniform(-500, 500))
            center = Position(rng.uniform(-500, 500), rng.uniform(-500, 500))
            radius = rng.uniform(0, 200)
            rz = request_zone(source, ExpectedZone(center, radius))
            for _ in range(1000):
                angle = rng.uniform(0, 2 * math.pi)
                rho = radius * math.sqrt(rng.uniform(0, 1))
                p = Position(center.x + rho * math.cos(angle), center.y + rho * math.sin(angle))
                assert in_request_zone(p.x, p.y, rz)

    @given(positions, positions, radii)
    @settings(max_examples=200)
    def test_minimal_rectangle(self, source, center, radius):
        # Contracting any side by any positive amount must expel the source
        # or a disk extreme point.
        rz = request_zone(source, ExpectedZone(center, radius))
        witnesses = [source, *_disk_extremes(center, radius)]
        eps = 1e-6 * (1.0 + abs(rz.max_corner.x - rz.min_corner.x) + abs(rz.max_corner.y - rz.min_corner.y))
        for lo_dx, lo_dy, hi_dx, hi_dy in (
            (eps, 0, 0, 0),
            (0, eps, 0, 0),
            (0, 0, -eps, 0),
            (0, 0, 0, -eps),
        ):
            shrunk_min = (rz.min_corner.x + lo_dx, rz.min_corner.y + lo_dy)
            shrunk_max = (rz.max_corner.x + hi_dx, rz.max_corner.y + hi_dy)
            keeps_all = all(
                shrunk_min[0] <= w.x <= shrunk_max[0] and shrunk_min[1] <= w.y <= shrunk_max[1]
                for w in witnesses
            )
            assert not keeps_all

    @given(positions, positions, radii, st.floats(0.0, 100.0, allow_nan=False))
    def test_monotone_in_radius(self, source, center, radius, extra):
        small = request_zone(source, ExpectedZone(center, radius))
        large = request_zone(source, ExpectedZone(center, radius + extra))
        assert large.min_corner.x <= small.min_corner.x
        assert large.min_corner.y <= small.min_corner.y
        assert large.max_corner.x >= small.max_corner.x
        assert large.max_corner.y >= small.max_corner.y


class TestMembership:
    def test_interior(self):
        rz = request_zone(Position(0, 0), ExpectedZone(Position(100, 100), 50.0))
        assert in_request_zone(75, 75, rz)

    def test_boundary_inclusive(self):
        rz = request_zone(Position(0, 0), ExpectedZone(Position(100, 100), 50.0))
        assert in_request_zone(150, 150, rz)
        assert in_request_zone(0, 0, rz)

    def test_outside_on_x(self):
        rz = request_zone(Position(0, 0), ExpectedZone(Position(100, 100), 50.0))
        assert not in_request_zone(151, 75, rz)

    @given(
        st.tuples(any_finite, any_finite),
        st.tuples(any_finite, any_finite),
        st.one_of(st.floats(0.0, allow_infinity=False), st.just(math.inf)),
        st.lists(st.tuples(any_finite, any_finite), min_size=1, max_size=20),
    )
    def test_clamped_zone_keeps_every_finite_points_membership(
        self, source, center, radius, points
    ):
        # Bounds that overflow, or come from an infinite radius, are clamped to the
        # largest finite float; the D-LAR hop masks with the unclamped bounds.
        x, y = np.array(points).T
        ez = ExpectedZone(Position(*center), radius)
        x0, y0, x1, y1 = _zone_bounds(*source, ez)
        want = (x0 <= x) & (x <= x1) & (y0 <= y) & (y <= y1)
        assert np.array_equal(in_request_zone(x, y, request_zone(Position(*source), ez)), want)


def _disk_extremes(center: Position, radius: float) -> list[Position]:
    return [
        Position(center.x - radius, center.y),
        Position(center.x + radius, center.y),
        Position(center.x, center.y - radius),
        Position(center.x, center.y + radius),
    ]
