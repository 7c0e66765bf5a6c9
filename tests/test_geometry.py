import math

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from geo_route_sim.geometry import (
    Position,
    deviation_angle,
    distance,
    wrap_angle,
)
from oracles import bearing

coords = st.floats(-1000.0, 1000.0, allow_nan=False, allow_infinity=False)
positions = st.builds(Position, coords, coords)


def separated(a: Position, b: Position, min_gap: float = 1e-2) -> bool:
    return distance(a, b) > min_gap


class TestDistance:
    def test_three_four_five(self):
        assert distance(Position(0, 0), Position(3, 4)) == 5.0

    def test_identity(self):
        assert distance(Position(7, -2), Position(7, -2)) == 0.0

    def test_hand_evaluated(self):
        # sqrt((4.5-1.5)^2 + (6.5-2.5)^2) = sqrt(9 + 16) = 5
        assert distance(Position(1.5, 2.5), Position(4.5, 6.5)) == pytest.approx(5.0, rel=1e-12)

    @given(positions, positions)
    def test_symmetry(self, a, b):
        assert distance(a, b) == distance(b, a)

    @given(positions, positions, positions)
    def test_triangle_inequality(self, a, b, c):
        lhs = distance(a, c)
        rhs = distance(a, b) + distance(b, c)
        assert lhs <= rhs + 1e-9 * (rhs + 1.0)

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            Position(float("nan"), 0.0)
        with pytest.raises(ValueError):
            Position(0.0, float("inf"))


class TestBearing:
    def test_plus_x_axis(self):
        assert bearing(Position(0, 0), Position(1, 0)) == 0.0

    def test_plus_y_axis(self):
        assert bearing(Position(0, 0), Position(0, 1)) == pytest.approx(math.pi / 2)

    def test_third_quadrant(self):
        # Quadrant-aware arctangent: (-1,-1) lies at -135 degrees.
        assert bearing(Position(0, 0), Position(-1, -1)) == pytest.approx(-3 * math.pi / 4)

    def test_minus_x_axis_maps_to_plus_pi(self):
        assert bearing(Position(0, 0), Position(-1, 0)) == math.pi
        assert bearing(Position(0.0, 0.0), Position(-1.0, -0.0)) == math.pi

    def test_coincident_raises(self):
        with pytest.raises(ValueError):
            bearing(Position(2, 3), Position(2, 3))

    @given(positions, positions)
    def test_range(self, a, b):
        assume(a != b)
        angle = bearing(a, b)
        assert -math.pi < angle <= math.pi


class TestDeviationAngle:
    def test_forty_five_degrees(self):
        got = deviation_angle(Position(0, 0), Position(5, 5), Position(10, 0))
        assert got == pytest.approx(math.pi / 4, abs=1e-12)

    def test_collinear_same_side(self):
        assert deviation_angle(Position(0, 0), Position(3, 0), Position(10, 0)) == 0.0

    def test_opposite_ray(self):
        got = deviation_angle(Position(0, 0), Position(-4, 0), Position(10, 0))
        assert got == pytest.approx(math.pi, abs=1e-12)

    def test_degenerate_raises(self):
        with pytest.raises(ValueError):
            deviation_angle(Position(0, 0), Position(0, 0), Position(1, 1))
        with pytest.raises(ValueError):
            deviation_angle(Position(0, 0), Position(1, 1), Position(0, 0))

    @given(positions, positions, positions)
    def test_symmetric_in_rays(self, s, c, d):
        assume(c != s and d != s)
        assert deviation_angle(s, c, d) == deviation_angle(s, d, c)

    @given(positions, positions, positions)
    def test_range(self, s, c, d):
        assume(c != s and d != s)
        assert 0.0 <= deviation_angle(s, c, d) <= math.pi

    @given(
        positions,
        positions,
        positions,
        st.floats(0.0, 2 * math.pi),
        st.floats(0.1, 10.0),
    )
    @settings(max_examples=200)
    def test_invariant_under_rotation_and_scaling(self, s, c, d, theta, scale):
        assume(separated(s, c) and separated(s, d))

        def transform(p: Position) -> Position:
            dx, dy = p.x - s.x, p.y - s.y
            cos_t, sin_t = math.cos(theta), math.sin(theta)
            return Position(
                s.x + scale * (dx * cos_t - dy * sin_t),
                s.y + scale * (dx * sin_t + dy * cos_t),
            )

        original = deviation_angle(s, c, d)
        moved = deviation_angle(s, transform(c), transform(d))
        assert moved == pytest.approx(original, abs=1e-9)

    @given(positions, positions, positions)
    def test_consistent_with_bearings(self, s, c, d):
        assume(separated(s, c) and separated(s, d))
        diff = abs(wrap_angle(bearing(s, c) - bearing(s, d)))
        assert deviation_angle(s, c, d) == pytest.approx(diff, abs=1e-9)


class TestWrapAngle:
    @pytest.mark.parametrize(
        "raw,expected",
        [
            (0.0, 0.0),
            (math.pi, math.pi),
            (-math.pi, math.pi),
            (3 * math.pi / 2, -math.pi / 2),
            (-3 * math.pi / 2, math.pi / 2),
            (5 * math.pi, math.pi),
        ],
    )
    def test_known_values(self, raw, expected):
        assert wrap_angle(raw) == pytest.approx(expected, abs=1e-12)

    @given(st.floats(-100.0, 100.0, allow_nan=False))
    @example(math.nextafter(math.pi, 4.0))
    def test_range(self, raw):
        wrapped = wrap_angle(raw)
        assert -math.pi < wrapped <= math.pi

    def test_array_equals_scalar_loop_bit_for_bit(self):
        # Snapshots wrap whole heading columns at once; the bits must match
        # wrapping each heading on its own, once and twice.
        rng = np.random.default_rng(5)
        edges = [k * math.pi + d for k in range(-8, 9) for d in (0.0, -0.0, 1e-16, -1e-16, 5e-324)]
        raw = np.concatenate([rng.uniform(-math.pi, math.pi, 50_000), rng.uniform(-100, 100, 50_000), edges])
        once = np.array([wrap_angle(v) for v in raw.tolist()])
        twice = np.array([wrap_angle(v) for v in once.tolist()])
        assert np.array_equal(wrap_angle(raw).view(np.int64), once.view(np.int64))
        assert np.array_equal(wrap_angle(wrap_angle(raw)).view(np.int64), twice.view(np.int64))
