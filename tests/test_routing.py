import math
import random

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import oracles
from geo_route_sim import routing
from geo_route_sim.geometry import Position, deviation_angle, distance, wrap_angle
from geo_route_sim.netsim import SimConfig, generate_nodes, step_mobility
from geo_route_sim.routing import (
    DEFAULT_TTL,
    HALF_PI,
    PROTOCOLS,
    NetworkSnapshot,
    Outcome,
    dir_next_hop,
    dlar_next_hop,
    lar_route_discovery,
    neighbors,
    route,
)
from geo_route_sim.zones import ExpectedZone, expected_zone, in_request_zone, request_zone
from oracles import make_snapshot, position


class TestNeighbors:
    def test_single_node(self):
        snap = make_snapshot([(0, 0)], 100)
        assert neighbors(0, snap) == []

    def test_boundary_inclusive(self):
        snap = make_snapshot([(0, 0), (100, 0)], 100)
        assert neighbors(0, snap) == [1]
        assert neighbors(1, snap) == [0]

    def test_unknown_id(self):
        # A vehicle id is its row, so -1 must not wrap to the last one.
        snap = make_snapshot([(0, 0)], 100)
        for v_id in (99, -1, len(snap), 1.5):
            with pytest.raises(KeyError):
                neighbors(v_id, snap)

    def test_matches_pairwise_filter_on_random_field(self):
        rng = random.Random(50)
        snap = oracles.random_snapshot(rng, n=50, tx=100.0)
        for vid in range(len(snap)):
            got = set(neighbors(vid, snap))
            assert got == oracles.neighbor_ids(snap, vid)

    def test_sorted_by_id(self):
        rng = random.Random(51)
        snap = oracles.random_snapshot(rng, n=30, tx=400.0)
        ids = neighbors(7, snap)
        assert ids == sorted(ids)

    @pytest.mark.parametrize("reach", [100.0, 250.0, 0.1 + 0.2, 1000.0 / 3.0])
    def test_boundary_membership_equals_distance_exactly(self, reach):
        # Pairs at exactly R and one ulp either side, plus points around an
        # offset center at nominal distance R, where the vectorized hypot and
        # geometry.distance can round to opposite sides of the range.
        below, above = math.nextafter(reach, 0.0), math.nextafter(reach, math.inf)
        pairs = [(r, 0.0) for r in (reach, below, above)] + [(0.0, -r) for r in (reach, below, above)]
        snap = make_snapshot([(0.0, 0.0)] + pairs, reach)
        assert neighbors(0, snap) == [1, 2, 4, 5]

        rng = random.Random(int(reach * 1000))
        cx, cy = rng.uniform(0, 1000), rng.uniform(0, 1000)
        ring = [
            (cx + reach * math.cos(t), cy + reach * math.sin(t))
            for t in (rng.uniform(-math.pi, math.pi) for _ in range(3000))
        ]
        snap = make_snapshot([(cx, cy)] + ring, reach)
        at = [Position(x, y) for x, y in zip(snap.x.tolist(), snap.y.tolist())]
        want = [i for i, p in enumerate(at) if distance(at[0], p) <= reach]
        assert 0 < len(want) - 1 < len(ring)  # the ring straddles the range
        assert neighbors(0, snap) == want[1:]

    @pytest.mark.parametrize("reach", [1e-310, 1e-160, 1e160, 1e300, 3e307, math.inf])
    def test_membership_exact_at_extreme_ranges(self, reach):
        # Unscaled, R² and d² overflow or underflow at these ranges; 1e-310
        # is subnormal, and its scale 2**1029 is no float.  The x difference
        # of the two big points overflows to inf, and the ring lies at R from
        # the origin up to rounding.
        def finite(points):
            return [p for p in points if math.isfinite(p[0]) and math.isfinite(p[1])]

        big = 1.5e308
        below, above = math.nextafter(reach, 0.0), math.nextafter(reach, math.inf)
        fixed = finite([
            (0.0, 0.0), (reach, 0.0), (below, 0.0), (above, 0.0), (0.0, -reach),
            (0.8 * reach, 0.7 * reach), (0.5 * reach, 0.5 * reach), (-big, 1.0), (big, 1.0),
        ])
        rng = random.Random(60)
        ring = finite([(reach * math.cos(t), reach * math.sin(t))
                       for t in (rng.uniform(-math.pi, math.pi) for _ in range(1000))])
        snap = make_snapshot(fixed + ring, reach)
        positions = [Position(x, y) for x, y in zip(snap.x.tolist(), snap.y.tolist())]
        rows, cols = np.arange(len(fixed)), np.arange(len(positions))
        want = np.array([[distance(positions[i], b) <= reach for b in positions] for i in rows])
        with np.errstate(over="ignore"):  # as the flood calls it
            assert np.array_equal(routing._within(snap, rows, cols), want)
        for i in rows.tolist():
            assert neighbors(i, snap) == [j for j in cols.tolist() if j != i and want[i, j]]
        if math.isfinite(reach):
            assert [j for j in range(1, 9) if want[0, j]] == [1, 2, 4, 6]
            assert 0 < want[0, 9:].sum() < len(ring)  # the ring straddles the range
        else:
            assert want.all()


class TestSquaredScale:
    # One range per binade class: the least subnormal, the edge below which
    # 2**-e is no double, a subnormal, 1, the top binades and inf.  Only
    # ranges outside [2**-500, 2**500] are scaled.
    RANGES = [5e-324, 2.0**-1024, math.nextafter(2.0**-1024, 0.0), 2.0**-1023, 1e-310, 1.0,
              250.0, 2.0**1022, 1.7e308, math.inf]

    @given(
        st.sampled_from(RANGES),
        st.lists(st.tuples(
            st.one_of(st.floats(allow_nan=False), st.sampled_from([0.0, -0.0, 5e-324, 1e-310])),
            st.one_of(st.floats(allow_nan=False), st.sampled_from([1.0, -250.0, 1.7e308])),
        ), min_size=1, max_size=30),
    )
    def test_scaled_squares_equal_ldexp_bit_for_bit(self, reach, pairs):
        dx, dy = (np.array(c) for c in zip(*pairs))
        with np.errstate(over="ignore"):
            want = (dx * dx + dy * dy if 2.0**-500 <= reach <= 2.0**500
                    else oracles.squared_by_ldexp(reach, dx, dy))
            got = routing._squares(reach, dx.copy(), dy.copy())[0]
        assert np.array_equal(got.view(np.uint64), want.view(np.uint64))


class TestRangeAtTheUlp:
    """Pairs at distance R and R ± k ulp, along random directions and at
    scales from subnormal to 1e300, against ``math.hypot``: the net under the
    unscaled squares between 2**-500 and 2**500 and the scaled ones outside."""

    @staticmethod
    def nudged(value, k):
        for _ in range(abs(k)):
            value = math.nextafter(value, math.inf if k > 0 else 0.0)
        return value

    @given(
        st.one_of(
            st.builds(math.ldexp, st.floats(0.5, 1.0, exclude_max=True), st.integers(-1073, 997)),
            # Both sides of the unscaled branch's edges, where squares go subnormal or overflow.
            st.sampled_from([5e-324, 1e-310, 2.0**-530, 2.0**-500, math.nextafter(2.0**-500, 0.0),
                             0.1 + 0.2, 250.0, 2.0**500, math.nextafter(2.0**500, math.inf),
                             2.0**530, 1e300]),
        ),
        st.tuples(st.floats(-4.0, 4.0), st.floats(-4.0, 4.0)),
        st.lists(st.tuples(
            st.integers(-4, 4),
            st.one_of(st.floats(-math.pi, math.pi),
                      st.sampled_from([0.0, HALF_PI, math.pi, -HALF_PI, math.pi / 4])),
        ), min_size=1, max_size=12),
    )
    def test_membership_equals_hypot(self, reach, center, spokes):
        cx, cy = center[0] * reach, center[1] * reach
        points = [(cx, cy)] + [
            (cx + d * math.cos(t), cy + d * math.sin(t))
            for d, t in ((self.nudged(reach, k), t) for k, t in spokes)
        ]
        snap = make_snapshot(points, reach)
        x, y = snap.x.tolist(), snap.y.tolist()
        want = np.array([[math.hypot(bx - ax, by - ay) <= reach for bx, by in zip(x, y)]
                         for ax, ay in zip(x, y)])
        rows = np.arange(len(points))
        with np.errstate(over="ignore"):
            assert np.array_equal(routing._within(snap, rows, rows), want)
        for i in rows.tolist():
            near = [j for j in rows.tolist() if j != i and want[i, j]]
            assert neighbors(i, snap) == near
            with np.errstate(over="ignore"):
                assert routing._near(snap, x[i], y[i], i).tolist() == near

    @given(
        st.one_of(
            st.builds(math.ldexp, st.floats(0.5, 1.0, exclude_max=True), st.integers(-1073, 997)),
            st.sampled_from([5e-324, 1e-310, 2.0**-530, 2.0**-500, math.nextafter(2.0**-500, 0.0),
                             250.0, 2.0**500, math.nextafter(2.0**500, math.inf), 2.0**530,
                             1e300]),
        ),
        st.lists(st.tuples(st.integers(0, 20), st.integers(-4, 4), st.floats(-math.pi, math.pi)),
                 min_size=1, max_size=16),
        st.sampled_from([0.0, 0.5, 2.0, 40.0]),
    )
    def test_flood_matches_the_per_relay_flood(self, reach, steps, spread):
        # A tree of relays, each at R + k ulp from an earlier one, so that
        # every level of the flood turns on pairs at the range.
        points = [(0.0, 0.0)]
        for parent, k, t in steps:
            px, py = points[parent % len(points)]
            d = self.nudged(reach, k)
            points.append((px + d * math.cos(t), py + d * math.sin(t)))
        snap = make_snapshot(points, reach)
        dst = len(points) - 1
        ez = expected_zone(position(snap, dst), spread * reach, 0.0, 1.0)
        for ttl in (1, 2, 3, 5, 64):
            want = oracles.lar_flood_by_relay(0, dst, snap, ez, ttl)
            assert lar_route_discovery(0, dst, snap, ez, ttl) == want


class TestHeadingIntervals:
    """D-LAR's heading test as compares, against the wrap it replaces, for
    headings in [-pi, pi] (turns in [-2pi, 2pi])."""

    THRESHOLDS = [routing._TURN_LO, HALF_PI, routing._TURN_FAR, -routing._TURN_FAR]

    @staticmethod
    def by_compares(turn):
        turn = np.asarray(turn, dtype=float)
        return (((routing._TURN_LO <= turn) & (turn <= HALF_PI))
                | (np.abs(turn) >= routing._TURN_FAR))

    @staticmethod
    def by_wrap(turn):
        return np.abs(wrap_angle(np.asarray(turn, dtype=float))) <= HALF_PI

    @pytest.mark.parametrize("threshold", THRESHOLDS)
    def test_every_double_near_a_threshold(self, threshold):
        bits = np.array([threshold]).view(np.int64)[0]
        turn = np.arange(bits - 2**16, bits + 2**16 + 1, dtype=np.int64).view(np.float64)
        assert np.abs(turn).max() <= 2 * math.pi
        got = self.by_compares(turn)
        assert np.array_equal(got, self.by_wrap(turn))
        assert got.any() and not got.all()  # the test flips inside the window

    @given(st.lists(st.tuples(*[st.one_of(
        st.floats(-math.pi, math.pi),
        st.sampled_from([math.pi, -math.pi, 0.0, -0.0, 5e-324, -5e-324, 1e-310, -1e-310,
                         HALF_PI, -HALF_PI, math.nextafter(HALF_PI, 0.0), 3.0, -3.0]),
    )] * 2), min_size=1, max_size=50))
    def test_heading_pairs_in_pi(self, pairs):
        a, b = (np.array(c) for c in zip(*pairs))
        turn = a - b
        assert np.array_equal(self.by_compares(turn), self.by_wrap(turn))

    @staticmethod
    def forwarder_and_probe(turn):
        """Headings (forwarder, probe) in [-pi, pi] whose difference is ``turn`` exactly."""
        if abs(turn) <= math.pi:
            return 0.0, turn
        here = -math.pi if turn > 0 else math.pi
        return here, turn + here  # Sterbenz: exact, as is probe - here

    def assert_hop_matches_the_wrap(self, here, probe):
        """Probe 1 has the worse angle to the destination, row 2 the better one
        and the opposite heading: the hop takes 1 exactly when it is aligned."""
        opposite = here - math.pi if here > 0 else here + math.pi
        snap = make_snapshot([(0, 0), (90, 15), (100, 0)], 120,
                             headings={0: here, 1: probe, 2: opposite})
        ez = expected_zone(Position(200, 0), 5.0, 0.0, 4.0)
        with np.errstate(over="ignore", invalid="ignore"):  # a turn of inf wraps to nan
            want = oracles.greedy_by_scalar_min(
                snap, snap, 0, Position(0, 0), here, ez.center, [], request_zone(Position(0, 0), ez)
            )
            assert want == (1 if self.by_wrap(probe - here) else 2)
        assert dlar_next_hop(0, ez, snap) == want
        return snap

    @pytest.mark.parametrize("threshold", THRESHOLDS)
    @pytest.mark.parametrize("k", range(-3, 4))
    def test_hop_at_a_threshold_matches_the_wrap(self, threshold, k):
        turn = TestRangeAtTheUlp.nudged(threshold, k if threshold > 0 else -k)
        here, probe = self.forwarder_and_probe(turn)
        assert probe - here == turn and abs(probe) <= math.pi
        snap = self.assert_hop_matches_the_wrap(here, probe)
        assert np.abs(snap.heading).max() <= math.pi
        # Turns past 2pi, which only a hand-built snapshot gives, are wrapped
        # first; the last pair's turn overflows to inf.
        for j in (1, -1, 2, -2, 1000, -1000):
            self.assert_hop_matches_the_wrap(0.0, turn + 2 * j * math.pi)
        for here in (1e308, -1e308):
            self.assert_hop_matches_the_wrap(here, -here)

    def test_moved_headings_take_the_compares(self, monkeypatch):
        # A move wraps every heading into [-pi, pi], so D-LAR's hops on a
        # moved snapshot take the compares, also where the start kept the wrap.
        wraps = []
        monkeypatch.setattr(routing, "wrap_angle", lambda t: wraps.append(t) or wrap_angle(t))
        rng = random.Random(23)
        points = [(rng.uniform(0, 600), rng.uniform(0, 600)) for _ in range(60)]
        start = make_snapshot(points, 150.0,
                              headings={i: rng.choice([10.0, -7.0, 1e6]) for i in range(60)},
                              speeds={i: rng.uniform(0.0, 20.0) for i in range(60)})
        assert np.abs(start.heading).max() > math.pi
        snap = step_mobility(start, 0.7, 600.0, 600.0)
        assert np.abs(snap.heading).max() <= math.pi
        hops = []
        for _ in range(40):
            row, dst = rng.sample(range(len(points)), 2)
            here, dest = position(snap, row), position(snap, dst)
            ez = expected_zone(dest, rng.choice([0.0, 5.0, 40.0]), 0.0, 2.0)
            want = oracles.greedy_by_scalar_min(snap, snap, row, here, snap.heading.item(row),
                                                ez.center, [], request_zone(here, ez))
            hops.append(dlar_next_hop(row, ez, snap))
            assert hops[-1] == want
        assert not wraps
        assert sum(hop is not None for hop in hops) > 20

    def test_headings_outside_pi_keep_the_wrap(self, monkeypatch):
        wraps = []

        def spy(turn):
            wraps.append(len(turn))
            return wrap_angle(turn)

        monkeypatch.setattr(routing, "wrap_angle", spy)
        rng = random.Random(22)
        # Headings within 2pi still give turns past 2pi, where the compares go wrong.
        for headings, in_pi in (([10.0, -7.0, 1e6, 0.3, -2.5], False), ([4.0, -5.0, 3.5, -3.5], False),
                                ([0.3, -2.5, math.pi], True)):
            points = [(rng.uniform(0, 600), rng.uniform(0, 600)) for _ in range(60)]
            snap = make_snapshot(points, 150.0, headings={
                i: rng.choice(headings) for i in range(len(points))})
            assert bool(np.abs(snap.heading).max() <= math.pi) is in_pi
            wraps.clear()
            for _ in range(40):
                row, dst = rng.sample(range(len(points)), 2)
                here, dest = position(snap, row), position(snap, dst)
                ez = expected_zone(dest, rng.choice([0.0, 5.0, 40.0]), 0.0, 2.0)
                want = oracles.greedy_by_scalar_min(
                    snap, snap, row, here, snap.heading.item(row), ez.center, [],
                    request_zone(here, ez),
                )
                assert dlar_next_hop(row, ez, snap) == want
            assert bool(wraps) is not in_pi

    def test_one_far_snapshot_leaves_the_rest_of_the_batch_on_the_compares(self, monkeypatch):
        # One lockstep batch of D-LAR packets on two snapshots: headings in
        # [-pi, pi] on one, some at 1e6 on the other.  Only the turns past 2pi,
        # which come from the far headings, are wrapped; every other turn of
        # each round takes the compares.
        wraps = []
        monkeypatch.setattr(routing, "wrap_angle", lambda t: wraps.append(t.copy()) or wrap_angle(t))
        rng = random.Random(24)
        snaps = []
        for far in (False, True):
            points = [(rng.uniform(0, 1000), rng.uniform(0, 1000)) for _ in range(80)]
            headings = {i: 1e6 if far and i % 3 == 0 else rng.uniform(-math.pi, math.pi)
                        for i in range(80)}
            snaps.append(make_snapshot(points, 220.0, headings=headings,
                                       speeds={i: rng.uniform(0.0, 25.0) for i in range(80)}))
        requests = [("dlar", *rng.sample(range(80), 2), snaps[i % 2], 1.0, 64, None, None)
                    for i in range(80)]
        together = routing.route_lockstep(requests)
        assert wraps
        assert all((np.abs(turn) > 2 * math.pi).all() for turn in wraps)
        assert sum(r.hop_count > 2 for r in together[::2]) > 5  # the near packets hopped
        assert [route(*r[:5], ttl=r[5]) for r in requests] == together
        assert [oracles.route_by_hops(*r) for r in requests] == together


class TestDirNextHop:
    def test_picks_minimum_deviation(self):
        # Five neighbors fanned at 5/20/40/70/110 degrees off the line to the
        # destination; the 5-degree one wins.
        s = Position(0.0, 0.0)
        dest = Position(1000.0, 0.0)
        offsets = [5.0, -20.0, 40.0, -70.0, 110.0]
        points = [(0.0, 0.0)] + [
            (80.0 * math.cos(math.radians(a)), 80.0 * math.sin(math.radians(a)))
            for a in offsets
        ]
        snap = make_snapshot(points, 100.0)
        assert dir_next_hop(0, dest, snap) == 1

    def test_isolated_node(self):
        snap = make_snapshot([(0, 0), (500, 0)], 100)
        assert dir_next_hop(0, Position(1000, 0), snap) is None

    def test_tie_breaks_on_distance_to_destination(self):
        # Both candidates sit on the source-destination line (deviation 0);
        # distances to the destination are 80 and 60.
        snap = make_snapshot([(0, 0), (20, 0), (40, 0)], 100)
        assert dir_next_hop(0, Position(100, 0), snap) == 2

    def test_tie_breaks_on_id_last(self):
        snap = make_snapshot([(0, 0), (40, 0), (40, 0)], 100)
        assert dir_next_hop(0, Position(100, 0), snap) == 1

    def test_excludes_visited(self):
        snap = make_snapshot([(0, 0), (20, 0), (40, 0)], 100)
        assert dir_next_hop(0, Position(100, 0), snap, exclude={2}) == 1
        # Ids outside the snapshot exclude nothing; -1 must not wrap to 2.
        assert dir_next_hop(0, Position(100, 0), snap, exclude=[-1, len(snap), 2.5]) == 2
        assert dir_next_hop(0, Position(100, 0), snap, exclude=[np.int64(2)]) == 1

    def test_known_view_of_other_vehicles_rejected(self):
        snap = make_snapshot([(0, 0), (20, 0), (40, 0)], 100)
        known = make_snapshot([(0, 0), (20, 0)], 100)
        with pytest.raises(ValueError, match="known"):
            dir_next_hop(0, Position(100, 0), snap, known=known)

    def test_coincident_destination_raises(self):
        snap = make_snapshot([(0, 0), (20, 0)], 100)
        with pytest.raises(ValueError):
            dir_next_hop(0, Position(0, 0), snap)


class TestGreedyNextHop:
    @pytest.mark.parametrize("scale", [1e-310, 1e-300, 0.1, 1.0, 7.3, 1e150, 1e300])
    def test_matches_scalar_min(self, scale):
        # Lattice points on one ray from the forwarder tie exactly in angle at
        # different distances, and at scales 0.1 and 7.3 their products
        # round apart, so numpy's and math's arctangents can order them
        # differently by an ulp.  At 1e-300 the products underflow (all
        # angles tie at 0); at 1e300 they overflow to NaN.  At 1e-310 the
        # range is subnormal, where the range test's band is 2**-1070 / R
        # wide.  A lagged known view moves some candidates elsewhere, some
        # onto the forwarder.
        rng = random.Random(repr(scale))
        for _ in range(200):
            mode = rng.choice(["ray", "ray", "lattice", "uniform"])
            pick = rng.uniform if mode == "uniform" else rng.randint

            def spot():
                return Position(pick(0, 12) * scale, pick(0, 12) * scale)

            if mode == "ray":
                dx, dy = rng.randint(-3, 3), rng.randint(-3, 3)
                points = [Position((6 + k * dx) * scale, (6 + k * dy) * scale) for k in range(5)]
            else:
                points = [spot() for _ in range(rng.randint(2, 40))]
            n = len(points)
            headings = [rng.choice([0.0, 1.0, -2.0, math.pi]) for _ in range(n)]
            tx = rng.choice([4.0, 9.0, 20.0]) * scale
            row = 0 if mode == "ray" else rng.randrange(n)
            here, dest = points[row], spot()
            if dest == here:
                continue
            lagged = [
                p if rng.random() < 0.8 else (here if rng.random() < 0.3 else spot())
                for p in points
            ]
            snap, known = (
                make_snapshot(
                    [(p.x, p.y) for p in at], tx,
                    headings=dict(enumerate(headings)), speeds=dict.fromkeys(range(n), 1.0),
                )
                for at in (points, lagged)
            )
            exclude = [row] + rng.sample(range(n), rng.randint(0, n // 4))
            for zoned in (False, True):
                ez = zone = None
                if zoned:
                    speed = rng.choice([0.0, 1.0, 4.0]) * scale
                    ez = expected_zone(dest, speed, 0.0, 1.0)
                    zone = request_zone(here, ez)
                got = routing._next_hops([routing._hop(snap, known, row, dest, exclude, ez)])[0]
                want = oracles.greedy_by_scalar_min(
                    snap, known, row, here, headings[row], dest, exclude, zone
                )
                assert got == want

    def test_one_ulp_angle_pairs_match_scalar_min(self):
        # Candidates turned off the ray to the destination by the same angle
        # up to a few ulps, so that their deviation angles differ by about
        # an ulp and numpy's and math's arctangents can order them
        # differently; some pools must hold such a pair.
        rng = random.Random(24)
        split = 0
        for scale in (1e-300, 1e-3, 1.0, 7.3, 1e150, 1e300):
            reach = 10 * scale
            for _ in range(250):
                hx, hy = rng.uniform(-3, 3) * scale, rng.uniform(-3, 3) * scale
                beta = rng.uniform(-math.pi, math.pi)
                here = Position(hx, hy)
                dest = Position(hx + 50 * scale * math.cos(beta), hy + 50 * scale * math.sin(beta))
                phi = rng.choice([0.0, rng.uniform(-1.5, 1.5), rng.uniform(-1.5, 1.5)])
                points = [(hx, hy)]
                for _ in range(rng.randint(4, 8)):
                    turn = beta + TestRangeAtTheUlp.nudged(phi, rng.randint(-2, 2))
                    d = rng.choice([1.0, rng.uniform(0.2, 1.0)]) * reach
                    points.append((hx + d * math.cos(turn), hy + d * math.sin(turn)))
                headings = [rng.choice([0.0, 1.0, -2.0, math.pi, 3.0]) for _ in points]
                snap = make_snapshot(points, reach, headings=dict(enumerate(headings)))
                pool = [Position(*p) for p in points[1:] if p != (hx, hy)]
                ux, uy = np.array([p.x - hx for p in pool]), np.array([p.y - hy for p in pool])
                vx, vy = dest.x - hx, dest.y - hy
                with np.errstate(over="ignore", invalid="ignore"):
                    fast = np.arctan2(np.abs(ux * vy - uy * vx), ux * vx + uy * vy).tolist()
                exact = [deviation_angle(here, p, dest) for p in pool]
                split += any((fa < fb) != (ea < eb) for fa, ea in zip(fast, exact)
                             for fb, eb in zip(fast, exact))
                for zoned in (False, True):
                    ez = zone = None
                    if zoned:
                        ez = expected_zone(dest, rng.choice([0.0, 10.0, 100.0]) * scale, 0.0, 1.0)
                        zone = request_zone(here, ez)
                    got = routing._next_hops([routing._hop(snap, snap, 0, dest, [0], ez)])[0]
                    want = oracles.greedy_by_scalar_min(
                        snap, snap, 0, here, headings[0], dest, [0], zone
                    )
                    assert got == want
        assert split > 30, split


class TestDlarNextHop:
    def test_void_when_all_neighbors_outside_zone(self):
        # Zone is the degenerate strip y in [0, 0]; the only neighbor is off it.
        snap = make_snapshot([(0, 0), (50, 40), (400, 0)], 100)
        ez = expected_zone(Position(400, 0), 0.0, 0.0, 0.0)
        assert dlar_next_hop(0, ez, snap) is None

    def test_prefers_aligned_heading_over_smaller_angle(self):
        # Candidate 1 has the minimum deviation but drives the opposite way;
        # candidate 2 is aligned with the forwarder and wins.
        snap = make_snapshot(
            [(0, 0), (100, 0), (95, 15), (200, 0)],
            120,
            headings={0: 0.0, 1: math.pi, 2: 0.3},
        )
        ez = expected_zone(Position(200, 0), 5.0, 0.0, 4.0)
        assert dlar_next_hop(0, ez, snap) == 2

    def test_heading_filter_relaxed_when_it_empties_the_pool(self):
        snap = make_snapshot(
            [(0, 0), (100, 0), (95, 15), (200, 0)],
            120,
            headings={0: 0.0, 1: math.pi, 2: 2.9},
        )
        ez = expected_zone(Position(200, 0), 5.0, 0.0, 4.0)
        assert dlar_next_hop(0, ez, snap) == 1

    def test_now_before_t0_raises(self):
        # The expected zone carries the time check that D-LAR's choice relies on.
        with pytest.raises(ValueError):
            expected_zone(Position(50, 0), 0.0, 5.0, 1.0)

    def test_candidates_subset_of_dir_candidates(self):
        rng = random.Random(99)
        for _ in range(200):
            snap = oracles.random_snapshot(rng)
            src, dst = rng.sample(range(len(snap)), 2)
            dest_speed = rng.uniform(0, 20)
            ez = expected_zone(position(snap, dst), dest_speed, 0.0, rng.uniform(0, 5))
            dlar_set = oracles.dlar_candidates(snap, src, ez, [src])
            dir_set = oracles.dir_candidates(snap, src, [src])
            assert dlar_set <= dir_set


class TestLarRouteDiscovery:
    def test_direct_neighbor(self):
        snap = make_snapshot([(0, 0), (50, 0)], 100)
        ez = expected_zone(Position(50, 0), 0.0, 0.0, 0.0)
        result = lar_route_discovery(0, 1, snap, ez, DEFAULT_TTL)
        assert result.outcome is Outcome.DELIVERED
        assert result.path == (0, 1)
        assert result.hop_count == 1

    def test_out_of_zone_relay_is_discarded(self):
        # The only physical relay sits outside the request zone, so discovery
        # fails even though the relay could have carried the packet.
        snap = make_snapshot([(0, 0), (350, 300), (400, 100)], 450)
        ez = expected_zone(Position(300, 300), 5.0, 0.0, 10.0)
        result = lar_route_discovery(0, 1, snap, ez, DEFAULT_TTL)
        assert result.outcome is Outcome.ZONE_UNREACHABLE
        # Sanity: without the zone gate the relay works (greedy DIR delivers).
        assert route("dir", 0, 1, snap).outcome is Outcome.DELIVERED

    def test_matches_bfs_on_zone_subgraph(self):
        rng = random.Random(7321)
        for _ in range(100):
            snap = oracles.random_snapshot(rng, n=100, tx=rng.uniform(80, 200))
            src, dst = rng.sample(range(len(snap)), 2)
            dest_speed = rng.uniform(0, 20)
            t0, now = 0.0, rng.uniform(0, 10)
            last = position(snap, dst)
            ez = expected_zone(last, dest_speed, t0, now)
            result = lar_route_discovery(src, dst, snap, ez, DEFAULT_TTL)
            delivered, hops = oracles.lar_bfs_oracle(
                snap, src, dst, last.x, last.y, dest_speed * (now - t0)
            )
            assert (result.outcome is Outcome.DELIVERED) == delivered
            if delivered:
                assert result.hop_count == hops

    @pytest.mark.parametrize("block_entries", [None, 1, 300])
    def test_matches_per_relay_flood(self, monkeypatch, block_entries):
        # With a cap of 1 entry every block is one relay; with 300 a level
        # spans many blocks of a few relays.  Either way rows claimed by an
        # earlier block must stay claimed.
        if block_entries is not None:
            monkeypatch.setattr(routing, "_FLOOD_BLOCK_ENTRIES", block_entries)
        rng = random.Random(4411)
        outcomes = set()
        for _ in range(40):
            snap = oracles.random_snapshot(rng, n=rng.randint(20, 150), tx=rng.uniform(80, 250))
            src, dst = rng.sample(range(len(snap)), 2)
            last = position(snap, dst)
            dest_speed, now = rng.uniform(0, 20), rng.uniform(0, 10)
            ez = expected_zone(last, dest_speed, 0.0, now)
            for ttl in (1, 2, 3, 4, 5, 6, 64):
                result = lar_route_discovery(src, dst, snap, ez, ttl)
                assert result == oracles.lar_flood_by_relay(src, dst, snap, ez, ttl)
                outcomes.add(result.outcome)
        assert outcomes == {Outcome.DELIVERED, Outcome.TTL_DROP, Outcome.ZONE_UNREACHABLE}

    def test_flood_blocks_stay_under_the_entry_cap(self, monkeypatch):
        snap = generate_nodes(SimConfig(field_width=2000, field_height=2000, node_count=4000))
        shapes = []
        within = routing._within

        def spy(snapshot, rows, cols):
            inside = within(snapshot, rows, cols)
            shapes.append(inside.shape)
            return inside

        monkeypatch.setattr(routing, "_within", spy)
        # Opposite corners, so the request zone spans the field.
        corner = snap.x + snap.y
        src, dst = int(np.argmin(corner)), int(np.argmax(corner))
        assert route("lar", src, dst, snap).outcome is Outcome.DELIVERED
        cap = routing._FLOOD_BLOCK_ENTRIES
        assert all(rows * cols <= cap for rows, cols in shapes if rows > 1)
        # Some level was wide enough to be cut into near-full blocks.
        assert max(rows * cols for rows, cols in shapes) > cap // 2

    def test_flood_tests_only_zone_relays_and_the_destination(self, monkeypatch):
        snap = generate_nodes(SimConfig(field_width=2000, field_height=2000, node_count=4000))
        tested = []
        within = routing._within

        def spy(snapshot, rows, cols):
            tested.append(np.asarray(cols))
            return within(snapshot, rows, cols)

        monkeypatch.setattr(routing, "_within", spy)
        src = int(np.argmin(np.hypot(snap.x - 1000, snap.y - 1000)))
        dst = int(np.argmin(np.hypot(snap.x - 1400, snap.y - 1300)))
        # A stale expected zone 150 m short of the destination on both axes:
        # the zone is small, and the destination lies outside it.
        ez = ExpectedZone(Position(snap.x[dst] - 150, snap.y[dst] - 150), 0.0)
        zone = in_request_zone(snap.x, snap.y, request_zone(position(snap, src), ez))
        assert not zone[dst] and zone.sum() < len(snap) // 20
        result = lar_route_discovery(src, dst, snap, ez, DEFAULT_TTL)
        assert result.outcome is Outcome.DELIVERED
        assert result == oracles.lar_flood_by_relay(src, dst, snap, ez, DEFAULT_TTL)
        cols = np.concatenate(tested)
        assert dst in cols
        assert (zone[cols] | (cols == dst)).all()

    def test_out_of_zone_crowd_changes_nothing(self):
        # Vehicles just outside the zone, between its relays and an
        # out-of-zone destination, are never relays; leaving them out of the
        # flood must claim and report exactly as the per-relay flood does.
        rng = random.Random(2718)
        outcomes = set()
        for _ in range(40):
            tx, side, r = rng.uniform(80, 200), rng.uniform(200, 600), rng.uniform(0, 50)
            # The source at the origin and this zone give the request zone
            # [0, side] x [0, side].
            ez = ExpectedZone(Position(side - r, side - r), r)
            relays = [(rng.uniform(0, side), rng.uniform(0, side)) for _ in range(rng.randint(5, 60))]
            dest = (side + rng.uniform(1e-3, 1.5 * tx), rng.uniform(0, side))
            crowd = [
                (rng.uniform(side + 1e-3, dest[0] + tx), rng.uniform(-tx, side + tx))
                for _ in range(rng.randint(20, 120))
            ]
            points = [(0.0, 0.0), dest, *relays, *crowd]
            rng.shuffle(points)  # interleave relay and crowd ids
            snap = make_snapshot(points, tx)
            src, dst = points.index((0.0, 0.0)), points.index(dest)
            for ttl in (1, 2, 3, 4, 5, 6, 64):
                result = lar_route_discovery(src, dst, snap, ez, ttl)
                assert result == oracles.lar_flood_by_relay(src, dst, snap, ez, ttl)
                outcomes.add(result.outcome)
        assert outcomes == {Outcome.DELIVERED, Outcome.TTL_DROP, Outcome.ZONE_UNREACHABLE}

    def test_an_overflowing_field_matches_the_per_relay_flood(self):
        # Coordinates up to ±1.7e308, so the flood's differences overflow to inf,
        # which lies out of any finite range; the flood ignores that overflow.
        rng = random.Random(1729)
        outcomes, relayed = set(), 0
        for _ in range(40):
            n = rng.randint(2, 80)
            points = [(rng.uniform(-1.7, 1.7) * 1e308, rng.uniform(-1.7, 1.7) * 1e308) for _ in range(n)]
            snap = make_snapshot(points, rng.uniform(3e307, 1.2e308))
            src, dst = rng.choice(range(n)), rng.choice(range(n))
            ez = expected_zone(position(snap, dst), rng.choice([0.0, 1e307, 1.7e308]), 0.0, 1.0)
            for ttl in (1, 2, 3, 5, 64):
                result = lar_route_discovery(src, dst, snap, ez, ttl)
                assert result == oracles.lar_flood_by_relay(src, dst, snap, ez, ttl)
                outcomes.add(result.outcome)
                relayed += result.hop_count > 1
        assert outcomes == {Outcome.DELIVERED, Outcome.TTL_DROP, Outcome.ZONE_UNREACHABLE}
        assert relayed > 5

    def test_source_equals_destination(self):
        # route() answers this case itself; the flood must answer it too.
        snap = make_snapshot([(0, 0), (50, 0), (500, 0)], 100)
        ez = expected_zone(Position(50, 0), 0.0, 0.0, 0.0)
        result = lar_route_discovery(1, 1, snap, ez, DEFAULT_TTL)
        assert result.outcome is Outcome.DELIVERED
        assert result.path == (1,)

    def test_unknown_ids(self):
        snap = make_snapshot([(0, 0), (50, 0)], 100)
        ez = expected_zone(Position(0, 0), 0.0, 0.0, 0.0)
        for unknown in (5, -1, len(snap), 1.5):
            with pytest.raises(KeyError):
                lar_route_discovery(unknown, 1, snap, ez, DEFAULT_TTL)
            with pytest.raises(KeyError):
                lar_route_discovery(0, unknown, snap, ez, DEFAULT_TTL)

    @pytest.mark.parametrize("ttl", [0, -1])
    def test_rejects_non_positive_ttl(self, ttl):
        snap = make_snapshot([(0, 0), (50, 0)], 100)
        ez = expected_zone(Position(50, 0), 0.0, 0.0, 0.0)
        with pytest.raises(ValueError, match="ttl"):
            lar_route_discovery(0, 1, snap, ez, ttl)


class TestRoute:
    @pytest.mark.parametrize("protocol", ["dir", "lar", "dlar"])
    def test_adjacent_pair(self, protocol):
        snap = make_snapshot([(0, 0), (50, 0)], 100)
        result = route(protocol, 0, 1, snap)
        assert result.outcome is Outcome.DELIVERED
        assert result.path == (0, 1)
        assert result.hop_count == 1

    def test_chain_with_nine_tenths_spacing(self):
        snap = make_snapshot([(0, 0), (90, 0), (180, 0), (270, 0)], 100)
        result = route("dlar", 0, 3, snap)
        assert result.outcome is Outcome.DELIVERED
        assert result.path == (0, 1, 2, 3)

    @pytest.mark.parametrize(
        "protocol,outcome",
        [("dir", Outcome.VOID_DROP), ("dlar", Outcome.VOID_DROP), ("lar", Outcome.ZONE_UNREACHABLE)],
    )
    def test_disconnected_pair(self, protocol, outcome):
        snap = make_snapshot([(0, 0), (900, 0)], 100)
        assert route(protocol, 0, 1, snap).outcome is outcome

    def test_an_infinite_expected_zone_routes_alike_under_every_protocol(self):
        # The destination's zone radius, 20 m/s * 1e308 s, overflows to inf; LAR's
        # request zone clamps its infinite bounds to finite corners.
        snap = make_snapshot([(0, 0), (90, 0), (180, 0)], 100, speeds={2: 20.0})
        for protocol in ("dir", "lar", "dlar"):
            result = route(protocol, 0, 2, snap, now=1e308, known_time=0.0)
            assert (result.outcome, result.path) == (Outcome.DELIVERED, (0, 1, 2))
        ez = expected_zone(Position(180, 0), 20.0, 0.0, 1e308)
        assert ez.radius == math.inf
        result = lar_route_discovery(0, 2, snap, ez, DEFAULT_TTL)
        assert (result.outcome, result.path) == (Outcome.DELIVERED, (0, 1, 2))

    def test_ttl_exhaustion(self):
        snap = make_snapshot([(0, 0), (90, 0), (180, 0), (270, 0)], 100)
        result = route("dir", 0, 3, snap, ttl=2)
        assert result.outcome is Outcome.TTL_DROP
        assert result.path == (0, 1, 2)
        result = route("dir", 0, 3, snap, ttl=3)
        assert result.outcome is Outcome.DELIVERED

    @pytest.mark.parametrize("protocol", ["dir", "lar", "dlar"])
    def test_ttl_cut_is_a_ttl_drop_for_every_protocol(self, protocol):
        # Four hops along the line; a budget of three cuts every protocol,
        # LAR's zone flood included, while relays could still go on.
        snap = make_snapshot([(100.0 * i, 0) for i in range(5)], 120)
        assert route(protocol, 0, 4, snap, ttl=3).outcome is Outcome.TTL_DROP
        result = route(protocol, 0, 4, snap, ttl=4)
        assert result.outcome is Outcome.DELIVERED and result.path == (0, 1, 2, 3, 4)

    @pytest.mark.parametrize("protocol", ["dir", "dlar"])
    def test_stale_spot_reached_is_a_void_drop(self, protocol):
        # The beacon view puts the destination on relay 1's spot; once there
        # the packet has no direction left, and the destination is out of range.
        snap = make_snapshot([(0, 0), (100, 0), (300, 0)], 150)
        known = make_snapshot([(0, 0), (100, 0), (100, 0)], 150)
        result = route(protocol, 0, 2, snap, now=5.0, known=known, known_time=5.0)
        assert result.outcome is Outcome.VOID_DROP
        assert result.path == (0, 1)

    def test_ttl_one_still_delivers_direct_neighbor(self):
        snap = make_snapshot([(0, 0), (50, 0)], 100)
        assert route("dir", 0, 1, snap, ttl=1).outcome is Outcome.DELIVERED

    def test_source_equals_destination(self):
        snap = make_snapshot([(0, 0), (50, 0)], 100)
        for protocol in ("dir", "lar", "dlar"):
            result = route(protocol, 0, 0, snap)
            assert result.outcome is Outcome.DELIVERED
            assert result.path == (0,)
            assert result.hop_count == 0

    def test_invalid_arguments(self):
        snap = make_snapshot([(0, 0), (50, 0)], 100)
        with pytest.raises(ValueError):
            route("gpsr", 0, 1, snap)
        with pytest.raises(ValueError):
            route("dir", 0, 1, snap, ttl=0)
        for unknown in (9, -1, len(snap), 1.5):
            with pytest.raises(KeyError):
                route("dir", 0, unknown, snap)
            with pytest.raises(KeyError):
                route("lar", unknown, 1, snap)
        with pytest.raises(ValueError):
            route("dir", 0, 1, snap, now=1.0, known_time=2.0)
        with pytest.raises(ValueError, match="known"):
            route("dir", 0, 1, snap, known=make_snapshot([(0, 0)], 100))
        far = make_snapshot([(0, 0), (50, 0), (120, 0)], 100)
        for now in (math.nan, math.inf):
            for dst in (2, 0):
                with pytest.raises(ValueError):
                    route("dir", 0, dst, far, now=now)
        with pytest.raises(ValueError):
            route("dlar", 0, 2, far, now=1.0, known_time=math.nan)


class TestLockstep:
    """Greedy packets routed together in lockstep rounds equal each packet
    routed alone, and the packet driven one hop at a time by the oracles."""

    @staticmethod
    def field(rng, kind):
        """(snapshot, known view, request times) of one seeded field."""
        n = rng.randint(2, 70)
        if kind == "lattice":  # collinear candidates tie exactly or within an ulp in angle
            scale = rng.choice([0.1, 7.3, 1.0])
            points = [(rng.randint(0, 12) * scale, rng.randint(0, 12) * scale) for _ in range(n)]
            tx = rng.choice([4.0, 9.0, 20.0]) * scale
        elif kind == "huge":  # the angle products overflow
            points = [(rng.uniform(0, 1e300), rng.uniform(0, 1e300)) for _ in range(n)]
            tx = rng.choice([2.5e299, 4e299])
        else:
            size = 1000.0 if kind == "uniform" else 3000.0  # a sparse field has voids
            points = [(rng.uniform(0, size), rng.uniform(0, size)) for _ in range(n)]
            tx = rng.uniform(100.0, 300.0)
        spread = rng.choice([math.pi, math.pi, 1e6])  # headings beyond pi keep the wrap
        headings = {i: rng.uniform(-spread, spread) for i in range(n)}
        speeds = {i: rng.uniform(0.0, 25.0) for i in range(n)}
        snap = make_snapshot(points, tx, headings=headings, speeds=speeds)
        now = rng.uniform(0.0, 10.0)
        if rng.random() < 0.3:
            return snap, None, now, None
        lagged = [p if rng.random() < 0.75 else rng.choice(points) for p in points]
        return make_snapshot(points, tx, headings=headings, speeds=speeds), make_snapshot(
            lagged, tx, headings=headings, speeds=speeds), now, now - rng.choice([0.0, 0.5, 2.0])

    @classmethod
    def requests(cls, seed, count):
        rng = random.Random(seed)
        out = []
        while len(out) < count:
            kind = rng.choice(["uniform", "uniform", "sparse", "lattice", "huge"])
            snap, known, now, known_time = cls.field(rng, kind)
            for _ in range(rng.randint(1, 6)):
                src, dst = rng.choice(range(len(snap))), rng.choice(range(len(snap)))
                ttl = rng.choice([1, 2, 3, 4, 5, 6, 64])
                protocol = rng.choice(["dir", "dlar"])
                out.append((kind, (protocol, src, dst, snap, now, ttl, known, known_time)))
        return out

    def test_together_equals_alone_and_the_hop_oracles(self, monkeypatch):
        ties = []
        monkeypatch.setattr(routing, "deviation_angle",
                            lambda *a: ties.append(a) or deviation_angle(*a))
        labelled = self.requests(30, 600)
        requests = [r for _, r in labelled]
        together = routing.route_lockstep(requests)
        assert ties  # near-tied candidates reached the exact key
        assert [route(*r[:5], ttl=r[5], known=r[6], known_time=r[7]) for r in requests] == together
        rng = random.Random(31)  # any split into batches routes the same
        cuts = sorted(rng.sample(range(1, len(requests)), 40))
        parts = [requests[a:b] for a, b in zip([0, *cuts], [*cuts, len(requests)])]
        assert [r for part in parts for r in routing.route_lockstep(part)] == together
        stale = 0
        for (kind, request), got in zip(labelled, together):
            _, src, dst, snap, _, _, known, _ = request
            assert got == oracles.route_by_hops(*request)
            if kind in ("uniform", "sparse") and known is None:
                assert got == oracles.route_by_hops(*request, acos=True)
            dest = position(snap if known is None else known, dst)
            stale += (got.outcome is Outcome.VOID_DROP and position(snap, got.path[-1]) == dest
                      and src != dst)
        outcomes = [r.outcome for r in together]
        assert stale > 3
        for outcome in (Outcome.DELIVERED, Outcome.VOID_DROP, Outcome.TTL_DROP):
            assert outcomes.count(outcome) > 20, outcome
        assert sum(len(r.path) > 2 for (kind, _), r in zip(labelled, together) if kind == "huge") > 5

    def test_one_batched_choice_per_round(self, monkeypatch):
        # A round's live packets share one _next_hops pass, D-LAR and DIR alike.
        batches = []
        next_hops = routing._next_hops
        monkeypatch.setattr(routing, "_next_hops", lambda hops: batches.append(len(hops)) or next_hops(hops))
        requests = [r for _, r in self.requests(32, 40)]
        results = routing.route_lockstep(requests)
        chosen = [r.hop_count - (r.outcome is Outcome.DELIVERED and r.hop_count > 0) for r in results]
        assert max(batches) > 20
        assert len(batches) <= max(chosen) + 1
        assert sum(batches) >= sum(chosen)

    def test_a_round_scans_each_forwarder_and_path_once(self, monkeypatch):
        # A flow's DIR and D-LAR packets share a snapshot and view, so they stand
        # on one forwarder with one path until their choices part; packets that
        # reach one forwarder by different paths are scanned apart.
        rng = random.Random(34)
        requests = []
        for kind in ("uniform", "lattice", "sparse", "huge") * 3:
            snap, known, now, known_time = self.field(rng, kind)
            dst = rng.randrange(len(snap))  # shared, so that paths meet on the way
            for src in rng.sample(range(len(snap)), min(len(snap), 8)):
                ttl = rng.choice([3, 64])
                requests += [(p, src, dst, snap, now, ttl, known, known_time) for p in ("dir", "dlar")]
        alone = [route(*r[:5], ttl=r[5], known=r[6], known_time=r[7]) for r in requests]
        assert alone == [oracles.route_by_hops(*r) for r in requests]
        rounds = []
        near, next_hops = routing._near, routing._next_hops

        def scan(snapshot, hx, hy, skip):
            rounds[-1][1].append((id(snapshot), tuple(skip)))
            return near(snapshot, hx, hy, skip)

        def choose(hops):
            rounds.append(([(id(h[0]), tuple(h[4])) for h in hops], []))
            return next_hops(hops)

        monkeypatch.setattr(routing, "_near", scan)
        monkeypatch.setattr(routing, "_next_hops", choose)
        assert routing.route_lockstep(requests) == alone
        for entries, scans in rounds:
            assert sorted(scans) == sorted(set(entries))  # each (snapshot, row, path) once
        assert sum(len(s) for _, s in rounds) < 0.8 * sum(len(e) for e, _ in rounds)
        # Some round holds packets on one forwarder with different paths.
        assert any(len({(s, p[-1]) for s, p in set(e)}) < len(set(e)) for e, _ in rounds)

    def test_lar_requests_route_alone(self):
        rng = random.Random(33)
        requests = []
        for _ in range(30):
            snap = oracles.random_snapshot(rng)
            src, dst = rng.sample(range(len(snap)), 2)
            requests.append((rng.choice(PROTOCOLS), src, dst, snap, 1.0, rng.randint(1, 6), None, None))
        assert routing.route_lockstep(requests) == [
            route(*r[:5], ttl=r[5]) for r in requests]

    def test_a_bad_request_raises(self):
        snap = make_snapshot([(0, 0), (50, 0)], 100)
        good = ("dir", 0, 1, snap, 0.0, 5, None, None)
        for bad, match in (((("aodv",) + good[1:]), "aodv"), (good[:5] + (0,) + good[6:], "ttl"),
                           (good[:6] + (None, 1.0), "known_time")):
            with pytest.raises(ValueError, match=match):
                routing.route_lockstep([good, bad])


class TestRouteProperties:
    def test_loop_freedom(self):
        rng = random.Random(314159)
        checked = 0
        for _ in range(500):
            snap = oracles.random_snapshot(rng, n=25, size=500.0, tx=rng.uniform(60, 150))
            ids = range(len(snap))
            for _ in range(20):
                src, dst = rng.sample(ids, 2)
                protocol = rng.choice(["dir", "dlar", "lar"])
                result = route(protocol, src, dst, snap, now=rng.uniform(0, 5))
                assert len(set(result.path)) == len(result.path)
                checked += 1
        assert checked == 10_000

    def test_delivered_invariant(self):
        rng = random.Random(2718)
        for _ in range(300):
            snap = oracles.random_snapshot(rng)
            src, dst = rng.sample(range(len(snap)), 2)
            protocol = rng.choice(["dir", "dlar", "lar"])
            result = route(protocol, src, dst, snap)
            if result.outcome is Outcome.DELIVERED:
                assert result.path[0] == src
                assert result.path[-1] == dst
            assert result.hop_count == len(result.path) - 1

    def test_greedy_matches_exhaustive_argmin(self):
        rng = random.Random(404)
        for _ in range(300):
            snap = oracles.random_snapshot(rng, n=rng.randint(2, 80))
            src, dst = rng.sample(range(len(snap)), 2)
            target = position(snap, dst)
            if target == position(snap, src):
                continue
            got = dir_next_hop(src, target, snap, [src])
            assert got == oracles.dir_oracle(snap, src, target.x, target.y, [src])

            dest_speed = rng.uniform(0, 20)
            ez = expected_zone(target, dest_speed, 0.0, rng.uniform(0, 5))
            got = dlar_next_hop(src, ez, snap, [src])
            assert got == oracles.dlar_oracle(snap, src, ez, [src])

    def test_flooding_dominates_greedy_zone_chain(self):
        # Any D-LAR relay chain lives inside the source-anchored zone, so a
        # delivered D-LAR packet implies LAR discovery succeeds in <= hops.
        rng = random.Random(606)
        dominated = 0
        for _ in range(200):
            snap = oracles.random_snapshot(rng, n=60, tx=rng.uniform(100, 220))
            src, dst = rng.sample(range(len(snap)), 2)
            now = rng.uniform(0, 5)
            dlar_result = route("dlar", src, dst, snap, now=now)
            if dlar_result.outcome is Outcome.DELIVERED:
                lar_result = route("lar", src, dst, snap, now=now)
                assert lar_result.outcome is Outcome.DELIVERED
                assert lar_result.hop_count <= dlar_result.hop_count
                dominated += 1
        assert dominated > 20  # the property must actually be exercised

    def test_determinism(self):
        rng = random.Random(808)
        for _ in range(50):
            snap = oracles.random_snapshot(rng)
            src, dst = rng.sample(range(len(snap)), 2)
            protocol = rng.choice(["dir", "dlar", "lar"])
            now = rng.uniform(0, 5)
            first = route(protocol, src, dst, snap, now=now)
            second = route(protocol, src, dst, snap, now=now)
            assert first == second
            assert repr(first) == repr(second)

    def test_translation_invariance_all_protocols(self):
        rng = random.Random(909)
        for _ in range(60):
            snap = oracles.random_snapshot(rng, n=40)
            dx, dy = rng.uniform(-5000, 5000), rng.uniform(-5000, 5000)
            moved = NetworkSnapshot(
                snap.transmission_range, snap.x + dx, snap.y + dy, snap.speed, snap.heading
            )
            src, dst = rng.sample(range(len(snap)), 2)
            for protocol in ("dir", "lar", "dlar"):
                a = route(protocol, src, dst, snap, now=1.0)
                b = route(protocol, src, dst, moved, now=1.0)
                assert a.path == b.path and a.outcome == b.outcome

    def test_rotation_invariance_for_dir(self):
        # Compass forwarding depends only on distances and relative angles;
        # (the axis-aligned request zones of LAR/D-LAR are not rotation
        # equivariant, so this holds for DIR alone.)
        rng = random.Random(1010)
        for _ in range(60):
            snap = oracles.random_snapshot(rng, n=40)
            theta = rng.uniform(0, 2 * math.pi)
            cos_t, sin_t = math.cos(theta), math.sin(theta)
            rotated = NetworkSnapshot(
                snap.transmission_range,
                snap.x * cos_t - snap.y * sin_t,
                snap.x * sin_t + snap.y * cos_t,
                snap.speed,
                wrap_angle(snap.heading + theta),
            )
            src, dst = rng.sample(range(len(snap)), 2)
            a = route("dir", src, dst, snap)
            b = route("dir", src, dst, rotated)
            assert a.path == b.path and a.outcome == b.outcome


def columns(**changes):
    """Columns of three valid vehicles, with ``changes`` applied."""
    base = dict(x=[0.0, 50.0, 90.0], y=[0.0, 0.0, 0.0],
                speed=[1.0, 0.0, 2.0], heading=[0.0, 1.0, -1.0])
    return {**base, **changes}


class TestSnapshot:
    def test_non_positive_range_rejected(self):
        for reach in (0.0, -1.0, math.nan):
            with pytest.raises(ValueError, match="transmission_range"):
                NetworkSnapshot(reach, **columns())

    def test_repr_names_size_and_range(self):
        snap = make_snapshot([(0, 0), (50, 0), (90, 0)], 100)
        assert repr(snap) == "NetworkSnapshot(3 vehicles, transmission_range=100.0)"

    def test_empty_snapshot_from_lists(self):
        snap = NetworkSnapshot(100.0, [], [], [], [])
        assert len(snap) == 0

    @pytest.mark.parametrize(
        "changes",
        [
            dict(x=[0.0, 50.0]),
            dict(speed=[1.0, 0.0, 2.0, 3.0]),
            dict(x=[math.nan, 50.0, 90.0]),
            dict(y=[0.0, math.inf, 0.0]),
            dict(heading=[0.0, math.nan, 0.0]),
            dict(speed=[1.0, -5.0, 2.0]),
            dict(speed=[1.0, math.inf, 2.0]),
            dict(speed=[1.0, math.nan, 2.0]),
            {name: [column] for name, column in columns().items()},
        ],
        ids=[
            "short-x", "long-speed", "nan-x", "inf-y", "nan-heading", "negative-speed",
            "inf-speed", "nan-speed", "2d-columns",
        ],
    )
    def test_invalid_columns_rejected(self, changes):
        NetworkSnapshot(100.0, **columns())
        with pytest.raises(ValueError):
            NetworkSnapshot(100.0, **columns(**changes))

    def test_columns_of_a_snapshot_are_reused_and_new_ones_checked(self):
        snap = NetworkSnapshot(100.0, **columns())
        moved = NetworkSnapshot(100.0, **columns(y=snap.y, speed=snap.speed, x=[5.0, 6.0, 7.0]))
        assert moved.y is snap.y and moved.speed is snap.speed
        with pytest.raises(ValueError, match="finite"):
            NetworkSnapshot(100.0, **columns(y=snap.y, speed=snap.speed, x=[math.nan, 6.0, 7.0]))
        # A read-only column that no snapshot has checked is still checked.
        speed = np.array([1.0, -5.0, 2.0])
        speed.flags.writeable = False
        with pytest.raises(ValueError, match="speed"):
            NetworkSnapshot(100.0, **columns(y=snap.y, speed=speed))
        # A checked column that its owner made writeable again and changed is
        # checked again.
        for name, value in (("x", [math.nan, 1.0, 2.0]), ("speed", [1.0, -5.0, 2.0])):
            column = getattr(NetworkSnapshot(100.0, **columns()), name)
            column.flags.writeable = True
            column[:] = value
            with pytest.raises(ValueError, match=name):
                NetworkSnapshot(100.0, **columns(**{name: column}))

    def test_columns_are_read_only(self):
        snap = NetworkSnapshot(100.0, **columns())
        assert neighbors(1, snap) == [0, 2]
        with pytest.raises(ValueError):
            snap.x[0] = 1.0
