import hashlib
import importlib.util
import math
import random
import sys
import tracemalloc
import weakref
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import geo_route_sim.netsim as netsim
import oracles
from geo_route_sim.geometry import Position, wrap_angle
from geo_route_sim.netsim import (
    CampaignMetrics,
    METRICS_HEADER,
    SimConfig,
    _firing_step,
    beacon_view,
    generate_nodes,
    metrics_row,
    run_campaign,
    step_mobility,
)
from geo_route_sim.cli import _campaign_csv
from geo_route_sim.routing import HALF_PI, PROTOCOLS, NetworkSnapshot, Outcome
from oracles import make_snapshot, position, snapshot_digest


def small_config(**overrides) -> SimConfig:
    base = dict(
        field_width=400.0,
        field_height=400.0,
        density=0.0002,
        tx_range=150.0,
        duration=2.0,
        time_step=0.5,
        flows=10,
        seed=11,
    )
    base.update(overrides)
    return SimConfig(**base)


class TestGenerateNodes:
    def test_single_node(self):
        snap = generate_nodes(small_config(node_count=1))
        assert len(snap) == 1

    def test_same_seed_same_snapshot(self):
        config = small_config(seed=77)
        assert snapshot_digest(generate_nodes(config)) == snapshot_digest(generate_nodes(config))

    def test_different_seed_different_snapshot(self):
        a = generate_nodes(small_config(seed=1))
        b = generate_nodes(small_config(seed=2))
        assert snapshot_digest(a) != snapshot_digest(b)

    def test_flow_count_does_not_perturb_placement(self):
        a = generate_nodes(small_config(flows=1))
        b = generate_nodes(small_config(flows=500))
        assert snapshot_digest(a) == snapshot_digest(b)

    def test_protocol_does_not_perturb_placement(self):
        a = generate_nodes(small_config(protocol="dir"))
        b = generate_nodes(small_config(protocol="lar"))
        assert snapshot_digest(a) == snapshot_digest(b)

    def test_fields_within_configured_ranges(self):
        config = small_config(node_count=200, speed_min=3.0, speed_max=9.0)
        snap = generate_nodes(config)
        for x, y, speed, heading in zip(snap.x, snap.y, snap.speed, snap.heading):
            assert 0.0 <= x <= config.field_width
            assert 0.0 <= y <= config.field_height
            assert config.speed_min <= speed <= config.speed_max
            assert -math.pi < heading <= math.pi

    def test_poisson_count_law_of_large_numbers(self):
        # lambda * area = 100; the empirical mean count over 10^4 seeds must
        # land within 1% of it.
        config = small_config(field_width=500.0, field_height=500.0, density=100.0 / 250_000.0)
        total = sum(len(generate_nodes(replace(config, seed=s))) for s in range(10_000))
        assert total / 10_000 == pytest.approx(100.0, abs=1.0)


class TestStepMobility:
    def test_zero_speed_keeps_positions(self):
        snap = make_snapshot([(10, 20)], 100, headings={0: 1.0})
        moved = step_mobility(snap, 5.0, 1000, 1000)
        assert position(moved, 0) == Position(10, 20)

    def test_reflection_at_right_boundary(self):
        snap = make_snapshot([(999, 500)], 100, speeds={0: 10.0})
        moved = step_mobility(snap, 1.0, 1000, 1000)
        assert moved.x[0] == pytest.approx(991.0)
        assert moved.y[0] == pytest.approx(500.0)
        assert moved.heading[0] == pytest.approx(math.pi)

    def test_reflection_at_bottom_boundary(self):
        snap = make_snapshot([(500, 3)], 100, headings={0: -math.pi / 2}, speeds={0: 10.0})
        moved = step_mobility(snap, 1.0, 1000, 1000)
        assert moved.y[0] == pytest.approx(7.0)
        assert moved.heading[0] == pytest.approx(math.pi / 2)

    def test_counts_speeds_preserved_and_positions_in_field(self):
        config = small_config(node_count=150, speed_min=5.0, speed_max=40.0)
        snap = generate_nodes(config)
        speeds = snap.speed.tolist()
        for _ in range(30):
            snap = step_mobility(snap, 7.0, config.field_width, config.field_height)
            assert len(snap) == 150
            assert snap.speed.tolist() == speeds
            for x, y in zip(snap.x, snap.y):
                assert 0.0 <= x <= config.field_width
                assert 0.0 <= y <= config.field_height

    @pytest.mark.parametrize("dt", [math.inf, -math.inf, math.nan])
    def test_rejects_non_finite_dt_naming_it(self, dt):
        snap = make_snapshot([(0, 0)], 100)
        with pytest.raises(ValueError, match="dt must be finite"):
            step_mobility(snap, dt, 100, 100)

    def test_zero_dt_keeps_the_start_position_bits(self):
        snap = make_snapshot([(0.1, 99.7), (50.0, 0.0), (100.0, 3.3)], 100,
                             headings={0: 0.4, 1: -2.9}, speeds={0: 12.5, 1: 30.0})
        moved = step_mobility(snap, 0.0, 100, 100)
        for name in ("x", "y"):
            assert getattr(moved, name).tobytes() == getattr(snap, name).tobytes()

    @pytest.mark.parametrize("name", ["field_width", "field_height"])
    @pytest.mark.parametrize("size", [-5.0, 0.0, -0.0, math.inf, -math.inf, math.nan])
    def test_rejects_bad_field_size_naming_it(self, name, size):
        # A width of -5 used to move this vehicle to x = -14.5, outside every
        # field, and a zero width leaked fmod's RuntimeWarning.
        snap = make_snapshot([(0.5, 0.5)], 100, headings={0: math.pi}, speeds={0: 30.0})
        sizes = {"field_width": 1000.0, "field_height": 1000.0, name: size}
        with pytest.raises(ValueError, match=f"{name} must be finite and > 0"):
            step_mobility(snap, 0.5, sizes["field_width"], sizes["field_height"])

    @pytest.mark.parametrize("headings", [[math.pi, 0.0], [0.0, 0.0]])
    @pytest.mark.parametrize("name", ["field_width", "field_height"])
    def test_rejects_a_field_whose_double_overflows(self, name, headings):
        # Twice the size is the period a move folds by.  An infinite period
        # turned a vehicle moving toward 0 into NaN and left one moving away
        # untouched.
        snap = NetworkSnapshot(100.0, [10.0, 20.0], [10.0, 10.0], [1.0, 1.0], headings)
        sizes = {"field_width": 1000.0, "field_height": 1000.0, name: 1e308}
        size = (sizes["field_width"], sizes["field_height"])
        with pytest.raises(ValueError, match=rf"^2 \* {name} must be finite"):
            step_mobility(snap, 20.0, *size)
        with pytest.raises(ValueError, match=rf"^2 \* {name} must be finite"):
            beacon_view(snap, 20.5, 1.0, *size)
        with pytest.raises(ValueError, match=r"^2 \* field_width must be finite"):
            step_mobility(snap, 1.0, 1e308, 1e308)

    @pytest.mark.parametrize("headings", [[math.pi, 0.0], [0.0, 0.0], [-HALF_PI, HALF_PI]])
    def test_largest_field_is_accepted(self, headings):
        size = sys.float_info.max / 2
        start = NetworkSnapshot(100.0, [10.0, 20.0], [10.0, 10.0], [1.0, 1.0], headings)
        trig = np.cos(start.heading), np.sin(start.heading)
        for t, snap in ((20.0, step_mobility(start, 20.0, size, size)),
                        (-0.5, beacon_view(start, 20.5, 1.0, size, size))):
            for got, want in zip((snap.x, snap.y, snap.heading),
                                 oracles.moved_by_mod(start, t, size, size, *trig)):
                assert np.array_equal(got.view(np.uint64), want.view(np.uint64))
            assert ((0.0 <= snap.x) & (snap.x <= size) & (0.0 <= snap.y) & (snap.y <= size)).all()


def heading_gap(a, b):
    return abs(math.remainder(a - b, 2 * math.pi))


def assert_same_motion(got: NetworkSnapshot, want):
    """``got``'s rows against (x, y, speed, heading) tuples in row order."""
    columns = (got.x.tolist(), got.y.tolist(), got.speed.tolist(), got.heading.tolist())
    assert len(got) == len(want)
    for (gx, gy, gspeed, gheading), (x, y, speed, heading) in zip(zip(*columns), want):
        assert gx == pytest.approx(x, abs=1e-9)
        assert gy == pytest.approx(y, abs=1e-9)
        assert heading_gap(gheading, heading) <= 1e-12
        assert gspeed == speed


def random_movers(rng, n, width, height, speed_max):
    """(x, y, speed, heading) of ``n`` vehicles."""
    return [
        (
            rng.uniform(0, width),
            rng.uniform(0, height),
            rng.uniform(0.0, speed_max),
            rng.uniform(-math.pi, math.pi),
        )
        for _ in range(n)
    ]


def movers_snapshot(movers) -> NetworkSnapshot:
    x, y, speed, heading = zip(*movers)
    return NetworkSnapshot(100, x, y, speed, heading)


class TestClosedFormMotion:
    """step_mobility's closed form against the fold-one-reflection-at-a-time
    reference of tests/oracles.py."""

    @pytest.mark.parametrize(
        "width, height, speed_max, dt, steps",
        [
            (1000.0, 1000.0, 40.0, 0.5, 400),  # up to 8 km: several reflections each
            (120.0, 45.0, 60.0, 0.5, 600),  # many reflections on both axes
            (30.0, 500.0, 35.0, 2.0, 150),  # one step can cross the narrow axis twice
        ],
    )
    def test_one_long_move_equals_many_steps(self, width, height, speed_max, dt, steps):
        rng = random.Random(steps)
        vehicles = random_movers(rng, 25, width, height, speed_max)
        stepped = list(vehicles)
        for _ in range(steps):
            stepped = [oracles.advance_by_stepping(*v, dt, width, height) for v in stepped]
        moved = step_mobility(movers_snapshot(vehicles), dt * steps, width, height)
        assert_same_motion(moved, stepped)

    @pytest.mark.parametrize("dt", [3.7, 250.0, 10_000.0])
    def test_dt_much_larger_than_the_field(self, dt):
        width, height = 80.0, 55.0
        vehicles = random_movers(random.Random(int(dt)), 25, width, height, 30.0)
        moved = step_mobility(movers_snapshot(vehicles), dt, width, height)
        assert_same_motion(
            moved, [oracles.advance_by_stepping(*v, dt, width, height) for v in vehicles]
        )

    def test_corner_hit_mirrors_both_axes(self):
        snap = make_snapshot(
            [(90, 90)], 100, headings={0: math.pi / 4}, speeds={0: math.sqrt(2) * 20}
        )
        moved = step_mobility(snap, 1.0, 100, 100)
        assert moved.x[0] == pytest.approx(90.0)
        assert moved.y[0] == pytest.approx(90.0)
        assert heading_gap(moved.heading[0], -3 * math.pi / 4) <= 1e-12


class TestFiringSteps:
    @pytest.mark.parametrize(
        "duration, flows, time_step",
        [
            (41.0, 37, 0.3),
            (30.0, 50, 0.5),
            (7.5, 50, 0.5),
            (60.0, 6, 0.5),
            (1.0, 3, 0.1),
            (10.0, 7, 1 / 3),
            (0.7, 13, 0.07),
            (2.0, 1000, 0.001),
            (5.0, 9, 5.0),
            (1e-3, 11, 1e-4),
            (1e-320, 3, 1e-320),  # the slack 1e-9 * time_step underflows to 0
            (1e-8, 10, 1e-10),
        ],
    )
    def test_matches_walking_the_grid(self, duration, flows, time_step):
        steps = [_firing_step(i * duration / flows, time_step) for i in range(flows)]
        assert steps == oracles.firing_steps_by_stepping(duration, flows, time_step)

    def test_slack_is_relative_to_the_step(self):
        # A slack of 1e-9 s would span ten of these steps and fire these
        # flows at steps 0, 0, 10, 20, 30, 40, 51, 61, 70 and 80.
        steps = [_firing_step(i * 1e-8 / 10, 1e-10) for i in range(10)]
        assert steps == list(range(0, 100, 10))

    def test_quotient_one_step_high_is_corrected_down(self):
        # Past the grid walk's reach: the ceil quotient is 27879196473429 here,
        # one more than the smallest step whose grid time covers the flow.
        flow_time, time_step = 83.58708891595614, 2.9981885954146493e-12
        slack = 1e-9 * time_step
        assert math.ceil((flow_time - slack) / time_step) == 27879196473429
        step = _firing_step(flow_time, time_step)
        assert step == 27879196473428
        assert flow_time <= step * time_step + slack
        assert not flow_time <= (step - 1) * time_step + slack

    @staticmethod
    def record_moves(monkeypatch):
        """The placements drawn and the times ``start`` is moved to."""
        placed, moves = [], []
        place, move = netsim.generate_nodes, netsim.step_mobility
        monkeypatch.setattr(netsim, "generate_nodes", lambda c: placed.append(c) or place(c))
        monkeypatch.setattr(
            netsim, "step_mobility", lambda snap, t, *a: moves.append(t) or move(snap, t, *a)
        )
        return placed, moves

    @pytest.mark.parametrize("protocols", [None, PROTOCOLS], ids=["simulate", "compare"])
    def test_moves_only_when_a_flow_fires(self, monkeypatch, protocols):
        # A compare cell is one walk: one placement and one move per firing
        # time, shared by all its protocols.
        placed, moves = self.record_moves(monkeypatch)
        _campaign_csv(small_config(duration=60.0, flows=6), None, protocols)
        assert len(placed) == 1
        assert moves == [10.0, 20.0, 30.0, 40.0, 50.0]

    @pytest.mark.parametrize(
        "duration, flows, time_step, beacon_interval", [(7.5, 50, 0.5, 1.0), (10.0, 30, 0.4, 1.7)]
    )
    def test_moves_once_per_firing_time_or_tick(
        self, monkeypatch, duration, flows, time_step, beacon_interval
    ):
        # Lagged beacons: a view is the start moved to its tick, and a tick
        # that is also a firing time (or the start) is not moved to again.
        config = small_config(duration=duration, flows=flows, time_step=time_step,
                              beacon_interval=beacon_interval)
        _, moves = self.record_moves(monkeypatch)
        run_campaign(config, PROTOCOLS)
        fired = {_firing_step(i * config.duration / config.flows, config.time_step)
                 * config.time_step for i in range(config.flows)}
        ticks = {netsim._beacon_tick(t, config.beacon_interval) for t in fired}
        assert sorted(moves) == moves == sorted((fired | ticks) - {0.0})

    def test_the_tracer_sees_the_placement_and_every_move(self, monkeypatch):
        # bench/tracer.py wraps netsim.generate_nodes and netsim.step_mobility at
        # the module globals; a campaign places and moves through them.
        path = Path(__file__).resolve().parent.parent / "bench" / "tracer.py"
        spec = importlib.util.spec_from_file_location("bench_tracer", path)
        bench_tracer = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(bench_tracer)
        for module_name, attr, _ in bench_tracer.SPANS + bench_tracer.COUNTERS:
            module = importlib.import_module(f"geo_route_sim.{module_name}")
            if hasattr(module, attr):  # restored after the test
                monkeypatch.setattr(module, attr, getattr(module, attr))
        tracer = bench_tracer.Tracer()
        tracer.install()
        config = small_config(duration=10.0, flows=30, time_step=0.4, beacon_interval=1.7)
        run_campaign(config, PROTOCOLS)
        fired = {_firing_step(i * config.duration / config.flows, config.time_step)
                 * config.time_step for i in range(config.flows)}
        times = (fired | {netsim._beacon_tick(t, config.beacon_interval) for t in fired}) - {0.0}
        names = [span[0] for span in tracer.spans]
        assert names.count("netsim.generate_nodes") == 1
        assert names.count("netsim.step_mobility") == len(times) > 10
        metrics = tracer.summary(0)
        assert metrics["netsim.step_mobility.calls"][0] == len(times)
        assert metrics["netsim.generate_nodes.s"][0] > 0


class TestMotionBits:
    """The closed form of motion keeps the bits of the np.mod fold it
    replaced, and a campaign's views agree with the stepping reference."""

    @pytest.mark.parametrize("period", [2 * 400.0, 2 * 300.0, 2 * 2000.0, 2 * 1e300])
    def test_fold_is_mod_bit_for_bit(self, period):
        rng = np.random.default_rng(int(math.log2(period)))
        u = np.concatenate([
            rng.uniform(-40 * period, 40 * period, 20_000),
            rng.uniform(-period, period, 20_000),
            np.arange(-40, 41) * period,  # exact multiples, which fmod takes to -0.0
            rng.uniform(-1.0, 1.0, 1_000) * 1e-310,  # subnormals
            [0.0, -0.0, 5e-324, -5e-324, 1e-300, -1e-300, period / 2, -period / 2,
             np.nextafter(period, 0.0), -np.nextafter(period, 0.0), 1e300, -1e300],
        ])
        got, want = netsim._fold(u.copy(), period), np.mod(u, period)
        assert np.array_equal(got, want)
        assert np.array_equal(np.signbit(got), np.signbit(want))

    @pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
    def test_fold_raises_where_a_coordinate_is_not_finite(self, bad):
        u = np.array([1.0, -3.0, bad, 2.5])
        with pytest.raises(ValueError, match="finite"):
            netsim._fold(u, 800.0)

    @staticmethod
    def assert_same_bits(got, want):
        got, want = np.asarray(got, dtype=float), np.asarray(want, dtype=float)
        assert got.shape == want.shape
        assert np.array_equal(got.view(np.uint64), want.view(np.uint64))

    @staticmethod
    def edges(period):
        """The fold's edge cases at ``period``: 0, P and 2P, each 1 ulp either
        side, both signs; far multiples; subnormals."""
        multiples = [k * period for k in (0.0, 1.0, 2.0)]
        near = [v for m in multiples for v in (m, math.nextafter(m, 0.0), math.nextafter(m, math.inf))]
        far = [period * 2.0**40 + period / 3, 1e300, 1.7976931348623157e308]
        values = near + far + [5e-324, 1e-310, 2.2250738585072014e-308]
        return [v for u in values for v in (u, -u) if math.isfinite(v)]

    @given(
        st.one_of(st.sampled_from([2 * 400.0, 2 * 2000.0, 2 * math.pi, 2 * 1e300, 1e-310]),
                  st.floats(1e-300, 1e300)),
        st.data(),
    )
    def test_fold_is_mod_bit_for_bit_at_the_edges(self, period, data):
        finite = st.floats(allow_nan=False, allow_infinity=False)
        values = data.draw(st.lists(st.one_of(st.sampled_from(self.edges(period)), finite),
                                    min_size=1, max_size=40))
        u = np.array(values)
        self.assert_same_bits(netsim._fold(u.copy(), period), np.mod(u, period))

    @given(st.lists(st.one_of(
        st.floats(-100.0, 100.0),
        st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 1e-310, math.pi, -math.pi,
                         math.nextafter(math.pi, 4.0), math.nextafter(-math.pi, -4.0), 2 * math.pi,
                         -2 * math.pi, 3 * math.pi, -3 * math.pi, 1e300, -1e300]),
    ), min_size=1, max_size=40))
    def test_wrapped_column_is_scalar_wrap_angle_bit_for_bit(self, headings):
        # The move's and the placement's heading wrap, against the scalar formula.
        want = [wrap_angle(h) for h in headings]
        self.assert_same_bits(netsim._wrapped(np.array(headings)), want)
        self.assert_same_bits(wrap_angle(np.array(headings)), want)

    @pytest.mark.parametrize("center", [math.pi, -math.pi, HALF_PI, -HALF_PI, 0.0])
    def test_wrapped_is_idempotent_near_the_edges(self, center):
        # generate_nodes wraps its headings, drawn in [-pi, pi], once where seeded
        # campaigns once wrapped twice.  Every double within 2**20 ulps of the
        # center, those just past +-pi included, wraps into (-pi, pi] and stays.
        steps = np.arange(2**20 + 1)
        if center == 0.0:
            headings = np.concatenate([steps.view(np.float64), -steps.view(np.float64)])
        else:
            bits = np.array([center]).view(np.int64)
            headings = np.concatenate([bits - steps, bits + steps]).view(np.float64)
        once = netsim._wrapped(headings.copy())
        assert once.min() > -math.pi and once.max() <= math.pi
        self.assert_same_bits(netsim._wrapped(once.copy()), once)

    @given(
        st.sampled_from([(400.0, 300.0), (2000.0, 2000.0), (1.0, 3.0), (1e300, 7.5e299)]),
        st.one_of(st.floats(-1e4, 1e4), st.sampled_from([0.0, -0.0, 0.5, 7.5, -0.3, 123.25])),
        st.data(),
    )
    def test_moved_is_mod_and_where_bit_for_bit(self, field, t, data):
        width, height = field
        unit = st.one_of(st.floats(0.0, 1.0), st.sampled_from([0.0, 1.0, 0.5]))
        vehicle = st.tuples(unit, unit, st.floats(0.0, 50.0), st.floats(-math.pi, math.pi))
        rows = data.draw(st.lists(vehicle, min_size=1, max_size=30))
        px, py, speed, heading = (np.array(c) for c in zip(*rows))
        start = NetworkSnapshot(10.0, px * width, py * height, speed, heading)
        trig = np.cos(start.heading), np.sin(start.heading)
        moved = step_mobility(start, t, width, height)
        want = oracles.moved_by_mod(start, t, width, height, *trig)
        for got, column in zip((moved.x, moved.y, moved.heading), want):
            self.assert_same_bits(got, column)

    @pytest.mark.parametrize(
        "width, nodes, digest",
        [
            (2000.0, 800, "c47cf8fdb7d03638b1110af47dbcb5ce1cbcc4e42399cd90088242d597102ba1"),
            (2000.0, 8000, "34d8dd7625a15141ad229f1af535769306fba0568bf9b37d2cac951bc8781e43"),
            (1e300, 800, "b7d06237cdd79e21eaf21056a142a2d2de7477f5e425e9606aa0d28b7018a3eb"),
        ],
        ids=["800", "8000", "1e300-field"],
    )
    def test_public_moves_keep_their_bits(self, width, nodes, digest):
        # step_mobility and beacon_view (with a 0.3 s lag) move the snapshot
        # they are given; the digest of their columns was recorded with the
        # np.mod fold and per-call trig.
        height = 0.75 * width
        config = SimConfig(field_width=width, field_height=height, node_count=nodes,
                           tx_range=width / 8, seed=5)
        start = generate_nodes(config)
        sha = hashlib.sha256()
        for t in (0.5, 7.5, 123.25, 1e4):
            moved = step_mobility(start, t, width, height)
            for snap in (moved, beacon_view(moved, 0.3, 1.0, width, height)):
                for column in (snap.x, snap.y, snap.heading):
                    sha.update(column.astype("<f8").tobytes())
        assert sha.hexdigest() == digest

    @pytest.mark.parametrize("beacon_interval", [1.7, 1.0])
    def test_campaign_views_match_stepping(self, monkeypatch, beacon_interval):
        width, height = 400.0, 300.0
        config = small_config(field_width=width, field_height=height, node_count=40,
                              speed_min=20.0, speed_max=40.0, duration=30.0, flows=40,
                              time_step=0.4, beacon_interval=beacon_interval)
        seen, fired = {}, set()
        route_lockstep = netsim.route_lockstep

        def spy(requests):
            for _, _, _, snapshot, now, _, known, known_time in requests:
                assert (known is snapshot) == (known_time == now)  # no lag: the same snapshot
                seen[now], seen[known_time] = snapshot, known
                fired.add(now)
            return route_lockstep(requests)

        monkeypatch.setattr(netsim, "route_lockstep", spy)
        run_campaign(config)
        start = generate_nodes(config)
        rows = list(zip(start.x.tolist(), start.y.tolist(), start.speed.tolist(),
                        start.heading.tolist()))
        assert len(seen.keys() - fired) > 5  # ticks that are not firing times
        for t, snap in seen.items():
            want = [oracles.advance_by_stepping(*row, t, width, height) for row in rows]
            wx, wy, _, wheading = (np.array(c) for c in zip(*want))
            assert np.abs(snap.x - wx).max() <= 4 * np.spacing(2 * width)
            assert np.abs(snap.y - wy).max() <= 4 * np.spacing(2 * height)
            gaps = [heading_gap(a, b) for a, b in zip(snap.heading.tolist(), wheading)]
            assert max(gaps) <= 4 * np.spacing(2 * math.pi)


class TestCampaignMoves:
    """Every move skips NetworkSnapshot's checks, which it meets by
    construction, and mirrors headings by row index."""

    @pytest.mark.parametrize("t", [0.5, 7.5, 60.0, -0.3, 1e4])
    def test_unchecked_move_is_the_checked_one(self, t):
        width, height = 2000.0, 1500.0
        start = generate_nodes(SimConfig(field_width=width, field_height=height,
                                         node_count=4000, seed=22))
        moved = step_mobility(start, t, width, height)
        # Rebuilt from its columns, the moved snapshot passes the checks.
        checked = NetworkSnapshot(moved.transmission_range, *(
            getattr(moved, name).copy() for name in ("x", "y", "speed", "heading")))
        for name in ("x", "y", "heading"):
            got, want = getattr(moved, name), getattr(checked, name)
            assert np.array_equal(got.view(np.uint64), want.view(np.uint64))
            assert not got.flags.writeable
        assert moved.speed is start.speed
        assert moved.transmission_range == start.transmission_range
        assert np.abs(moved.heading).max() <= math.pi  # every heading wrapped
        if t == 60.0:  # many vehicles reflect, on both axes
            assert (moved.heading != start.heading).mean() > 0.2

    def test_a_campaign_checks_only_its_placement(self, monkeypatch):
        checked = []
        init = NetworkSnapshot.__init__
        monkeypatch.setattr(NetworkSnapshot, "__init__",
                            lambda snap, *columns: checked.append(columns) or init(snap, *columns))
        config = small_config(duration=30.0, flows=20, time_step=0.4, beacon_interval=1.7)
        assert run_campaign(config, PROTOCOLS) == run_campaign(config, PROTOCOLS)
        assert len(checked) == 2  # one placement per run

    def test_a_move_inherits_no_cached_state(self):
        width, height = 1000.0, 800.0
        start = generate_nodes(SimConfig(field_width=width, field_height=height,
                                         node_count=500, seed=8))
        start._trig  # cached on the start, as a campaign's first move does
        start._index = object()  # stands for any other state cached on it
        assert {"_trig", "_index"} <= set(vars(start))
        for moved in (step_mobility(start, 7.5, width, height),
                      step_mobility(start, 0.5, width, height),
                      beacon_view(start, 1.7, 1.0, width, height)):
            assert set(vars(moved)) == {"transmission_range", "x", "y", "speed", "heading"}
            cos, sin = moved._trig
            TestMotionBits.assert_same_bits(cos, np.cos(moved.heading))
            TestMotionBits.assert_same_bits(sin, np.sin(moved.heading))

    def test_public_moves_keep_their_checks(self):
        snap = make_snapshot([(10, 10)], 100, speeds={0: 1e300}, headings={0: 0.5})
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(ValueError, match="finite"):
                step_mobility(snap, 1e10, 100, 100)
            with pytest.raises(ValueError, match="finite"):
                beacon_view(snap, 1e10 - 1.0, 1e10, 100, 100)


class TestBeaconView:
    def test_exact_tick_equals_ground_truth(self):
        snap = make_snapshot([(100, 50)], 100, speeds={0: 10.0})
        view = beacon_view(snap, 3.0, 1.0, 1000, 1000)
        assert position(view, 0) == Position(100, 50)

    def test_stationary_nodes_never_lag(self):
        snap = make_snapshot([(100, 50)], 100, headings={0: 1.2})
        assert position(beacon_view(snap, 3.43, 1.0, 1000, 1000), 0) == Position(100, 50)

    def test_mid_interval_lag(self):
        # Vehicle moving +x at 10 m/s, observed 0.7 s after the last beacon:
        # the view trails by 7 m.
        snap = make_snapshot([(100, 50)], 100, speeds={0: 10.0})
        view = beacon_view(snap, 1.7, 1.0, 1000, 1000)
        assert view.x[0] == pytest.approx(93.0, abs=1e-9)
        assert view.y[0] == pytest.approx(50.0)

    def test_tick_before_a_reflection_is_inside_the_field(self):
        # Heading +x at 10 m/s from x=993 at the 1.0 s tick, the vehicle hits
        # x=1000 at 1.7 s and is back at x=998, heading -x, at 1.9 s.
        snap = make_snapshot([(993, 50)], 100, speeds={0: 10.0})
        moved = step_mobility(snap, 0.9, 1000, 1000)
        assert moved.x[0] == pytest.approx(998.0)
        view = beacon_view(moved, 1.9, 1.0, 1000, 1000)
        assert view.x[0] == pytest.approx(993.0, abs=1e-9)
        assert view.y[0] == pytest.approx(50.0)

    def test_positions_stay_inside_the_field_after_reflections(self):
        config = small_config(node_count=300, speed_min=20.0, speed_max=40.0)
        snap = generate_nodes(config)
        for step in range(1, 40):
            snap = step_mobility(snap, 0.5, config.field_width, config.field_height)
            view = beacon_view(snap, step * 0.5, 1.0, config.field_width, config.field_height)
            for x, y in zip(view.x, view.y):
                assert 0.0 <= x <= config.field_width
                assert 0.0 <= y <= config.field_height

    def test_rejects_bad_interval(self):
        snap = make_snapshot([(0, 0)], 100)
        with pytest.raises(ValueError):
            beacon_view(snap, 1.0, 0.0, 1000, 1000)

    @pytest.mark.parametrize(
        "args, name",
        [
            ((math.inf, 1.0, 1000.0, 1000.0), "sim_time"),  # OverflowError from floor before
            ((-math.inf, 1.0, 1000.0, 1000.0), "sim_time"),
            ((math.nan, 1.0, 1000.0, 1000.0), "sim_time"),  # "cannot convert float NaN"
            ((1.5, math.inf, 1000.0, 1000.0), "beacon_interval"),
            ((1.5, math.nan, 1000.0, 1000.0), "beacon_interval"),
            ((1.5, 1.0, -5.0, 1000.0), "field_width"),
            ((1.5, 1.0, 0.0, 1000.0), "field_width"),
            ((1.5, 1.0, math.nan, 1000.0), "field_width"),
            ((1.0, 1.0, math.inf, 1000.0), "field_width"),  # checked without a lag too
            ((1.5, 1.0, 1000.0, 0.0), "field_height"),
            ((1.5, 1.0, 1000.0, -math.inf), "field_height"),
        ],
    )
    def test_rejects_bad_arguments_naming_them(self, args, name):
        snap = make_snapshot([(0.5, 0.5)], 100, headings={0: math.pi}, speeds={0: 30.0})
        with pytest.raises(ValueError, match=f"^{name} must be finite"):
            beacon_view(snap, *args)


class TestRunCampaign:
    def test_no_flows(self):
        metrics = run_campaign(small_config(flows=0))[0]
        assert metrics.sent == 0
        assert metrics.delivered == 0
        assert metrics.pdr is None
        assert metrics.mean_hop_count is None

    def test_adjacent_pair_all_protocols(self):
        for protocol in ("dir", "lar", "dlar"):
            config = small_config(
                field_width=100.0,
                field_height=100.0,
                node_count=2,
                tx_range=250.0,
                flows=10,
                duration=1.0,
                protocol=protocol,
            )
            metrics = run_campaign(config)[0]
            assert metrics.sent == 10
            assert metrics.pdr == 1.0
            assert metrics.mean_hop_count == 1.0
            assert metrics.mean_delay_ms == pytest.approx(2.0)

    def test_conservation(self):
        for seed in range(8):
            metrics = run_campaign(small_config(seed=seed, flows=25, protocol="dlar"))[0]
            assert metrics.delivered + sum(metrics.drop_breakdown.values()) == metrics.sent

    def test_deterministic_metrics(self):
        config = small_config(seed=123, flows=30)
        a = run_campaign(config)[0]
        b = run_campaign(config)[0]
        assert a == b
        assert metrics_row(config, a) == metrics_row(config, b)

    def test_beacon_tick_does_not_round_past_now(self):
        # Flow 21 fires at 21 * 0.3 = 6.3 s, where floor(6.3 / 2.1) * 2.1 is
        # 6.300000000000001.
        config = SimConfig(time_step=0.3, beacon_interval=2.1, duration=6.6, flows=22, node_count=50)
        assert run_campaign(config)[0].sent == 22

    @pytest.mark.parametrize("protocol", ["dir", "lar", "dlar"])
    def test_builds_vehicle_objects_per_hop_not_per_vehicle(self, monkeypatch, protocol):
        # The only per-vehicle object left is a Position.  Routing works on
        # snapshot rows and builds one only for the few points of a hop
        # (forwarder, destination, zone corners, near-tied candidates), never
        # one per vehicle of a snapshot: at most 8 for each vehicle on a
        # realized path, against 2000 vehicles per snapshot.
        built, results = [], []
        post_init = Position.__post_init__
        monkeypatch.setattr(Position, "__post_init__", lambda p: built.append(p) or post_init(p))
        # LAR routes each flow alone; DIR and D-LAR route a window of flows in lockstep.
        route, route_lockstep = netsim.route, netsim.route_lockstep

        def lockstep(requests):
            results.extend(routed := route_lockstep(requests))
            return routed

        monkeypatch.setattr(netsim, "route", lambda *a, **k: results.append(route(*a, **k)) or results[-1])
        monkeypatch.setattr(netsim, "route_lockstep", lockstep)
        config = small_config(
            field_width=2000.0, field_height=2000.0, node_count=2000, tx_range=250.0,
            duration=10.0, flows=20, protocol=protocol,
        )
        assert run_campaign(config)[0].sent == len(results) == 20
        assert 0 < len(built) <= 8 * sum(len(r.path) for r in results)

    @pytest.mark.parametrize(
        "overrides",
        [
            dict(beacon_interval=1.7, time_step=0.4, duration=10.0, flows=30),
            dict(field_width=2000.0, field_height=2000.0, node_count=800, tx_range=250.0,
                 flows=30, ttl=5),
            dict(node_count=1),
            dict(flows=0),
        ],
        ids=["lagging-beacons", "ttl5-800", "one-vehicle", "no-flows"],
    )
    def test_one_walk_equals_a_campaign_per_protocol(self, overrides):
        cell = small_config(**overrides)
        expected = [run_campaign(replace(cell, protocol=p))[0] for p in PROTOCOLS]
        assert run_campaign(cell, PROTOCOLS) == expected

    @pytest.mark.parametrize(
        "overrides, protocols, check",
        [
            (dict(beacon_interval=1.7, time_step=0.4, duration=10.0, flows=30), PROTOCOLS,
             lambda ms: all(m.delivered for m in ms)),
            *[(dict(field_width=2000.0, field_height=2000.0, node_count=800, tx_range=250.0,
                    flows=30, ttl=ttl), PROTOCOLS,
               lambda ms: all(m.drop_breakdown["ttl_drop"] for m in ms)) for ttl in range(1, 6)],
            (dict(node_count=1), PROTOCOLS, lambda ms: all(m.sent == 0 for m in ms)),
            (dict(field_width=2000.0, field_height=2000.0, node_count=2, tx_range=10.0),
             PROTOCOLS,
             lambda ms: all(m.sent and m.pdr == 0.0 and m.mean_hop_count is m.mean_delay_ms is None
                            for m in ms)),
            (dict(beacon_interval=1.7, time_step=0.4, duration=10.0, flows=30),
             ("dir", "dir", "lar"), lambda ms: ms[0] == ms[1] and ms[2].sent == 30),
        ],
        ids=["lagging-beacons", *(f"ttl{ttl}-800" for ttl in range(1, 6)), "one-vehicle",
             "sparse-none-delivered", "repeated-protocol"],
    )
    def test_the_fold_is_the_reduction_of_every_result(self, monkeypatch, overrides, protocols,
                                                       check):
        # Every result routed is recorded, in order: a window's DIR and D-LAR
        # results come from its one lockstep call, protocol by protocol, and its
        # LAR results from one route call per flow.  Reducing each protocol
        # entry's results as lists gives the campaign's tallied metrics.
        sizes, greedy, lar = [], [], []
        windows, route, route_lockstep = netsim._windows, netsim.route, netsim.route_lockstep

        def lockstep(requests):
            greedy.extend(routed := route_lockstep(requests))
            return routed

        monkeypatch.setattr(netsim, "_windows",
                            lambda *a: (sizes.append(len(w)) or w for w in windows(*a)))
        monkeypatch.setattr(netsim, "route", lambda *a, **k: lar.append(route(*a, **k)) or lar[-1])
        monkeypatch.setattr(netsim, "route_lockstep", lockstep)
        config = small_config(**overrides)
        metrics = run_campaign(config, protocols)
        greedy, lar, routed = iter(greedy), iter(lar), [[] for _ in protocols]
        for size in sizes:
            for protocol, results in zip(protocols, routed):
                results.extend(next(lar if protocol == "lar" else greedy) for _ in range(size))
        assert list(greedy) == list(lar) == []

        def reduced(results):
            hops = [r.hop_count for r in results if r.outcome is Outcome.DELIVERED]
            mean_hops = sum(hops) / len(hops) if hops else None
            return CampaignMetrics(
                sent=len(results),
                delivered=len(hops),
                pdr=len(hops) / len(results) if results else None,
                mean_hop_count=mean_hops,
                mean_delay_ms=mean_hops * config.per_hop_latency_ms if hops else None,
                drop_breakdown={o.value: sum(r.outcome is o for r in results)
                                for o in Outcome if o is not Outcome.DELIVERED},
            )

        assert metrics == [reduced(results) for results in routed]
        assert check(metrics)

    def test_schedule_is_drawn_before_the_first_route(self, monkeypatch):
        # Every firing step and every endpoint draw exists before any flow is
        # routed (stream 2 is in its final state at each route call), and the
        # flows are routed in flow order, between the pairs the scalar draws
        # give.  Four vehicles make the destination bump past the source common.
        config = small_config(node_count=4, duration=10.0, flows=40, seed=11)
        steps, streams, routed, states = [], [], [], []
        firing_step, stream = netsim._firing_step, netsim._stream
        monkeypatch.setattr(netsim, "_firing_step",
                            lambda *a: steps.append(firing_step(*a)) or steps[-1])
        monkeypatch.setattr(netsim, "_stream", lambda *a: streams.append(stream(*a)) or streams[-1])
        route_lockstep = netsim.route_lockstep

        def recording_route(requests):
            for _, src, dst, _, now, *_ in requests:
                assert len(steps) == config.flows
                routed.append((src, dst, now))
                states.append(streams[-1].bit_generator.state)
            return route_lockstep(requests)

        monkeypatch.setattr(netsim, "route_lockstep", recording_route)
        run_campaign(config)
        rng, want = stream(config.seed, 2), []
        for step in steps:
            si, di = int(rng.integers(4)), int(rng.integers(3))
            want.append((si, di + (di >= si), step * config.time_step))
        assert routed == want
        assert states == [rng.bit_generator.state] * config.flows
        assert all(type(v) is int for src, dst, _ in routed for v in (src, dst))

    @pytest.mark.parametrize("rows", [1, 800, 5000, 2**15])
    def test_windows_are_the_longest_runs_under_the_row_cap(self, monkeypatch, rows):
        monkeypatch.setattr(netsim, "_WINDOW_ROWS", rows)
        rng = random.Random(rows)
        schedule = []
        for step in sorted(rng.randrange(0, 200) for _ in range(300)):
            t = step * 0.4
            schedule.append((0, 1, t, netsim._beacon_tick(t, 1.7)))
        windows = list(netsim._windows(schedule, 400))
        assert [flow for window in windows for flow in window] == schedule

        def held(flows):
            return 400 * len({t for flow in flows for t in flow[2:]})

        for window, after in zip(windows, windows[1:] + [[]]):
            assert len(window) == 1 or held(window) <= rows
            assert not after or held(window + after[:1]) > rows
        assert (len(windows) == len(schedule)) == (rows < 800)

    def test_memory_is_bounded_by_the_window(self, monkeypatch):
        # Ten times the flows over ten times the duration moves ten times as many
        # snapshots, but a campaign holds only one window of them at a time.
        def peak(flows, duration):
            config = small_config(field_width=2000.0, field_height=2000.0, node_count=800,
                                  tx_range=250.0, flows=flows, duration=duration)
            tracemalloc.start()
            try:
                run_campaign(config, PROTOCOLS)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        # The slack holds the placement, the routing's temporaries and the schedule.
        bound = 24 * netsim._WINDOW_ROWS + 1_500_000
        few, many = peak(60, 30.0), peak(600, 300.0)
        assert few <= bound
        assert many <= bound
        assert many - few <= 540 * 300  # a flow costs its schedule entry, not its results
        monkeypatch.setattr(netsim, "_WINDOW_ROWS", 2**40)  # one window holds every snapshot
        assert peak(200, 100.0) > 24 * 800 * 200 > bound

    def test_a_window_moves_only_after_the_last_one_is_freed(self, monkeypatch):
        # When a window's first snapshot is built, the snapshots of earlier
        # windows at times this window does not hold are already freed, so a
        # campaign never holds two windows of snapshots at once.
        held, built, dropped = [], [], []
        windows, step = netsim._windows, netsim.step_mobility

        def recording_windows(*args):
            for window in windows(*args):
                held.append({t for flow in window for t in flow[2:]})
                yield window

        def recording_step(start, t, *field):
            old = [ref for time, ref in built if time not in held[-1]]
            assert [ref for ref in old if ref() is not None] == [], len(held)
            dropped.append(len(old))
            built.append((t, weakref.ref(moved := step(start, t, *field))))
            return moved

        monkeypatch.setattr(netsim, "_windows", recording_windows)
        monkeypatch.setattr(netsim, "step_mobility", recording_step)
        config = small_config(field_width=2000.0, field_height=2000.0, node_count=800,
                              tx_range=250.0, flows=200, duration=100.0)
        run_campaign(config, PROTOCOLS)
        assert len(held) > 5 and dropped[-1] > 100  # many windows, each checked at its moves

    def test_unknown_protocol_rejected_before_placement(self, monkeypatch):
        monkeypatch.setattr(netsim, "generate_nodes", lambda *a: pytest.fail("nodes drawn"))
        with pytest.raises(ValueError, match="aodv"):
            run_campaign(small_config(), ("dir", "aodv"))

    def test_single_vehicle_sends_nothing(self):
        metrics = run_campaign(small_config(node_count=1, flows=5))[0]
        assert metrics.sent == 0

    def test_config_validation_runs_before_work(self):
        with pytest.raises(ValueError, match="tx_range"):
            run_campaign(small_config(tx_range=-1.0))
        with pytest.raises(ValueError, match="time_step"):
            run_campaign(small_config(time_step=3.0, beacon_interval=1.0))
        with pytest.raises(ValueError, match="speed_min"):
            run_campaign(small_config(speed_min=9.0, speed_max=5.0))
        with pytest.raises(ValueError, match="protocol"):
            run_campaign(small_config(protocol="aodv"))


class TestDrawReference:
    """Placement and endpoints equal ``oracles.RawStream``'s pure-Python draws
    from PCG64's raw outputs, so a change to NumPy's transforms shows here."""

    def test_the_reference_is_the_generator(self):
        rng = random.Random(5)
        for seed in range(3):
            ref, gen = oracles.RawStream(seed, 2), netsim._stream(seed, 2)
            for _ in range(3000):
                if rng.random() < 0.3:
                    low, high = rng.uniform(-10.0, 10.0), rng.uniform(10.0, 1e4)
                    assert ref.uniform(low, high) == gen.uniform(low, high)
                else:
                    n = rng.choice([1, 2, 3, 800, 10**6, 3 * 2**30, 2**32])
                    assert ref.integers(n) == gen.integers(n)

    @pytest.mark.parametrize("seed", range(6))
    def test_generate_nodes_is_the_reference(self, seed):
        config = small_config(seed=seed, node_count=300, speed_min=3.0, speed_max=30.0)
        snapshot = generate_nodes(config)
        placement, motion = oracles.RawStream(seed, 0), oracles.RawStream(seed, 1)

        def draws(stream, low, high):
            return [stream.uniform(low, high) for _ in range(300)]

        assert snapshot.x.tolist() == draws(placement, 0.0, config.field_width)
        assert snapshot.y.tolist() == draws(placement, 0.0, config.field_height)
        headings = draws(motion, -math.pi, math.pi)
        assert snapshot.speed.tolist() == draws(motion, config.speed_min, config.speed_max)
        assert snapshot.heading.tolist() == [wrap_angle(h) for h in headings]

    @pytest.mark.parametrize("n", [2, 3, 800, 8_000, 1_000_000])
    def test_endpoint_pairs_are_the_reference(self, monkeypatch, n):
        # Only the field's length is read before the windows, which are not routed.
        schedules = []
        monkeypatch.setattr(netsim, "generate_nodes", lambda config: range(n))
        monkeypatch.setattr(netsim, "_windows", lambda flows, n: schedules.append(flows) or ())
        for seed in range(40):
            run_campaign(small_config(seed=seed, flows=50))
            ref, want = oracles.RawStream(seed, 2), []
            for _ in range(50):
                si, di = ref.integers(n), ref.integers(n - 1)
                want.append((si, di + (di >= si)))
            assert [flow[:2] for flow in schedules[-1]] == want


class TestMetricsRow:
    def test_schema_and_formatting(self):
        config = small_config(protocol="dlar", seed=4)
        metrics = CampaignMetrics(
            sent=10,
            delivered=7,
            pdr=0.7,
            mean_hop_count=2.5,
            mean_delay_ms=5.0,
            drop_breakdown={"void_drop": 2, "ttl_drop": 1, "loop_drop": 0, "zone_unreachable": 0},
        )
        row = metrics_row(config, metrics)
        assert len(row) == len(METRICS_HEADER)
        assert row[0] == "dlar"
        assert row[1] == "0.000200"
        assert row[6] == "0.700000"
        assert row[9:] == ["2", "1", "0", "0"]

    def test_null_rates_print_empty(self):
        config = small_config()
        metrics = CampaignMetrics(0, 0, None, None, None,
                                  {"void_drop": 0, "ttl_drop": 0, "loop_drop": 0, "zone_unreachable": 0})
        row = metrics_row(config, metrics)
        assert row[6] == "" and row[7] == "" and row[8] == ""
