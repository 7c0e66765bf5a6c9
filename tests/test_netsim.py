import math
import random
from dataclasses import replace

import pytest

import geo_route_sim.netsim as netsim
import oracles
from geo_route_sim.geometry import Position
from geo_route_sim.netsim import (
    CampaignMetrics,
    METRICS_HEADER,
    SimConfig,
    _firing_step,
    beacon_view,
    generate_nodes,
    metrics_row,
    run_campaign,
    snapshot_digest,
    step_mobility,
)
from geo_route_sim.routing import NetworkSnapshot
from oracles import make_snapshot, position


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
        assert snap.ids.tolist() == [0]

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
        ids, speeds = snap.ids.tolist(), snap.speed.tolist()
        for _ in range(30):
            snap = step_mobility(snap, 7.0, config.field_width, config.field_height)
            assert len(snap) == 150
            assert snap.ids.tolist() == ids
            assert snap.speed.tolist() == speeds
            for x, y in zip(snap.x, snap.y):
                assert 0.0 <= x <= config.field_width
                assert 0.0 <= y <= config.field_height

    def test_rejects_non_positive_dt(self):
        snap = make_snapshot([(0, 0)], 100)
        with pytest.raises(ValueError):
            step_mobility(snap, 0.0, 100, 100)


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
    return NetworkSnapshot(100, list(range(len(movers))), x, y, speed, heading)


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
        ],
    )
    def test_matches_walking_the_grid(self, duration, flows, time_step):
        steps = [_firing_step(i * duration / flows, time_step) for i in range(flows)]
        assert steps == oracles.firing_steps_by_stepping(duration, flows, time_step)

    def test_moves_only_when_a_flow_fires(self, monkeypatch):
        calls = []
        real = netsim.step_mobility
        monkeypatch.setattr(
            netsim, "step_mobility", lambda snap, dt, *a: calls.append(dt) or real(snap, dt, *a)
        )
        run_campaign(small_config(duration=60.0, flows=6))
        assert calls == [10.0, 20.0, 30.0, 40.0, 50.0]


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


class TestRunCampaign:
    def test_no_flows(self):
        metrics = run_campaign(small_config(flows=0))
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
            metrics = run_campaign(config)
            assert metrics.sent == 10
            assert metrics.pdr == 1.0
            assert metrics.mean_hop_count == 1.0
            assert metrics.mean_delay_ms == pytest.approx(2.0)

    def test_conservation(self):
        for seed in range(8):
            metrics = run_campaign(small_config(seed=seed, flows=25, protocol="dlar"))
            assert metrics.delivered + sum(metrics.drop_breakdown.values()) == metrics.sent

    def test_deterministic_metrics(self):
        config = small_config(seed=123, flows=30)
        a = run_campaign(config)
        b = run_campaign(config)
        assert a == b
        assert metrics_row(config, a) == metrics_row(config, b)

    def test_beacon_tick_does_not_round_past_now(self):
        # Flow 21 fires at 21 * 0.3 = 6.3 s, where floor(6.3 / 2.1) * 2.1 is
        # 6.300000000000001.
        config = SimConfig(time_step=0.3, beacon_interval=2.1, duration=6.6, flows=22, node_count=50)
        assert run_campaign(config).sent == 22

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
        route = netsim.route
        monkeypatch.setattr(netsim, "route", lambda *a, **k: results.append(route(*a, **k)) or results[-1])
        config = small_config(
            field_width=2000.0, field_height=2000.0, node_count=2000, tx_range=250.0,
            duration=10.0, flows=20, protocol=protocol,
        )
        assert run_campaign(config).sent == len(results) == 20
        assert 0 < len(built) <= 8 * sum(len(r.path) for r in results)

    def test_single_vehicle_sends_nothing(self):
        metrics = run_campaign(small_config(node_count=1, flows=5))
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
