"""Acceptance suite: one test per release criterion, each printing a PASS/FAIL
line (run with ``pytest -s tests/test_acceptance.py`` to see them live)."""

import math
import random
import time
from contextlib import contextmanager
from dataclasses import replace

import numpy as np
import pytest

import oracles
from geo_route_sim.cli import main
from geo_route_sim.feasibility import (
    FeasibilityParams,
    RegionKind,
    mean_node_count,
    monte_carlo_at_least_k,
    poisson_pmf,
    prob_at_least_k,
)
from geo_route_sim.geometry import Position
from geo_route_sim.netsim import SimConfig, run_campaign
from geo_route_sim.routing import (
    DEFAULT_TTL,
    Outcome,
    dir_next_hop,
    dlar_next_hop,
    lar_route_discovery,
    route,
)
from geo_route_sim.zones import expected_zone
from oracles import make_snapshot, position


@contextmanager
def criterion(number: int, label: str):
    try:
        yield
    except BaseException:
        print(f"[acceptance] criterion {number} ({label}): FAIL")
        raise
    print(f"[acceptance] criterion {number} ({label}): PASS")


def region_params(mean: float, region: RegionKind, k: int) -> FeasibilityParams:
    full_mean = mean if region is RegionKind.FULL_CIRCLE else 4.0 * mean
    return FeasibilityParams(full_mean / (math.pi * 250.0**2), 250.0, k)


def test_criterion_1_analytic_vs_point_process_oracle():
    with criterion(1, "Eq-level tail probabilities vs Monte Carlo oracle"):
        trials = 100_000
        means = [0.5, 1.0, 5.0, 9.8175, 20.0]
        ks = range(0, 16)
        cells = [(m, region, k) for m in means for region in RegionKind for k in ks]
        seeds = np.random.SeedSequence(20260810).generate_state(len(cells))
        started = time.perf_counter()
        for seed, (mean, region, k) in zip(seeds, cells):
            params = region_params(mean, region, k)
            assert mean_node_count(params, region) == pytest.approx(mean, rel=1e-12)
            analytic = prob_at_least_k(k, mean)
            estimate, _ = monte_carlo_at_least_k(params, region, trials, int(seed))
            # standard error under the null probability; the plug-in SE is 0
            # whenever the estimate is exactly 0 or 1
            se = math.sqrt(analytic * (1.0 - analytic) / trials)
            assert abs(estimate - analytic) <= 4.0 * se, (
                f"mean={mean} region={region.value} k={k}: "
                f"analytic={analytic} estimate={estimate} tol={4 * se}"
            )
        elapsed = time.perf_counter() - started
        assert elapsed < 30.0, f"grid took {elapsed:.1f}s"


def test_criterion_2_closed_forms():
    with criterion(2, "closed forms and normalization"):
        for mean in (0.5, 2.0, 10.0):
            expected = 1.0 - math.exp(-mean)
            got = prob_at_least_k(1, mean)
            assert abs(got - expected) <= 1e-12 * expected
        for mean in (0.1, 1.0, 10.0, 100.0):
            n_star = int(mean + 20.0 * math.sqrt(mean) + 50.0)
            total = math.fsum(poisson_pmf(n, mean) for n in range(n_star + 1))
            assert abs(total - 1.0) <= 1e-9


def test_criterion_3_curve_tables(tmp_path):
    with criterion(3, "feasibility curve shape and density dominance"):
        out = tmp_path / "curves.csv"
        assert main(["analyze", "densities=0.0002,0.0004", "tx_range=250", str("--out"), str(out)]) == 0
        rows = [line.split(",") for line in out.read_text().splitlines()[1:]]
        curves: dict[tuple[str, str], list[float]] = {}
        for density, k, region, prob in rows:
            curves.setdefault((density, region), []).append(float(prob))
        assert len(curves) == 4 and all(len(c) == 10 for c in curves.values())
        for curve in curves.values():
            assert all(a >= b for a, b in zip(curve, curve[1:])), "curve must not rise with k"
        for region in ("full_circle", "quarter_circle"):
            sparse = curves[("0.0002", region)]
            dense = curves[("0.0004", region)]
            assert all(d >= s for d, s in zip(dense, sparse)), "denser field must dominate"
        # small-k probabilities are high, matching the feasibility claim
        assert curves[("0.0002", "quarter_circle")][0] > 0.99


def test_criterion_4_greedy_selection_matches_exhaustive_argmin():
    with criterion(4, "DIR/D-LAR equal brute-force argmin on 1000 snapshots"):
        rng = random.Random(46_000)
        mismatches = 0
        for _ in range(1000):
            snap = oracles.random_snapshot(
                rng, n=rng.randint(2, 200), tx=rng.uniform(60, 320)
            )
            ids = range(len(snap))
            current = rng.choice(ids)
            target = Position(rng.uniform(0, 1000), rng.uniform(0, 1000))
            if target == position(snap, current):
                continue
            others = [i for i in ids if i != current]
            visited = [current] + rng.sample(others, min(len(others), rng.randint(0, 3)))

            got = dir_next_hop(current, target, snap, visited)
            mismatches += got != oracles.dir_oracle(snap, current, target.x, target.y, visited)

            dest_speed = rng.uniform(0, 25)
            ez = expected_zone(target, dest_speed, 0.0, rng.uniform(0, 8))
            got = dlar_next_hop(current, ez, snap, visited)
            mismatches += got != oracles.dlar_oracle(snap, current, ez, visited)
        assert mismatches == 0


def test_criterion_5_lar_discovery_equals_zone_bfs():
    with criterion(5, "LAR discovery equals BFS on the zone-induced subgraph"):
        rng = random.Random(55_000)
        mismatches = 0
        for _ in range(500):
            snap = oracles.random_snapshot(rng, n=100, tx=rng.uniform(80, 220))
            src, dst = rng.sample(range(len(snap)), 2)
            dest_speed = rng.uniform(0, 25)
            now = rng.uniform(0, 10)
            last = position(snap, dst)
            ez = expected_zone(last, dest_speed, 0.0, now)
            result = lar_route_discovery(src, dst, snap, ez, DEFAULT_TTL)
            delivered, hops = oracles.lar_bfs_oracle(
                snap, src, dst, last.x, last.y, dest_speed * now
            )
            if (result.outcome is Outcome.DELIVERED) != delivered:
                mismatches += 1
            elif delivered and result.hop_count != hops:
                mismatches += 1
        assert mismatches == 0

        # An out-of-zone relay discards the request even when it is the only
        # physical path, so discovery reports zone_unreachable.
        snap = make_snapshot([(0, 0), (350, 300), (400, 100)], 450.0)
        fixture = expected_zone(Position(300, 300), 5.0, 0.0, 10.0)
        result = lar_route_discovery(0, 1, snap, fixture, DEFAULT_TTL)
        assert result.outcome is Outcome.ZONE_UNREACHABLE
        assert route("dir", 0, 1, snap).outcome is Outcome.DELIVERED


def test_criterion_6_canonical_topology_fixtures():
    with criterion(6, "hand-built topologies select the expected forwarding chains"):
        # Fan of five neighbors at 5/20/40/70/110 degrees off the line to the
        # destination: the 5-degree node is the compass choice.
        offsets = [5.0, -20.0, 40.0, -70.0, 110.0]
        fan = [(0, 0)] + [
            (80 * math.cos(math.radians(a)), 80 * math.sin(math.radians(a))) for a in offsets
        ]
        snap = make_snapshot(fan, 100.0)
        assert dir_next_hop(0, Position(1000, 0), snap) == 1

        # Relay chain: each forwarder picks the minimum-angle zone member and
        # the last relay hands the packet straight to the destination.
        chain = make_snapshot(
            [(0, 0), (90, 12), (180, -10), (270, 8), (360, 0)], 100.0, speeds={4: 2.0}
        )
        result = route("dlar", 0, 4, chain, now=10.0, known_time=0.0)
        assert result.outcome is Outcome.DELIVERED
        assert result.path == (0, 1, 2, 3, 4)
        assert result.hop_count == 4


def trend_config(density: float, seed: int) -> SimConfig:
    return SimConfig(
        field_width=600.0,
        field_height=600.0,
        density=density,
        tx_range=100.0,
        duration=2.0,
        time_step=1.0,
        beacon_interval=1.0,
        flows=20,
        protocol="dlar",
        seed=seed,
    )


def test_criterion_7_delivery_rises_with_density():
    with criterion(7, "D-LAR PDR non-decreasing across a density sweep"):
        started = time.perf_counter()
        mean_neighbor_targets = [1.0, 3.0, 7.0, 12.0, 20.0]
        densities = [m / (math.pi * 100.0**2) for m in mean_neighbor_targets]
        mean_pdr = []
        for density in densities:
            values = []
            for seed in range(30):
                metrics = run_campaign(trend_config(density, seed))[0]
                if metrics.pdr is not None:
                    values.append(metrics.pdr)
            mean_pdr.append(sum(values) / len(values))
        inversions = sum(1 for a, b in zip(mean_pdr, mean_pdr[1:]) if b < a)
        elapsed = time.perf_counter() - started
        assert inversions <= 1, f"pdr sweep {mean_pdr} has {inversions} inversions"
        assert mean_pdr[-1] > mean_pdr[0], f"no density gain: {mean_pdr}"
        assert elapsed < 120.0, f"sweep took {elapsed:.1f}s"


def test_criterion_8_csv_determinism(tmp_path):
    with criterion(8, "simulate/compare emit byte-identical CSV per seed"):
        sim_args = ["simulate", "--seed", "33", "flows=12", "duration=2", "density=0.0002"]
        cmp_args = ["compare", "--seed", "34", "flows=8", "duration=2", "density=0.0002"]
        for args, name in ((sim_args, "sim"), (cmp_args, "cmp")):
            first = tmp_path / f"{name}_a.csv"
            second = tmp_path / f"{name}_b.csv"
            assert main(args + ["--out", str(first)]) == 0
            assert main(args + ["--out", str(second)]) == 0
            assert first.read_bytes() == second.read_bytes()
            assert first.read_bytes().count(b"\n") >= 2


def test_criterion_9_flooding_dominates_in_dense_regime():
    with criterion(9, "LAR PDR >= D-LAR PDR per dense compare cell"):
        density = 20.0 / (math.pi * 100.0**2)  # about twenty mean neighbors
        base = SimConfig(
            field_width=600.0,
            field_height=600.0,
            density=density,
            tx_range=100.0,
            duration=2.0,
            time_step=0.2,
            beacon_interval=0.2,
            flows=20,
        )
        for seed in range(30):
            cell = replace(base, seed=seed)
            pdr = {
                protocol: run_campaign(replace(cell, protocol=protocol))[0].pdr
                for protocol in ("lar", "dlar")
            }
            assert pdr["lar"] is not None and pdr["dlar"] is not None
            assert pdr["lar"] >= pdr["dlar"], f"seed {seed}: {pdr}"

        # Sampled decisions: the zone-and-heading filter can only shrink the
        # compass candidate set.
        rng = random.Random(99_000)
        for _ in range(300):
            snap = oracles.random_snapshot(rng)
            src, dst = rng.sample(range(len(snap)), 2)
            dest_speed = rng.uniform(0, 20)
            ez = expected_zone(position(snap, dst), dest_speed, 0.0, rng.uniform(0, 5))
            assert oracles.dlar_candidates(snap, src, ez, [src]) <= oracles.dir_candidates(
                snap, src, [src]
            )
