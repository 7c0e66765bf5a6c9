"""The paper's feasibility model as an oracle of the routing code.

A source at the origin of a Poisson field, whose destination's zero-lag
expected zone lies beyond its range to the north-east on both axes, anchors
a request zone that covers its closed north-east quadrant.  By Slivnyak-Mecke
(Haenggi, *Stochastic Geometry for Wireless Networks*, CUP 2012, ch. 8) the
other vehicles still form the Poisson process, so the source's in-zone
neighbours number Poisson(density * pi * R**2 / 4), the quarter-disk count
whose tails ``analyze`` prints.  A zone-corner or boundary-inclusivity fault
in the routing code shows here as a disagreement with that equation.
"""

import math

import numpy as np

from geo_route_sim.feasibility import (
    FeasibilityParams,
    RegionKind,
    mean_node_count,
    prob_at_least_k,
)
from geo_route_sim.geometry import Position
from geo_route_sim.routing import NetworkSnapshot, dlar_next_hop, neighbors
from geo_route_sim.zones import ExpectedZone, in_request_zone, request_zone

R = 250.0
FIELDS = 4000
ZONE = ExpectedZone(Position(2 * R, 2 * R), 0.0)  # zero lag, beyond R on both axes
# One side of a normal distribution beyond 5 standard deviations.
FIVE_SIGMA_SIDE = math.erfc(5.0 / math.sqrt(2.0)) / 2


def poisson_fields(density: float, seed: int):
    """``FIELDS`` snapshots: a source (id 0) at the origin plus
    Poisson(density * (2R)**2) uniform points in [-R, R]**2, each vehicle
    with a uniform heading."""
    rng = np.random.default_rng(seed)
    for count in rng.poisson(density * (2 * R) ** 2, size=FIELDS).tolist():
        x = np.concatenate([[0.0], rng.uniform(-R, R, count)])
        y = np.concatenate([[0.0], rng.uniform(-R, R, count)])
        heading = rng.uniform(-math.pi, math.pi, count + 1)
        yield NetworkSnapshot(R, x, y, np.zeros(count + 1), heading)


def in_zone_neighbours(snap: NetworkSnapshot) -> int:
    ids = np.array(neighbors(0, snap), dtype=np.intp)
    zone = request_zone(Position(0.0, 0.0), ZONE)
    return int(in_request_zone(snap.x[ids], snap.y[ids], zone).sum())


def within_five_sigma(hits: int, trials: int, p: float) -> bool:
    """Whether ``hits`` of ``trials`` is no rarer under Binomial(trials, p)
    than a normal deviation of 5 sigma on its side of the mean.  The tail is
    summed exactly, outward from ``hits``, so the rule stays right for a few
    rare events, where ``|est - p| <= 5 se`` does not."""
    if p <= 0.0 or p >= 1.0:
        return hits == trials * p
    step = 1 if hits >= trials * p else -1
    total, x = 0.0, hits
    while 0 <= x <= trials:
        term = math.exp(math.lgamma(trials + 1) - math.lgamma(x + 1) - math.lgamma(trials - x + 1)
                        + x * math.log(p) + (trials - x) * math.log1p(-p))
        total += term
        if term <= 1e-17 * total:
            break
        x += step
    return total >= FIVE_SIGMA_SIDE


def test_in_zone_neighbour_counts_follow_the_quarter_disk_tails():
    density = 0.0002
    mean = mean_node_count(FeasibilityParams(density, R), RegionKind.QUARTER_CIRCLE)
    assert math.isclose(mean, density * math.pi * R**2 / 4)
    counts = np.array([in_zone_neighbours(snap) for snap in poisson_fields(density, 2012)])
    assert abs(counts.mean() - mean) <= 5 * math.sqrt(mean / FIELDS)
    for k in range(26):
        hits = int((counts >= k).sum())
        p = prob_at_least_k(k, mean)
        assert within_five_sigma(hits, FIELDS, p), f"k={k}: {hits}/{FIELDS} against {p}"


def test_dlar_first_hop_voids_as_often_as_the_quarter_disk_is_empty():
    density = 0.00002
    mean = mean_node_count(FeasibilityParams(density, R), RegionKind.QUARTER_CIRCLE)
    voids = 0
    for snap in poisson_fields(density, 8):
        void = dlar_next_hop(0, ZONE, snap) is None
        assert void == (in_zone_neighbours(snap) == 0)
        voids += void
    p = 1 - prob_at_least_k(1, mean)
    assert within_five_sigma(voids, FIELDS, p), f"{voids}/{FIELDS} voids against {p}"
