"""Deterministic campaign engine.

Generates Poisson fields of vehicles, moves them in straight lines with
boundary reflection, serves routing decisions a beacon-lagged view of the
world, and aggregates per-seed delivery metrics.  Every random draw descends
from the campaign seed through purpose-split streams (placement, motion,
flows), so replays are byte-identical and adding flows never perturbs node
placement.
"""

import hashlib
import logging
import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .geometry import wrap_angle
from .routing import (
    DEFAULT_TTL,
    DROP_OUTCOMES,
    NetworkSnapshot,
    Outcome,
    PROTOCOLS,
    RouteResult,
    route,
)

logger = logging.getLogger(__name__)

# Largest campaign accepted, in vehicles; each takes 40 B per snapshot.
MAX_NODES = 1_000_000
# Most flows per campaign: 100,000 D-LAR flows between two vehicles take ~9 s.
MAX_FLOWS = 100_000

METRICS_HEADER = [
    "protocol",
    "density",
    "tx_range",
    "seed",
    "sent",
    "delivered",
    "pdr",
    "mean_hops",
    "mean_delay_ms",
    "void_drops",
    "ttl_drops",
    "loop_drops",
    "zone_unreachable",
]


@dataclass
class SimConfig:
    """Campaign parameters; every field has a usable default."""

    field_width: float = 1000.0
    field_height: float = 1000.0
    density: float = 0.0002  # nodes per square meter
    node_count: Optional[int] = None  # overrides the Poisson draw when set
    tx_range: float = 250.0
    speed_min: float = 5.0
    speed_max: float = 20.0
    beacon_interval: float = 1.0
    duration: float = 30.0
    time_step: float = 0.5
    protocol: str = "dlar"
    flows: int = 50
    seed: int = 1
    ttl: int = DEFAULT_TTL
    per_hop_latency_ms: float = 2.0

    def validate(self) -> None:
        for name in (
            "field_width",
            "field_height",
            "density",
            "tx_range",
            "speed_min",
            "speed_max",
            "beacon_interval",
            "duration",
            "time_step",
            "per_hop_latency_ms",
        ):
            value = getattr(self, name)
            if not 0 < value < math.inf:
                raise ValueError(f"{name} must be finite and > 0, got {value!r}")
        if self.speed_min > self.speed_max:
            raise ValueError(
                f"speed_min must be <= speed_max, got {self.speed_min!r} > {self.speed_max!r}"
            )
        if self.time_step > self.beacon_interval:
            raise ValueError(
                f"time_step must be <= beacon_interval, got "
                f"{self.time_step!r} > {self.beacon_interval!r}"
            )
        if self.node_count is not None and not 1 <= self.node_count <= MAX_NODES:
            raise ValueError(f"node_count must be in [1, {MAX_NODES}], got {self.node_count!r}")
        expected = self.density * self.field_width * self.field_height
        if self.node_count is None and not expected <= MAX_NODES:
            raise ValueError(
                f"density * field_width * field_height must be <= {MAX_NODES} vehicles, "
                f"got {expected!r}"
            )
        # Motion unfolds a coordinate to field size + travel and folds it
        # mod twice the field size; grid step numbers stay exact below 2**53.
        travel = self.speed_max * (self.duration + self.time_step)
        if not 2.0 * (self.field_width + self.field_height + travel) < math.inf:
            raise ValueError(f"speed_max * (duration + time_step) overflows, got {travel!r} m")
        steps = self.duration / self.time_step
        if not steps < 2**53:
            raise ValueError(f"duration / time_step must be < 2**53, got {steps!r}")
        if self.protocol not in PROTOCOLS:
            raise ValueError(f"protocol must be one of {PROTOCOLS}, got {self.protocol!r}")
        if not 0 <= self.flows <= MAX_FLOWS:
            raise ValueError(f"flows must be in [0, {MAX_FLOWS}], got {self.flows!r}")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed!r}")
        if self.ttl <= 0:
            raise ValueError(f"ttl must be > 0, got {self.ttl!r}")


@dataclass(frozen=True)
class CampaignMetrics:
    """Aggregated results of one campaign; rate fields are None when sent = 0
    or nothing was delivered."""

    sent: int
    delivered: int
    pdr: Optional[float]
    mean_hop_count: Optional[float]
    mean_delay_ms: Optional[float]
    drop_breakdown: dict


def _rng_streams(seed: int):
    placement, motion, flows = np.random.SeedSequence(seed).spawn(3)
    return (
        np.random.default_rng(placement),
        np.random.default_rng(motion),
        np.random.default_rng(flows),
    )


def generate_nodes(config: SimConfig) -> NetworkSnapshot:
    """Draw a Poisson field of vehicles, fully determined by the seed.

    The node count is Poisson(density * area) unless ``node_count`` pins it;
    positions are i.i.d. uniform over the field, headings uniform in
    (-pi, pi], speeds uniform in [speed_min, speed_max].
    """
    config.validate()
    placement_rng, motion_rng, _ = _rng_streams(config.seed)
    area = config.field_width * config.field_height
    if config.node_count is not None:
        count = config.node_count
    else:
        count = int(placement_rng.poisson(config.density * area))
    xs = placement_rng.uniform(0.0, config.field_width, size=count)
    ys = placement_rng.uniform(0.0, config.field_height, size=count)
    headings = motion_rng.uniform(-math.pi, math.pi, size=count)
    speeds = motion_rng.uniform(config.speed_min, config.speed_max, size=count)
    # Headings are wrapped twice, the sequence seeded campaigns have always
    # used, so their output stays byte-identical.
    return NetworkSnapshot(
        config.tx_range, np.arange(count), xs, ys, speeds, wrap_angle(wrap_angle(headings))
    )


def _reflect(snapshot: NetworkSnapshot, t: float, width: float, height: float) -> NetworkSnapshot:
    """``snapshot`` ``t`` seconds on (``t`` may be negative), every vehicle
    moving along a straight line that reflects off the field edges.

    Each axis is a triangle wave: the unfolded coordinate ``u`` taken mod 2W
    lies on the outbound leg when ``u <= W`` and on the mirrored leg
    otherwise, where the heading's component on that axis is reversed.
    """
    speed, heading = snapshot.speed, snapshot.heading
    ux = np.mod(snapshot.x + speed * t * np.cos(heading), 2.0 * width)
    uy = np.mod(snapshot.y + speed * t * np.sin(heading), 2.0 * height)
    flip_x = ux > width
    flip_y = uy > height
    heading = np.where(flip_x, math.pi - heading, heading)
    heading = np.where(flip_y, -heading, heading)
    x = np.where(flip_x, 2.0 * width - ux, ux)
    y = np.where(flip_y, 2.0 * height - uy, uy)
    return NetworkSnapshot(
        snapshot.transmission_range, snapshot.ids, x, y, speed, wrap_angle(heading)
    )


def step_mobility(
    snapshot: NetworkSnapshot, dt: float, field_width: float, field_height: float
) -> NetworkSnapshot:
    """Advance every vehicle ``dt`` seconds along its heading.

    Vehicles crossing a field boundary reflect: the position folds back inside
    and the heading mirrors on the violated axis.  Speeds are untouched.
    """
    if not 0 < dt < math.inf:
        raise ValueError(f"dt must be finite and > 0, got {dt!r}")
    return _reflect(snapshot, dt, field_width, field_height)


def _beacon_tick(sim_time: float, beacon_interval: float) -> float:
    """The most recent beacon time, ``floor(sim_time / beacon_interval) *
    beacon_interval``, clamped to ``sim_time`` where rounding lands past it."""
    return min(sim_time, math.floor(sim_time / beacon_interval) * beacon_interval)


def beacon_view(
    snapshot: NetworkSnapshot,
    sim_time: float,
    beacon_interval: float,
    field_width: float,
    field_height: float,
) -> NetworkSnapshot:
    """The snapshot as of the most recent beacon tick.

    Each vehicle is moved back along its reflected path by the time elapsed
    since the tick, which gives its exact position at the tick; with no lag
    the snapshot itself is returned.  Routing decisions consume this stale
    view; delivery checks stay on the snapshot's ground truth.
    """
    if not beacon_interval > 0:
        raise ValueError(f"beacon_interval must be > 0, got {beacon_interval!r}")
    lag = sim_time - _beacon_tick(sim_time, beacon_interval)
    return _reflect(snapshot, -lag, field_width, field_height) if lag else snapshot


def _firing_step(flow_time: float, time_step: float) -> int:
    """Smallest grid step ``s`` with ``flow_time <= s * time_step + 1e-9``; the
    quotient is off by at most one step of rounding, which the checks settle."""
    step = max(0, math.ceil((flow_time - 1e-9) / time_step))
    if step and flow_time <= (step - 1) * time_step + 1e-9:
        return step - 1
    return step if flow_time <= step * time_step + 1e-9 else step + 1


def run_campaign(config: SimConfig) -> CampaignMetrics:
    """Run one seeded campaign and aggregate its metrics.

    Each of the ``flows`` attempts is scheduled at an even slot over the
    duration and fires on the first ``time_step`` grid time at or past it,
    routing between a uniformly drawn distinct source/destination pair using
    the beacon view current at that moment.  Vehicles are moved to a grid time
    only when a flow fires there.  With fewer than two vehicles no flow is
    sent.
    """
    start = generate_nodes(config)  # validates the config first
    _, _, flow_rng = _rng_streams(config.seed)
    if logger.isEnabledFor(logging.DEBUG):
        logger.debug(
            "campaign protocol=%s density=%g seed=%d snapshot=%s",
            config.protocol,
            config.density,
            config.seed,
            snapshot_digest(start),
        )
    ids = start.ids.tolist()
    width, height = config.field_width, config.field_height

    results: list[RouteResult] = []
    step = None
    for i in range(config.flows if len(ids) >= 2 else 0):
        fired = _firing_step(i * config.duration / config.flows, config.time_step)
        if fired != step:
            step, sim_time = fired, fired * config.time_step
            snapshot = step_mobility(start, sim_time, width, height) if step else start
            tick = _beacon_tick(sim_time, config.beacon_interval)
            view = beacon_view(snapshot, sim_time, config.beacon_interval, width, height)
        si = int(flow_rng.integers(len(ids)))
        di = int(flow_rng.integers(len(ids) - 1))
        if di >= si:
            di += 1
        result = route(
            config.protocol,
            ids[si],
            ids[di],
            snapshot,
            now=sim_time,
            ttl=config.ttl,
            known=view,
            known_time=tick,
        )
        results.append(result)

    drops = {o.value: 0 for o in DROP_OUTCOMES}
    for r in results:
        if r.outcome is not Outcome.DELIVERED:
            drops[r.outcome.value] += 1
    hops = [r.hop_count for r in results if r.outcome is Outcome.DELIVERED]
    sent, delivered = len(results), len(hops)
    mean_hops = sum(hops) / len(hops) if hops else None
    return CampaignMetrics(
        sent=sent,
        delivered=delivered,
        pdr=delivered / sent if sent else None,
        mean_hop_count=mean_hops,
        mean_delay_ms=mean_hops * config.per_hop_latency_ms if mean_hops is not None else None,
        drop_breakdown=drops,
    )


def _fmt_real(value: Optional[float]) -> str:
    return "" if value is None else f"{value:.6f}"


def metrics_row(config: SimConfig, metrics: CampaignMetrics) -> list[str]:
    """One metrics-CSV row for a (protocol, density, seed) cell.

    Reals use fixed 6-decimal formatting; undefined rates print empty.
    """
    return [
        config.protocol,
        _fmt_real(config.density),
        _fmt_real(config.tx_range),
        str(config.seed),
        str(metrics.sent),
        str(metrics.delivered),
        _fmt_real(metrics.pdr),
        _fmt_real(metrics.mean_hop_count),
        _fmt_real(metrics.mean_delay_ms),
        str(metrics.drop_breakdown[Outcome.VOID_DROP.value]),
        str(metrics.drop_breakdown[Outcome.TTL_DROP.value]),
        str(metrics.drop_breakdown[Outcome.LOOP_DROP.value]),
        str(metrics.drop_breakdown[Outcome.ZONE_UNREACHABLE.value]),
    ]


def snapshot_digest(snapshot: NetworkSnapshot) -> str:
    """Stable digest of a snapshot, for asserting identical placements."""
    columns = (snapshot.ids, snapshot.x, snapshot.y, snapshot.speed, snapshot.heading)
    payload = repr((snapshot.transmission_range, tuple(zip(*(c.tolist() for c in columns)))))
    return hashlib.blake2s(payload.encode()).hexdigest()
