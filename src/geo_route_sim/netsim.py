"""Deterministic campaign engine.

Generates Poisson fields of vehicles, moves them in straight lines with
boundary reflection (one closed form from the start snapshot), serves routing
decisions a beacon-lagged view of the world, and aggregates per-seed delivery
metrics.  Every random draw descends from the campaign seed through
purpose-split streams (placement, motion, flows), so replays are
byte-identical and adding flows never perturbs node placement.
"""

import math
import sys
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np
import numpy.random  # numpy loads it lazily; load it with the package, not in a run

from .geometry import TWO_PI
from .routing import (
    DEFAULT_TTL,
    DROP_OUTCOMES,
    NetworkSnapshot,
    Outcome,
    PROTOCOLS,
    route,
    route_lockstep,
)

__all__ = [
    "CampaignMetrics", "METRICS_HEADER", "SimConfig", "beacon_view", "generate_nodes",
    "metrics_row", "run_campaign", "step_mobility",
]

# Largest campaign accepted, in vehicles; each takes 32 B (four floats) per snapshot.
MAX_NODES = 1_000_000
# Most flows per campaign.  100,000 D-LAR flows take ~5 s between two vehicles, but
# each adds 0.15-0.4 s (memory-bound) among MAX_NODES, so this cap alone does not bound the work.
MAX_FLOWS = 100_000
# Most snapshot rows a campaign holds for one window of flows routed together (24 B per
# moved row: x, y and heading); sized by measurement, like routing's flood blocks.
_WINDOW_ROWS = 24_576

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


def _check_positive(**values: float) -> None:
    """Raise ValueError naming the first of ``values`` that is not finite and > 0."""
    for name, value in values.items():
        if not 0 < value < math.inf:
            raise ValueError(f"{name} must be finite and > 0, got {value!r}")


def _field_sizes(width: float, height: float) -> dict:
    """The field sizes and their doubles, the periods a move folds by, by name."""
    return {"field_width": width, "field_height": height,
            "2 * field_width": 2.0 * width, "2 * field_height": 2.0 * height}


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
        names = ("density", "tx_range", "speed_min", "speed_max", "beacon_interval", "duration",
                 "time_step", "per_hop_latency_ms")
        _check_positive(**_field_sizes(self.field_width, self.field_height),
                        **{name: getattr(self, name) for name in names})
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
        # Motion unfolds a coordinate to its axis's field size + travel and folds
        # it mod twice that size; grid step numbers stay exact below 2**53.
        travel = self.speed_max * (self.duration + self.time_step)
        if not 2.0 * (max(self.field_width, self.field_height) + travel) < math.inf:
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
        delay = self.per_hop_latency_ms * self.ttl if self.ttl <= sys.float_info.max else math.inf
        _check_positive(**{"per_hop_latency_ms * ttl": delay})  # the most delay a packet takes


@dataclass(frozen=True)
class CampaignMetrics:
    """Aggregated results of one campaign.  ``pdr`` is None when sent = 0; the
    mean hops and delay, over the delivered flows, are None when none was."""

    sent: int
    delivered: int
    pdr: Optional[float]
    mean_hop_count: Optional[float]
    mean_delay_ms: Optional[float]
    drop_breakdown: dict


def _stream(seed: int, i: int) -> np.random.Generator:
    """The generator of ``SeedSequence(seed).spawn(3)[i]``, without spawning the others."""
    return np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(i,)))


def generate_nodes(config: SimConfig) -> NetworkSnapshot:
    """Draw a Poisson field of vehicles, fully determined by the seed.

    The node count is Poisson(density * area) unless ``node_count`` pins it;
    positions are i.i.d. uniform over the field, headings uniform in
    (-pi, pi], speeds uniform in [speed_min, speed_max].  The count and
    positions come from stream 0, headings and speeds from stream 1.
    """
    config.validate()
    placement_rng, motion_rng = _stream(config.seed, 0), _stream(config.seed, 1)
    area = config.field_width * config.field_height
    if config.node_count is not None:
        count = config.node_count
    else:
        count = int(placement_rng.poisson(config.density * area))
    xs = placement_rng.uniform(0.0, config.field_width, size=count)
    ys = placement_rng.uniform(0.0, config.field_height, size=count)
    headings = motion_rng.uniform(-math.pi, math.pi, size=count)
    speeds = motion_rng.uniform(config.speed_min, config.speed_max, size=count)
    # A second wrap would change no bit, so seeded fields keep their bytes.  For h in [-pi, pi],
    # r = fold(pi - h) lies in [0, 2pi) and the wrap returns w = fl(pi - r).  A second wrap
    # gets pi - w exactly: it is r when r >= pi/2 (w = pi - r by Sterbenz), and Sterbenz holds
    # when r < pi/2 (w >= pi/2); it lies in [0, 2pi), which the fold keeps, so it returns w.
    return NetworkSnapshot(config.tx_range, xs, ys, speeds, _wrapped(headings))


def _fold(u: np.ndarray, period: float) -> np.ndarray:
    """``np.mod(u, period)`` bit for bit, in place and faster (``period`` > 0).

    ``fmod``, the slow step, runs only when the largest ``|u|`` is at least
    ``period``: elsewhere ``fmod(u, period)`` is ``u`` itself, ``-0.0``
    included.  Then ``period`` is added where the remainder is negative, as
    ``mod`` does, and ``0.0`` elsewhere, which turns ``-0.0`` into ``mod``'s
    ``+0.0`` and keeps every other value.  No step is masked: a ``where=``
    pass over a scattered mask is slower than the whole pass.  A ``u`` that
    is not finite, as an overflowing unfold gives, raises ValueError.
    """
    most = np.abs(u).max(initial=0.0)
    if not most < math.inf:
        raise ValueError(f"an unfolded coordinate must be finite, got {most!r}")
    if most >= period:
        np.fmod(u, period, out=u)
    u += np.where(u < 0.0, period, 0.0)
    return u


def _wrapped(heading: np.ndarray) -> np.ndarray:
    """:func:`~geo_route_sim.geometry.wrap_angle` of a heading column, bit for
    bit, in place: its ``np.mod`` is done by :func:`_fold`, which is faster
    from a few hundred rows on.  A remainder that rounds up to 2pi, as for the
    double just above pi, gives -pi, which is turned into pi."""
    _fold(np.subtract(math.pi, heading, out=heading), TWO_PI)
    np.subtract(math.pi, heading, out=heading)
    heading[heading == -math.pi] = math.pi
    return heading


def step_mobility(
    snapshot: NetworkSnapshot, dt: float, field_width: float, field_height: float
) -> NetworkSnapshot:
    """``snapshot`` ``dt`` seconds on, for any finite ``dt`` (zero and negative
    included), every vehicle moving along a straight line that reflects off the
    field edges: the position folds back inside and the heading mirrors on the
    violated axis.  Speeds are untouched, and every move from ``snapshot``
    reuses the cos and sin of its headings, ``snapshot._trig``.

    Each axis is a triangle wave: the unfolded coordinate ``u`` taken mod 2W
    lies on the outbound leg when ``u <= W`` and on the mirrored leg, at
    ``2W - u``, otherwise, where the heading's component on that axis is
    reversed.  The position is ``min(u, 2W - u)``, which picks that leg
    exactly: above W the difference is exact (Sterbenz), and below W it
    rounds to at least W.

    The move skips :class:`NetworkSnapshot`'s checks, which it meets: :func:`_fold` raises
    unless the positions are finite (2W and 2H are), and wrapped headings lie in [-pi, pi].
    The result is a new instance, so nothing cached on ``snapshot`` carries over to it.
    """
    if not math.isfinite(dt):
        raise ValueError(f"dt must be finite, got {dt!r}")
    _check_positive(**_field_sizes(field_width, field_height))
    speed, (cos, sin) = snapshot.speed, snapshot._trig
    ux = _fold(snapshot.x + speed * dt * cos, 2.0 * field_width)
    uy = _fold(snapshot.y + speed * dt * sin, 2.0 * field_height)
    heading = snapshot.heading.copy()
    on_x, on_y = np.flatnonzero(ux > field_width), np.flatnonzero(uy > field_height)
    heading[on_x] = math.pi - heading[on_x]
    heading[on_y] = -heading[on_y]
    np.minimum(ux, 2.0 * field_width - ux, out=ux)
    np.minimum(uy, 2.0 * field_height - uy, out=uy)
    moved = NetworkSnapshot.__new__(NetworkSnapshot)
    vars(moved).update(transmission_range=snapshot.transmission_range, x=ux, y=uy, speed=speed,
                       heading=_wrapped(heading))
    ux.flags.writeable = uy.flags.writeable = heading.flags.writeable = False
    return moved


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

    Each vehicle is moved back along its reflected path by the lag, the time
    elapsed since the tick: ``step_mobility(snapshot, -lag, field_width,
    field_height)`` gives its exact position at the tick; with no lag the
    snapshot itself is returned.  Routing decisions consume this stale view;
    delivery checks stay on the snapshot's ground truth.
    """
    if not math.isfinite(sim_time):
        raise ValueError(f"sim_time must be finite, got {sim_time!r}")
    _check_positive(beacon_interval=beacon_interval, **_field_sizes(field_width, field_height))
    lag = sim_time - _beacon_tick(sim_time, beacon_interval)
    return step_mobility(snapshot, -lag, field_width, field_height) if lag else snapshot


def _firing_step(flow_time: float, time_step: float) -> int:
    """Smallest grid step ``s`` with ``flow_time <= s * time_step + slack``.

    The slack, ``1e-9 * time_step``, absorbs the rounding of ``flow_time`` and
    of the grid times; being relative to the step, it never spans a grid step.
    The quotient is off by at most one step of rounding, which the checks
    settle.
    """
    slack = 1e-9 * time_step
    step = math.ceil((flow_time - slack) / time_step)
    if flow_time <= (step - 1) * time_step + slack:
        return step - 1
    return step if flow_time <= step * time_step + slack else step + 1


def _windows(schedule: list[tuple], rows: int):
    """The runs of consecutive flows of ``schedule`` that a campaign routes
    together, in order: each run is the longest whose distinct firing times
    and beacon ticks (a flow's last two entries), at ``rows`` vehicles a
    snapshot, hold at most ``_WINDOW_ROWS`` rows, and holds at least one flow."""
    window, times = [], set()
    for flow in schedule:
        if window and len(times | set(flow[2:])) * rows > _WINDOW_ROWS:
            yield window
            window, times = [], set()
        window.append(flow)
        times.update(flow[2:])
    if window:
        yield window


def _metrics(tally: dict, per_hop_latency_ms: float) -> CampaignMetrics:
    """One protocol's metrics from its tally of outcomes and delivered hops (``"hops"``)."""
    sent, delivered = sum(tally[o] for o in Outcome), tally[Outcome.DELIVERED]
    mean_hops = tally["hops"] / delivered if delivered else None
    return CampaignMetrics(
        sent=sent,
        delivered=delivered,
        pdr=delivered / sent if sent else None,
        mean_hop_count=mean_hops,
        mean_delay_ms=mean_hops * per_hop_latency_ms if mean_hops is not None else None,
        drop_breakdown={o.value: tally[o] for o in DROP_OUTCOMES},
    )


def run_campaign(
    config: SimConfig, protocols: Optional[Sequence[str]] = None
) -> list[CampaignMetrics]:
    """Run one seeded campaign and aggregate its metrics, one
    :class:`CampaignMetrics` per entry of ``protocols`` (default:
    ``(config.protocol,)``), in order.

    The placement is drawn once, then the whole schedule before any flow is
    routed: each of the ``flows`` attempts fires on the first ``time_step``
    grid time at or past its even slot over the duration, and stream 2 draws
    every flow's endpoints, in flow order: a uniform source, then a uniform
    destination among the other vehicles.  Each flow is routed under every
    protocol using the beacon view current at its firing time.  The start is
    :func:`generate_nodes`' field; both the ground truth at a firing time and
    the view at its beacon tick are the start moved there by
    :func:`step_mobility`, once per distinct time after 0, in ascending time.

    Flows are routed in windows (:func:`_windows`), whose snapshots are held
    together: a window's DIR and D-LAR packets, of every protocol, hop in
    lockstep through one :func:`route_lockstep` call, each on its own
    snapshot and view, while LAR floods each flow alone through
    :func:`route`.  Each result is the one routing its flow alone gives, so
    the window size moves no byte of the output.  Results are folded into
    per-protocol tallies as they are routed, so a campaign holds one window
    and about 0.2 KB of schedule per flow.  With fewer than two vehicles no
    flow is sent.  An unknown protocol is rejected before any node is drawn.
    """
    protocols = (config.protocol,) if protocols is None else tuple(protocols)
    for protocol in protocols:
        if protocol not in PROTOCOLS:
            raise ValueError(f"protocol must be one of {PROTOCOLS}, got {protocol!r}")
    start, flow_rng = generate_nodes(config), _stream(config.seed, 2)
    n, flows = len(start), config.flows if len(start) >= 2 else 0
    schedule = []  # per flow: source, destination, firing time, beacon tick
    for i in range(flows):
        si, di = int(flow_rng.integers(n)), int(flow_rng.integers(n - 1))
        now = _firing_step(i * config.duration / flows, config.time_step) * config.time_step
        schedule.append((si, di + (di >= si), now, _beacon_tick(now, config.beacon_interval)))
    built = {0.0: start}  # the snapshots of the current window, by time
    tallies = [dict.fromkeys([*Outcome, "hops"], 0) for _ in protocols]
    for window in _windows(schedule, n):
        times = {t for _, _, now, tick in window for t in (now, tick)}
        built = {t: snap for t, snap in built.items() if t in times}
        for t in sorted(times - built.keys()):
            built[t] = step_mobility(start, t, config.field_width, config.field_height)
        greedy = iter(route_lockstep([
            (protocol, si, di, built[now], now, config.ttl, built[tick], tick)
            for protocol in protocols if protocol != "lar" for si, di, now, tick in window
        ]))
        for protocol, tally in zip(protocols, tallies):
            for si, di, now, tick in window:
                result = next(greedy) if protocol != "lar" else route(
                    "lar", si, di, built[now], now=now, ttl=config.ttl, known=built[tick],
                    known_time=tick)
                tally[result.outcome] += 1
                tally["hops"] += result.hop_count if result.outcome is Outcome.DELIVERED else 0
    return [_metrics(tally, config.per_hop_latency_ms) for tally in tallies]


def _fmt_real(value: Optional[float]) -> str:
    return "" if value is None else f"{value:.6f}"


def _fmt_key(value: float) -> str:
    """``value`` to 6 decimals, or as ``repr`` where reading those decimals
    back would move it by more than a relative 1e-12."""
    text = f"{value:.6f}"
    return text if abs(float(text) - value) <= 1e-12 * abs(value) else repr(value)


def metrics_row(config: SimConfig, metrics: CampaignMetrics) -> list[str]:
    """One metrics-CSV row for a (protocol, density, seed) cell.

    Rates use fixed 6-decimal formatting and print empty where undefined;
    ``density`` and ``tx_range`` print as :func:`_fmt_key` gives them.
    """
    return [
        config.protocol,
        _fmt_key(config.density),
        _fmt_key(config.tx_range),
        str(config.seed),
        str(metrics.sent),
        str(metrics.delivered),
        _fmt_real(metrics.pdr),
        _fmt_real(metrics.mean_hop_count),
        _fmt_real(metrics.mean_delay_ms),
        str(metrics.drop_breakdown[Outcome.VOID_DROP.value]),
        str(metrics.drop_breakdown[Outcome.TTL_DROP.value]),
        "0",  # loop_drops: candidate filters exclude visited ids, so no loop forms
        str(metrics.drop_breakdown[Outcome.ZONE_UNREACHABLE.value]),
    ]
