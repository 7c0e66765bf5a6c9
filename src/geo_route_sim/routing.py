"""Next-hop selection and route discovery for the DIR, LAR, and D-LAR strategies.

All decision functions are pure over an immutable :class:`NetworkSnapshot`.
Knowledge can be degraded to a beacon view (see :func:`route`): physical
reachability and the delivery check always follow the snapshot's true
positions, while the angle metric and zone membership of candidates may use
the stale positions a forwarder would actually know from beacons.

A vehicle's id is its row in the snapshot's columns.
"""

import math
from dataclasses import dataclass
from enum import Enum
from functools import cached_property
from typing import Iterable, Optional, Sequence

import numpy as np

from .geometry import Position, deviation_angle, distance, wrap_angle
from .zones import ExpectedZone, _zone_bounds, expected_zone, in_request_zone, request_zone

__all__ = [
    "DEFAULT_TTL", "NetworkSnapshot", "Outcome", "PROTOCOLS", "RouteResult", "dir_next_hop",
    "dlar_next_hop", "lar_route_discovery", "neighbors", "route",
]

DEFAULT_TTL = 64

PROTOCOLS = ("dir", "lar", "dlar")

HALF_PI = math.pi / 2.0
# turn in [-2pi, 2pi]: |wrap_angle(turn)| <= HALF_PI iff LO <= turn <= HALF_PI or |turn| >= FAR;
# D-LAR wraps a turn past 2pi first, so every turn takes these compares.
_TURN_LO, _TURN_FAR = float.fromhex("-0x1.921fb54442d1ap+0"), float.fromhex("0x1.2d97c7f3321d2p+2")

# Most entries in one reach matrix of the LAR flood (about 2 MB per float
# temporary); a level's frontier is cut into blocks of relays, each tested
# against the unreached zone relays and the destination, to stay under it.
_FLOOD_BLOCK_ENTRIES = 2**18


class NetworkSnapshot:
    """An immutable view of all vehicles sharing one transmission range.

    Motion state lives in read-only 1-D numpy columns ``x``, ``y``, ``speed``
    and ``heading`` of one length; vehicle ``i`` is row ``i``.  Positions and
    headings are finite, speeds finite and >= 0.  Numpy columns of the right
    type are used without a copy and made read-only.  ``_trig``, the headings'
    cos and sin, is found on first use.
    """

    def __init__(self, transmission_range: float, x, y, speed, heading):
        if not transmission_range > 0:
            raise ValueError(f"transmission_range must be > 0, got {transmission_range!r}")
        x, y, speed, heading = (np.asarray(c, dtype=float) for c in (x, y, speed, heading))
        if not x.ndim == 1 or not x.shape == y.shape == speed.shape == heading.shape:
            raise ValueError("x, y, speed and heading must be 1-D columns of one length")
        if not np.isfinite((x, y, heading)).all():
            raise ValueError("x, y and heading must be finite")
        if not ((0.0 <= speed) & (speed < math.inf)).all():
            raise ValueError("speed must be finite and >= 0")
        for column in (x, y, speed, heading):
            column.flags.writeable = False
        self.transmission_range = float(transmission_range)
        self.x, self.y, self.speed, self.heading = x, y, speed, heading

    @cached_property
    def _trig(self) -> tuple[np.ndarray, np.ndarray]:
        return np.cos(self.heading), np.sin(self.heading)

    def row(self, v_id: int) -> int:
        """Row of vehicle ``v_id``: the id itself, checked to be a whole number in [0, len)."""
        if not (0 <= v_id < len(self.x) and v_id % 1 == 0):
            raise KeyError(f"unknown vehicle id {v_id!r}")
        return int(v_id)

    def __len__(self) -> int:
        return len(self.x)

    def __repr__(self) -> str:
        reach = self.transmission_range
        return f"NetworkSnapshot({len(self)} vehicles, transmission_range={reach})"


class Outcome(str, Enum):
    DELIVERED = "delivered"
    VOID_DROP = "void_drop"
    TTL_DROP = "ttl_drop"
    ZONE_UNREACHABLE = "zone_unreachable"


DROP_OUTCOMES = tuple(o for o in Outcome if o is not Outcome.DELIVERED)


@dataclass(frozen=True)
class RouteResult:
    """Outcome of one routing attempt, with the realized hop trace."""

    outcome: Outcome
    path: tuple[int, ...]

    @property
    def hop_count(self) -> int:
        return len(self.path) - 1


def _squares(reach: float, dx: np.ndarray, dy: np.ndarray) -> tuple[np.ndarray, float, float]:
    """Squares of the differences ``dx``, ``dy`` (overwritten), scaled with the range,
    and the band ``(lo, hi)``: a square above ``hi`` is out of range, below ``lo`` in.

    Membership equals ``distance(a, b) <= R`` exactly, for every range.  For R in
    [2**-500, 2**500], R² and the band are normal, and an unscaled square rounds as a
    scaled one, overflows to inf far out of range, or is subnormal and errs by at most
    2**-1075 (2**-74 R²), inside the band.  Outside that span, with ``R = m * 2**e``
    (``0.5 <= m < 1``), the differences are scaled by ``2**-e`` with ``ldexp``, which
    rounds the exact ``d * 2**-e`` once, so R² becomes ``m**2`` and can neither
    overflow nor go subnormal.  A square errs by at most 3 ulps, against the 1 ulp of
    ``math.hypot``, so the two can disagree only within a relative 2**-50 of R²; pairs
    within 2**-48 of it are settled by :func:`distance`.  Below the normal range an ulp
    of ``math.hypot`` is 2**-1074 however small R is, and the band widens to match.  The
    caller ignores overflow: a square that overflows to inf lies far outside any range.
    """
    band = max(2.0**-48, 2.0**-1070 / reach)
    if not 2.0**-500 <= reach <= 2.0**500:
        reach, e = math.frexp(reach)  # reach becomes m, the range scaled into [0.5, 1)
        np.ldexp(dx, -e, out=dx)
        np.ldexp(dy, -e, out=dy)
    d2 = np.add(np.square(dx, out=dx), np.square(dy, out=dy), out=dx)
    return d2, reach * reach * (1.0 - band), reach * reach * (1.0 + band)


def _within(snapshot: NetworkSnapshot, rows, cols) -> np.ndarray:
    """Reach matrix: entry (i, j) says whether ``cols[j]`` lies within exact
    transmission range (see :func:`_squares`) of ``rows[i]``, boundary
    inclusive (a row reaches itself); ``rows`` and ``cols`` are index arrays.
    The caller ignores overflow."""
    x, y, reach = snapshot.x, snapshot.y, snapshot.transmission_range
    d2, lo, hi = _squares(reach, x[cols] - x[rows, None], y[cols] - y[rows, None])
    inside = d2 <= hi
    edge = inside & (d2 >= lo)
    if edge.any():
        i, j = np.nonzero(edge)
        p, q = rows[i], cols[j]
        here, there = zip(x[p].tolist(), y[p].tolist()), zip(x[q].tolist(), y[q].tolist())
        for a, b, h, t in zip(i.tolist(), j.tolist(), here, there):
            inside[a, b] = distance(Position(*h), Position(*t)) <= reach
    return inside


def _near(snapshot: NetworkSnapshot, hx: float, hy: float, skip) -> np.ndarray:
    """Ascending rows within range of (``hx``, ``hy``), boundary inclusive and
    exact (see :func:`_squares`) in seven passes, except ``skip``; the caller ignores overflow."""
    x, y, reach = snapshot.x, snapshot.y, snapshot.transmission_range
    d2, lo, hi = _squares(reach, x - hx, y - hy)
    d2[skip] = math.nan  # fails every test, where inf would pass an infinite range
    rows = (d2 <= hi).nonzero()[0]
    far = [i for i in (d2[rows] >= lo).nonzero()[0].tolist()
           if distance(Position(hx, hy), Position(x.item(rows[i]), y.item(rows[i]))) > reach]
    return np.delete(rows, far) if far else rows


def neighbors(v_id: int, snapshot: NetworkSnapshot) -> list[int]:
    """Ids of the vehicles within transmission range of ``v_id``, boundary
    inclusive, in ascending order so that downstream selections are
    deterministic."""
    row = snapshot.row(v_id)
    with np.errstate(over="ignore"):
        return _near(snapshot, snapshot.x.item(row), snapshot.y.item(row), row).tolist()


def _known_view(known: Optional[NetworkSnapshot], snapshot: NetworkSnapshot) -> NetworkSnapshot:
    """``known`` checked to hold ``snapshot``'s vehicles, or ``snapshot`` when None."""
    if known is None:
        return snapshot
    if len(known) != len(snapshot):
        raise ValueError(f"known must hold {len(snapshot)} vehicles, got {len(known)}")
    return known


def _hop(snapshot, known, v_id, dest, exclude, ez=None) -> tuple:
    """The :func:`_next_hops` entry of a hop from ``v_id``, past the ``exclude``
    entries that name a vehicle."""
    row, n = snapshot.row(v_id), len(snapshot)
    skip = [row, *(int(v) for v in exclude if 0 <= v < n and v % 1 == 0)]
    return snapshot, _known_view(known, snapshot), row, dest, skip, ez


def _next_hops(hops: list) -> list[Optional[int]]:
    """The compass choice shared by DIR and D-LAR, for each entry of ``hops``:
    the row of the forwarder's next hop, or None.

    An entry is ``(snapshot, known, row, dest, skip, ez)``.  Forwarder ``row``'s
    candidates are its neighbors outside the rows ``skip`` (itself among them),
    except where their ``known`` position is its true one.  With an expected
    zone ``ez`` (D-LAR) they must lie inside the request zone anchored at the
    forwarder, and those heading within pi/2 of it are preferred when there are
    any: a turn past 2pi is wrapped, and every turn then takes the compares.  The
    winner minimises (deviation angle toward ``dest``, distance to ``dest``, row).

    Each distinct (snapshot, row, skip) is scanned once (:func:`_near`), so a
    flow's DIR and D-LAR packets on one forwarder with one path share the
    neighbor rows; each entry still gathers its own ``known`` positions.  The
    masks, the angles and each entry's least angle are then found for all
    entries at once, D-LAR's first.  The angles are arrays of the products
    :func:`deviation_angle` forms, and numpy's ``arctan2`` may differ from
    ``math.atan2`` by an ulp, so the candidates within a relative 2**-40 (plus
    2**-1000) of their entry's least angle are settled by the exact scalar key;
    an overflow makes the cut NaN, which keeps every candidate.  Each choice is
    the one its entry gets alone.
    """
    choices: list[Optional[int]] = [None] * len(hops)
    order = sorted(range(len(hops)), key=lambda i: hops[i][5] is None)  # D-LAR entries first
    taken, rows, xs, ys, rays, zoned, headings = ([] for _ in range(7))
    scans = {}  # every snapshot of hops is alive for the call, so its id is unique
    with np.errstate(over="ignore", invalid="ignore"):
        for i in order:
            snapshot, known, row, dest, skip, ez = hops[i]
            hx, hy = snapshot.x.item(row), snapshot.y.item(row)
            if dest.x == hx and dest.y == hy:
                raise ValueError("destination position coincides with the forwarder")
            key = (id(snapshot), row, tuple(skip))
            near = scans.get(key)
            if near is None:
                near = scans[key] = _near(snapshot, hx, hy, skip)
            if not len(near):
                continue
            taken.append(i)
            rows.append(near)
            xs.append(known.x[near])
            ys.append(known.y[near])
            rays.append((hx, hy, dest.x - hx, dest.y - hy))
            if ez is not None:
                zoned.append((*_zone_bounds(hx, hy, ez), snapshot.heading.item(row)))
                headings.append(snapshot.heading[near])
        if not taken:
            return choices
        xy = np.concatenate(xs + ys).reshape(2, -1)  # the candidates' known x and y
        size = np.array([len(r) for r in rows])
        at = size.cumsum() - size  # each entry's first candidate
        fwd = np.array(rays).T.repeat(size, axis=1)  # per candidate: hx, hy, vx, vy
        ne = xy != fwd[:2]
        keep = ne[0] | ne[1]
        if zoned:
            z = len(zoned)
            m = at[z - 1] + size[z - 1]  # the D-LAR entries' candidates
            bounds = np.array(zoned).T.repeat(size[:z], axis=1)  # x0, y0, x1, y1, heading
            inside = (bounds[:2] <= xy[:, :m]) & (xy[:, :m] <= bounds[2:4])
            zone = keep[:m]
            zone &= inside[0] & inside[1]
            turn = np.concatenate(headings) - bounds[4]
            far = np.abs(turn) > 2.0 * math.pi  # wrapped into (-pi, pi], where the compares hold
            if far.any():
                turn[far] = wrap_angle(turn[far])
            aligned = zone & (((_TURN_LO <= turn) & (turn <= HALF_PI)) | (np.abs(turn) >= _TURN_FAR))
            zone &= aligned | ~np.logical_or.reduceat(aligned, at[:z]).repeat(size[:z])
        u = np.subtract(xy, fwd[:2], out=xy)
        dot = u * fwd[2:]  # ux vx, uy vy
        cross = np.multiply(u, fwd[:1:-1], out=u)  # ux vy, uy vx
        angle = np.where(keep, np.arctan2(np.abs(cross[0] - cross[1]), dot[0] + dot[1]), math.inf)
        cut = np.minimum.reduceat(angle, at) * (1 + 2**-40) + 2**-1000
        near = (keep & ~(angle > cut.repeat(size))).nonzero()[0]
    ends = [*near.searchsorted(at).tolist(), len(near)]
    picked = np.concatenate(rows)[near].tolist()
    for j, i in enumerate(taken):
        a, b = ends[j], ends[j + 1]
        if b - a == 1:
            choices[i] = picked[a]
        elif b > a:
            snapshot, known, row, dest, _, _ = hops[i]
            here = Position(snapshot.x.item(row), snapshot.y.item(row))
            pool = [(Position(known.x.item(r), known.y.item(r)), r) for r in picked[a:b]]
            best = min(pool, key=lambda c: (deviation_angle(here, c[0], dest), distance(c[0], dest), c[1]))
            choices[i] = best[1]
    return choices


def dir_next_hop(
    v_id: int,
    dest_pos: Position,
    snapshot: NetworkSnapshot,
    exclude: Iterable[int] = (),
    known: Optional[NetworkSnapshot] = None,
) -> Optional[int]:
    """Compass choice: the id of the neighbor whose direction from vehicle
    ``v_id`` is closest to ``dest_pos``.

    Candidates are neighbors of ``v_id`` whose ids are not in ``exclude``
    (the packet's visited trace), measured at their positions in ``known``
    (default: ``snapshot``).  Ties break toward the smaller distance to the
    destination, then the smaller id.  Returns None when no candidate exists.
    """
    return _next_hops([_hop(snapshot, known, v_id, dest_pos, exclude)])[0]


def dlar_next_hop(
    v_id: int,
    ez: ExpectedZone,
    snapshot: NetworkSnapshot,
    exclude: Iterable[int] = (),
    known: Optional[NetworkSnapshot] = None,
) -> Optional[int]:
    """Zone-restricted compass choice with a same-heading preference.

    ``ez`` is the destination's expected zone, centred on its known
    position, which the choice steers toward.  The request zone is anchored
    at vehicle ``v_id``.  Candidates are neighbors outside ``exclude`` whose
    known position lies inside the zone; among them, vehicles heading within
    pi/2 of the forwarder's heading are preferred, falling back to every
    zone candidate when none is aligned.  Ties break as in
    :func:`dir_next_hop`.
    """
    return _next_hops([_hop(snapshot, known, v_id, ez.center, exclude, ez)])[0]


def lar_route_discovery(
    source_id: int,
    dest_id: int,
    snapshot: NetworkSnapshot,
    ez: ExpectedZone,
    ttl: int,
) -> RouteResult:
    """Zone-gated RREQ flooding, reported as the first (minimum-hop) arrival.

    The request zone is anchored at the source once, for the whole discovery.
    A node rebroadcasts only if its own position lies inside that zone; the
    destination may receive from a zone relay without being a member itself.
    The flood goes one level per hop: within a level, relays rebroadcast in
    the order they were reached, each reaching its unreached neighbors in
    ascending id order, which makes the reported path deterministic.  A level
    is computed in blocks of relays against the unreached zone relays and
    the destination at once, which keeps that order: a vehicle outside the
    zone never relays, so reaching it changes nothing unless it is the
    destination; a block of one relay takes its reached rows as they come,
    with no sort.  The request zone covers the destination's
    expected zone ``ez``.  ``ttl`` (> 0) bounds the number of levels: a flood
    cut while zone relays still hold the request is a ``ttl_drop``.  There is
    no fallback to unrestricted flooding: an out-of-zone cut is reported as
    ``zone_unreachable``.
    """
    if ttl <= 0:
        raise ValueError(f"ttl must be > 0, got {ttl!r}")
    src, dst = snapshot.row(source_id), snapshot.row(dest_id)
    if src == dst:
        return RouteResult(Outcome.DELIVERED, (src,))
    x, y = snapshot.x, snapshot.y
    # The flood's columns: the zone relays and the destination.  The source
    # always lies inside its own request zone, so it relays.
    cand = in_request_zone(x, y, request_zone(Position(x.item(src), y.item(src)), ez))
    cand[dst] = True
    cand[src] = False
    unreached = cand.nonzero()[0]
    parent = np.full(len(snapshot), -1)  # -1: not reached yet
    frontier = np.array([src])
    with np.errstate(over="ignore"):  # an overflowing difference lies far out of range
        for _ in range(ttl):
            if not len(frontier):
                break  # no relay holds the request: zone_unreachable at any ttl
            level = []
            start = 0
            while start < len(frontier) and len(unreached):
                stop = start + max(1, _FLOOD_BLOCK_ENTRIES // len(unreached))
                block = frontier[start:stop]
                reach = _within(snapshot, block, unreached)
                if len(block) == 1:
                    hit = reach[0]
                    new = unreached[hit]
                    parent[new] = block[0]
                else:
                    # Each reached row's parent is its first relay in reach order;
                    # sorting stably by it keeps ascending ids within one relay.
                    first = reach.argmax(axis=0)
                    hit = reach[first, np.arange(len(unreached))]
                    first = first[hit]
                    order = np.argsort(first, kind="stable")
                    new = unreached[hit][order]
                    parent[new] = block[first[order]]
                if parent[dst] >= 0:
                    path = [dst]
                    while path[-1] != src:
                        path.append(int(parent[path[-1]]))
                    return RouteResult(Outcome.DELIVERED, tuple(path[::-1]))
                unreached = unreached[~hit]
                level.append(new)  # dst is not among them, so all are relays
                start = stop
            frontier = np.concatenate(level) if level else frontier[:0]
    outcome = Outcome.TTL_DROP if len(frontier) else Outcome.ZONE_UNREACHABLE
    return RouteResult(outcome, (src,))


def route(
    protocol: str,
    source_id: int,
    dest_id: int,
    snapshot: NetworkSnapshot,
    now: float = 0.0,
    ttl: int = DEFAULT_TTL,
    known: Optional[NetworkSnapshot] = None,
    known_time: Optional[float] = None,
) -> RouteResult:
    """Drive one packet from source to destination under the given protocol.

    ``known``/``known_time`` inject the beacon view (a snapshot of the same
    vehicles): the packet's destination knowledge is taken from it, and
    greedy candidate metrics use its positions, while reachability and the
    delivery check stay on ``snapshot``.  Both default to perfect, current
    knowledge.

    Greedy protocols (``dir``/``dlar``) hop until the destination itself is
    within transmission range (direct final hop) or a drop condition fires;
    ``lar`` delegates to :func:`lar_route_discovery`.  This is
    :func:`route_lockstep` of one request.
    """
    return route_lockstep([(protocol, source_id, dest_id, snapshot, now, ttl, known, known_time)])[0]


def route_lockstep(requests: Sequence[tuple]) -> list[RouteResult]:
    """:func:`route` of each request, a tuple of its arguments in order, in request order.

    LAR requests are flooded one by one.  The DIR and D-LAR packets hop in
    lockstep rounds, each on its own snapshot and view: every live packet
    takes its checks (the ttl, the direct final hop, the destination's stale
    spot), then one :func:`_next_hops` pass chooses the hops of all the
    packets still moving.  Each result is the one its request gets alone.
    """
    results: list[Optional[RouteResult]] = [None] * len(requests)
    live = []
    for i, (protocol, source_id, dest_id, snapshot, now, ttl, known, known_time) in enumerate(requests):
        if protocol not in PROTOCOLS:
            raise ValueError(f"unknown protocol {protocol!r}, expected one of {PROTOCOLS}")
        if ttl <= 0:
            raise ValueError(f"ttl must be > 0, got {ttl!r}")
        src, dst = snapshot.row(source_id), snapshot.row(dest_id)
        if known_time is not None and known_time > now:
            raise ValueError(f"known_time must be <= now, got {known_time!r} > {now!r}")
        known = _known_view(known, snapshot)
        dest_last = Position(float(known.x[dst]), float(known.y[dst]))
        t0 = now if known_time is None else known_time
        ez = expected_zone(dest_last, float(snapshot.speed[dst]), t0, now)
        if src == dst:
            results[i] = RouteResult(Outcome.DELIVERED, (src,))
        elif protocol == "lar":
            results[i] = lar_route_discovery(src, dst, snapshot, ez, ttl)
        else:
            ez = ez if protocol == "dlar" else None
            live.append((i, snapshot, known, [src], dst, dest_last, ez, ttl))
    while live:
        moving, hops = [], []
        for packet in live:
            i, snapshot, known, path, dst, dest, ez, ttl = packet
            row = path[-1]
            if len(path) > ttl:  # the direct final hop needs budget too
                results[i] = RouteResult(Outcome.TTL_DROP, tuple(path))
                continue
            x, y, reach = snapshot.x, snapshot.y, snapshot.transmission_range
            hx, hy = x.item(row), y.item(row)
            if math.hypot(x.item(dst) - hx, y.item(dst) - hy) <= reach:  # geometry.distance
                results[i] = RouteResult(Outcome.DELIVERED, (*path, dst))
            elif dest.x == hx and dest.y == hy:
                # Stale knowledge led onto the destination's old spot: no direction left.
                results[i] = RouteResult(Outcome.VOID_DROP, tuple(path))
            else:
                moving.append(packet)
                hops.append((snapshot, known, row, dest, path, ez))
        live = []
        for packet, nxt in zip(moving, _next_hops(hops)):
            if nxt is None:
                results[packet[0]] = RouteResult(Outcome.VOID_DROP, tuple(packet[3]))
            else:
                packet[3].append(nxt)
                live.append(packet)
    return results
