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
from typing import Iterable, Optional

import numpy as np

from .geometry import Position, deviation_angle, distance, wrap_angle
from .zones import ExpectedZone, expected_zone, in_request_zone, request_zone

DEFAULT_TTL = 64

PROTOCOLS = ("dir", "lar", "dlar")

HALF_PI = math.pi / 2.0

# Most entries in one reach matrix of the LAR flood (about 2 MB per float
# temporary); a level's frontier is cut into blocks of relays, each tested
# against the unreached zone relays and the destination, to stay under it.
_FLOOD_BLOCK_ENTRIES = 2**18


class NetworkSnapshot:
    """An immutable view of all vehicles sharing one transmission range.

    Motion state lives in read-only 1-D numpy columns ``x``, ``y``, ``speed``
    and ``heading`` of one length; vehicle ``i`` is row ``i``.  Positions and
    headings are finite, speeds finite and >= 0.  Numpy columns of the right
    type are used without a copy and made read-only.
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


def _squared(reach: float, dx: np.ndarray, dy: np.ndarray) -> tuple[np.ndarray, float, float]:
    """Scaled squares of the differences ``dx``, ``dy`` (overwritten), and the
    band ``(lo, hi)``: a square above ``hi`` is out of range, below ``lo`` in.

    Membership equals ``distance(a, b) <= R`` exactly, for every range.  With
    ``R = m * 2**e`` (``0.5 <= m < 1``), the coordinate differences are
    scaled by ``2**-e`` before squaring; a power of two scales exactly, so
    ``R**2`` becomes ``m**2`` and can neither overflow nor go subnormal.  The
    squared distance then carries at most a 3-ulp rounding error, against
    the 1-ulp error of ``math.hypot``, so the two can disagree only when d²
    lies within a relative 2**-50 of R²; pairs within 2**-48 of it are
    settled by :func:`distance`.  Below the normal range an ulp of
    ``math.hypot`` is 2**-1074 however small R is, and the band widens to
    match.  The caller ignores overflow: a square that overflows to inf lies
    far outside any finite range.
    """
    m, e = math.frexp(reach)
    for d in (dx, dy):
        np.ldexp(d, -e, out=d)
        d *= d
    dx += dy
    r2, band = m * m, max(2.0**-48, 2.0**-1070 / reach)
    return dx, r2 * (1.0 - band), r2 * (1.0 + band)


def _within(snapshot: NetworkSnapshot, rows, cols) -> np.ndarray:
    """Reach matrix: entry (i, j) says whether ``cols[j]`` lies within exact
    transmission range (see :func:`_squared`) of ``rows[i]``, boundary
    inclusive (a row reaches itself); ``rows`` and ``cols`` are index arrays."""
    x, y, reach = snapshot.x, snapshot.y, snapshot.transmission_range
    with np.errstate(over="ignore"):
        d2, lo, hi = _squared(reach, x[cols] - x[rows, None], y[cols] - y[rows, None])
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
    exact (see :func:`_squared`), except ``skip``; the caller ignores overflow."""
    x, y, reach = snapshot.x, snapshot.y, snapshot.transmission_range
    d2, lo, hi = _squared(reach, x - hx, y - hy)
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


def _greedy_next_hop(snapshot, known, row, dest, exclude, ez=None) -> Optional[int]:
    """The compass choice shared by DIR and D-LAR: the row of forwarder
    ``row``'s next hop toward position ``dest``, or None.

    Candidates are the forwarder's neighbors outside ``exclude`` (entries
    naming no vehicle exclude nothing), except where their ``known``
    position is the forwarder's true one, which gives no direction.  With an
    expected zone ``ez`` (D-LAR), candidates must lie inside the request
    zone anchored at the forwarder, and those heading within pi/2 of it are
    preferred when there are any.  The winner minimises (deviation angle
    toward ``dest``, distance to ``dest``, row).

    The pool's angles are computed as arrays from the products
    :func:`deviation_angle` forms; numpy's ``arctan2`` may differ from
    ``math.atan2`` by an ulp, so the candidates within a relative 2**-40
    (plus 2**-1000) of the least angle are settled by the exact scalar key.
    A product that overflows makes the cut NaN, which keeps every candidate.
    """
    hx, hy = snapshot.x.item(row), snapshot.y.item(row)
    if dest.x == hx and dest.y == hy:
        raise ValueError("destination position coincides with the forwarder")
    skip = [row, *(int(v) for v in exclude if 0 <= v < len(snapshot) and v % 1 == 0)]
    with np.errstate(over="ignore", invalid="ignore"):
        rows = _near(snapshot, hx, hy, skip)
        x, y = known.x[rows], known.y[rows]
        keep = (x != hx) | (y != hy)
        if ez is not None:
            keep &= in_request_zone(x, y, request_zone(Position(hx, hy), ez))
            turn = snapshot.heading[rows] - snapshot.heading.item(row)
            aligned = keep & (np.abs(wrap_angle(turn)) <= HALF_PI)
            keep = aligned if aligned.any() else keep
        x, y, rows = x[keep], y[keep], rows[keep]
        if not len(rows):
            return None
        ux, uy, vx, vy = x - hx, y - hy, dest.x - hx, dest.y - hy
        angle = np.arctan2(np.abs(ux * vy - uy * vx), ux * vx + uy * vy)
        near = (~(angle > angle.min() * (1 + 2**-40) + 2**-1000)).nonzero()[0]
    if len(near) == 1:
        return rows.item(near[0])
    here = Position(hx, hy)
    columns = (x[near].tolist(), y[near].tolist(), rows[near].tolist())
    pool = [(Position(px, py), r) for px, py, r in zip(*columns)]
    best = min(pool, key=lambda c: (deviation_angle(here, c[0], dest), distance(c[0], dest), c[1]))
    return best[1]


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
    return _greedy_next_hop(
        snapshot, _known_view(known, snapshot), snapshot.row(v_id), dest_pos, exclude
    )


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
    return _greedy_next_hop(
        snapshot, _known_view(known, snapshot), snapshot.row(v_id), ez.center, exclude, ez
    )


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
    destination.  The request zone covers the destination's
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
    for _ in range(ttl):
        if not len(frontier):
            break  # no relay holds the request: zone_unreachable at any ttl
        level = []
        start = 0
        while start < len(frontier) and len(unreached):
            stop = start + max(1, _FLOOD_BLOCK_ENTRIES // len(unreached))
            block = frontier[start:stop]
            reach = _within(snapshot, block, unreached)
            hit = reach.any(axis=0)
            # Each reached row's parent is its first relay in reach order;
            # sorting stably by it keeps ascending ids within one relay.
            first = reach.argmax(axis=0)[hit]
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
    ``lar`` delegates to :func:`lar_route_discovery`.
    """
    if protocol not in PROTOCOLS:
        raise ValueError(f"unknown protocol {protocol!r}, expected one of {PROTOCOLS}")
    if ttl <= 0:
        raise ValueError(f"ttl must be > 0, got {ttl!r}")
    src, dst = snapshot.row(source_id), snapshot.row(dest_id)
    if known_time is not None and known_time > now:
        raise ValueError(f"known_time must be <= now, got {known_time!r} > {now!r}")
    known = _known_view(known, snapshot)
    x, y = snapshot.x, snapshot.y
    dest_last = Position(float(known.x[dst]), float(known.y[dst]))
    t0 = now if known_time is None else known_time
    ez = expected_zone(dest_last, float(snapshot.speed[dst]), t0, now)
    if src == dst:
        return RouteResult(Outcome.DELIVERED, (src,))
    if protocol == "lar":
        return lar_route_discovery(source_id, dest_id, snapshot, ez, ttl)
    dest = Position(x.item(dst), y.item(dst))
    path = [src]
    while True:
        row = path[-1]
        hx, hy = x.item(row), y.item(row)
        # len(path) - 1 hops are spent; the direct final hop needs budget too.
        if len(path) - 1 == ttl:
            return RouteResult(Outcome.TTL_DROP, tuple(path))
        if distance(Position(hx, hy), dest) <= snapshot.transmission_range:
            return RouteResult(Outcome.DELIVERED, (*path, dst))
        if dest_last.x == hx and dest_last.y == hy:
            # Stale knowledge led exactly onto the destination's old spot;
            # there is no direction left to steer by.
            return RouteResult(Outcome.VOID_DROP, tuple(path))
        nxt = _greedy_next_hop(
            snapshot, known, row, dest_last, path, ez if protocol == "dlar" else None
        )
        if nxt is None:
            return RouteResult(Outcome.VOID_DROP, tuple(path))
        path.append(nxt)
