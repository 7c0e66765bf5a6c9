"""Next-hop selection and route discovery for the DIR, LAR, and D-LAR strategies.

All decision functions are pure over an immutable :class:`NetworkSnapshot`.
Knowledge can be degraded to a beacon view (see :func:`route`): physical
reachability and the delivery check always follow the snapshot's true
positions, while the angle metric and zone membership of candidates may use
the stale positions a forwarder would actually know from beacons.

Inside this module a vehicle is its row in the snapshot's columns; ids
appear only at the public functions.
"""

import math
import weakref
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
# temporary); a level's frontier is cut into blocks of rows to stay under it.
_FLOOD_BLOCK_ENTRIES = 2**18

# Ids and speed columns that passed their check and were made read-only, by
# id(): a snapshot moved in time (netsim._reflect) carries both over
# unchanged, so they are checked only when first seen.  Ids are integer and
# speeds float, so an entry's role is never in doubt.
_checked: "weakref.WeakValueDictionary[int, np.ndarray]" = weakref.WeakValueDictionary()


class NetworkSnapshot:
    """An immutable view of all vehicles sharing one transmission range.

    Motion state lives in read-only numpy columns ``ids``, ``x``, ``y``,
    ``speed`` and ``heading``; vehicle ``ids[i]`` sits at row ``i``.  Ids
    are integers in strictly ascending order, positions and headings are
    finite, and speeds are finite and >= 0.  Columns that already are numpy
    arrays of the right type are used without a copy and made read-only.
    """

    def __init__(self, transmission_range: float, ids, x, y, speed, heading):
        if not transmission_range > 0:
            raise ValueError(f"transmission_range must be > 0, got {transmission_range!r}")
        ids = np.asarray(ids)
        if ids.size == 0:
            ids = ids.astype(np.int64)  # an empty list comes out as float64
        if ids.ndim != 1 or ids.dtype.kind not in "iu":
            raise ValueError(f"ids must be 1-D integers, got {ids.dtype} of shape {ids.shape}")
        x, y, speed, heading = (np.asarray(c, dtype=float) for c in (x, y, speed, heading))
        if not x.shape == y.shape == speed.shape == heading.shape == ids.shape:
            raise ValueError("x, y, speed and heading must each hold one value per id")
        if _checked.get(id(ids)) is not ids:
            if not (ids[1:] > ids[:-1]).all():
                raise ValueError("ids must be in strictly ascending order")
            ids.flags.writeable = False
            _checked[id(ids)] = ids
        if not np.isfinite((x, y, heading)).all():
            raise ValueError("x, y and heading must be finite")
        if _checked.get(id(speed)) is not speed:
            if not ((0.0 <= speed) & (speed < math.inf)).all():
                raise ValueError("speed must be finite and >= 0")
            speed.flags.writeable = False
            _checked[id(speed)] = speed
        for column in (x, y, heading):
            column.flags.writeable = False
        self.transmission_range = float(transmission_range)
        self.ids, self.x, self.y, self.speed, self.heading = ids, x, y, speed, heading

    def row(self, v_id: int) -> int:
        """Column index of vehicle ``v_id``."""
        i = int(np.searchsorted(self.ids, v_id))
        if i == len(self.ids) or self.ids[i] != v_id:
            raise KeyError(f"unknown vehicle id {v_id}")
        return i

    def __len__(self) -> int:
        return len(self.ids)

    def __repr__(self) -> str:
        reach = self.transmission_range
        return f"NetworkSnapshot({len(self)} vehicles, transmission_range={reach})"


class Outcome(str, Enum):
    DELIVERED = "delivered"
    VOID_DROP = "void_drop"
    TTL_DROP = "ttl_drop"
    # Never produced (candidate filters exclude visited ids); kept so the
    # CSV's loop_drops column stays in the schema.
    LOOP_DROP = "loop_drop"
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


def _ids(snapshot: NetworkSnapshot, rows) -> tuple[int, ...]:
    return tuple(snapshot.ids[rows].tolist())


def _within(snapshot: NetworkSnapshot, rows, cols) -> np.ndarray:
    """Reach matrix: entry (i, j) says whether ``cols[j]`` lies within
    transmission range of ``rows[i]``, boundary inclusive (a row reaches
    itself).  ``rows`` is an index array, ``cols`` an index array or slice.

    Membership equals ``distance(a, b) <= R`` exactly, for every range.  With
    ``R = m * 2**e`` (``0.5 <= m < 1``), the coordinate differences are
    scaled by ``2**-e`` before squaring; a power of two scales exactly, so
    ``R**2`` becomes ``m**2`` and can neither overflow nor go subnormal.  The
    squared distance then carries at most a 3-ulp rounding error, against
    the 1-ulp error of ``math.hypot``, so the two can disagree only when d²
    lies within a relative 2**-50 of R²; pairs within 2**-48 of it are
    settled by :func:`distance`.  Below the normal range an ulp of
    ``math.hypot`` is 2**-1074 however small R is, and the band widens to
    match.
    """
    x, y, reach = snapshot.x, snapshot.y, snapshot.transmission_range
    m, e = math.frexp(reach)
    # A square that overflows to inf lies far outside any finite range.
    with np.errstate(over="ignore"):
        d2 = x[cols] - x[rows, None]
        np.ldexp(d2, -e, out=d2)
        d2 *= d2
        dy = y[cols] - y[rows, None]
        np.ldexp(dy, -e, out=dy)
        dy *= dy
        d2 += dy
    r2 = m * m
    band = max(2.0**-48, 2.0**-1070 / reach)
    inside = d2 <= r2 * (1.0 + band)
    edge = inside & (d2 >= r2 * (1.0 - band))
    if edge.any():
        i, j = np.nonzero(edge)
        p, q = np.asarray(rows)[i], np.arange(len(x))[cols][j]
        here, there = zip(x[p].tolist(), y[p].tolist()), zip(x[q].tolist(), y[q].tolist())
        for a, b, h, t in zip(i.tolist(), j.tolist(), here, there):
            inside[a, b] = distance(Position(*h), Position(*t)) <= reach
    return inside


def _in_range(snapshot: NetworkSnapshot, row: int) -> np.ndarray:
    """Mask of the rows within transmission range of ``row``, boundary
    inclusive, ``row`` itself excluded."""
    inside = _within(snapshot, [row], slice(None))[0]
    inside[row] = False
    return inside


def neighbors(v_id: int, snapshot: NetworkSnapshot) -> list[int]:
    """Ids of the vehicles within transmission range of ``v_id``, boundary
    inclusive, in ascending order so that downstream selections are
    deterministic."""
    return snapshot.ids[_in_range(snapshot, snapshot.row(v_id))].tolist()


def _known_view(known: Optional[NetworkSnapshot], snapshot: NetworkSnapshot) -> NetworkSnapshot:
    """``known`` checked to hold ``snapshot``'s vehicles, or ``snapshot`` when None."""
    if known is None:
        return snapshot
    if known.ids is not snapshot.ids and not np.array_equal(known.ids, snapshot.ids):
        raise ValueError("known must hold the same vehicle ids as the snapshot")
    return known


def _greedy_next_hop(
    snapshot, known, row, here, heading, dest, exclude, zone=None
) -> Optional[int]:
    """The compass choice shared by DIR and D-LAR, over snapshot rows.

    ``row`` is the forwarder, at true position ``here`` with ``heading``.
    Candidates are its neighbors outside the ``exclude`` rows; a candidate
    whose ``known`` position coincides with ``here`` has no direction and is
    skipped.  With a request ``zone`` (D-LAR), candidates must lie inside it,
    and those heading within pi/2 of the forwarder are preferred when there
    are any.  The winner, a row, minimises (deviation angle toward ``dest``,
    distance to ``dest``, row); rows are in id order.

    The pool's angles are computed as arrays from the products
    :func:`deviation_angle` forms; numpy's ``arctan2`` may differ from
    ``math.atan2`` by an ulp, so the candidates within a relative 2**-40
    (plus 2**-1000) of the least angle are settled by the exact scalar key.
    A product that overflows makes the cut NaN, which keeps every candidate.
    """
    inside = _in_range(snapshot, row)
    inside[exclude] = False
    rows = np.flatnonzero(inside)
    x, y = known.x[rows], known.y[rows]
    keep = (x != here.x) | (y != here.y)
    if zone is not None:
        keep &= in_request_zone(x, y, zone)
        aligned = keep & (np.abs(wrap_angle(snapshot.heading[rows] - heading)) <= HALF_PI)
        keep = aligned if aligned.any() else keep
    x, y, rows = x[keep], y[keep], rows[keep]
    if not len(rows):
        return None
    ux, uy, vx, vy = x - here.x, y - here.y, dest.x - here.x, dest.y - here.y
    with np.errstate(over="ignore", invalid="ignore"):
        angle = np.arctan2(np.abs(ux * vy - uy * vx), ux * vx + uy * vy)
        near = np.flatnonzero(~(angle > angle.min() * (1 + 2**-40) + 2**-1000))
    columns = (x[near].tolist(), y[near].tolist(), rows[near].tolist())
    pool = [(Position(px, py), r) for px, py, r in zip(*columns)]
    best = min(pool, key=lambda c: (deviation_angle(here, c[0], dest), distance(c[0], dest), c[1]))
    return best[1]


def _next_hop(v_id, dest, snapshot, exclude, known, ez=None) -> Optional[int]:
    """:func:`_greedy_next_hop` behind the public seams: the forwarder is
    named by id and read from its snapshot row, and the choice is an id.
    With an expected zone ``ez``, the request zone is anchored at the
    forwarder (D-LAR)."""
    row = snapshot.row(v_id)
    here = Position(float(snapshot.x[row]), float(snapshot.y[row]))
    if dest == here:
        raise ValueError("destination position coincides with the forwarder")
    zone = None if ez is None else request_zone(here, ez)
    excluded = np.flatnonzero(np.isin(snapshot.ids, list(exclude)))
    best = _greedy_next_hop(
        snapshot, _known_view(known, snapshot), row, here,
        float(snapshot.heading[row]), dest, excluded, zone,
    )
    return None if best is None else int(snapshot.ids[best])


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
    return _next_hop(v_id, dest_pos, snapshot, exclude, known)


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
    return _next_hop(v_id, ez.center, snapshot, exclude, known, ez)


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
    is computed in blocks of relays against all unreached rows at once,
    which keeps that order.  The request zone covers the destination's
    expected zone ``ez``.  ``ttl`` (> 0) bounds the number of levels: a flood
    cut while zone relays still hold the request is a ``ttl_drop``.  There is
    no fallback to unrestricted flooding: an out-of-zone cut is reported as
    ``zone_unreachable``.
    """
    if ttl <= 0:
        raise ValueError(f"ttl must be > 0, got {ttl!r}")
    src, dst = snapshot.row(source_id), snapshot.row(dest_id)
    if src == dst:
        return RouteResult(Outcome.DELIVERED, (source_id,))
    x, y = snapshot.x, snapshot.y
    # The source always lies inside its own request zone, so it relays.
    relays = in_request_zone(x, y, request_zone(Position(float(x[src]), float(y[src])), ez))
    parent = np.full(len(snapshot), -1)  # -1: not reached yet
    parent[src] = src
    unreached = np.flatnonzero(parent < 0)
    frontier = np.array([src])
    for _ in range(ttl):
        level = []
        start = 0
        while start < len(frontier) and len(unreached):
            stop = start + max(1, _FLOOD_BLOCK_ENTRIES // len(unreached))
            block = frontier[start:stop]
            reach = _within(snapshot, block, unreached)
            hit = reach.any(axis=0)
            # Each reached row's parent is its first relay in reach order;
            # sorting stably by it keeps ascending ids within one relay.
            first = reach[:, hit].argmax(axis=0)
            order = np.argsort(first, kind="stable")
            new = unreached[hit][order]
            parent[new] = block[first[order]]
            if parent[dst] >= 0:
                path = [dst]
                while path[-1] != src:
                    path.append(int(parent[path[-1]]))
                return RouteResult(Outcome.DELIVERED, _ids(snapshot, path[::-1]))
            unreached = unreached[~hit]
            level.append(new[relays[new]])
            start = stop
        frontier = np.concatenate(level) if level else frontier[:0]
    outcome = Outcome.TTL_DROP if len(frontier) else Outcome.ZONE_UNREACHABLE
    return RouteResult(outcome, (source_id,))


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
    if src == dst:
        return RouteResult(Outcome.DELIVERED, (source_id,))
    x, y = snapshot.x, snapshot.y
    dest_last = Position(float(known.x[dst]), float(known.y[dst]))
    t0 = now if known_time is None else known_time
    ez = expected_zone(dest_last, float(snapshot.speed[dst]), t0, now)
    if protocol == "lar":
        return lar_route_discovery(source_id, dest_id, snapshot, ez, ttl)
    dest = Position(float(x[dst]), float(y[dst]))
    path = [src]
    while True:
        row = path[-1]
        here = Position(float(x[row]), float(y[row]))
        # len(path) - 1 hops are spent; the direct final hop needs budget too.
        if len(path) - 1 == ttl:
            return RouteResult(Outcome.TTL_DROP, _ids(snapshot, path))
        if distance(here, dest) <= snapshot.transmission_range:
            return RouteResult(Outcome.DELIVERED, _ids(snapshot, path + [dst]))
        if dest_last == here:
            # Stale knowledge led exactly onto the destination's old spot;
            # there is no direction left to steer by.
            return RouteResult(Outcome.VOID_DROP, _ids(snapshot, path))
        zone = request_zone(here, ez) if protocol == "dlar" else None
        heading = float(snapshot.heading[row])
        nxt = _greedy_next_hop(snapshot, known, row, here, heading, dest_last, path, zone)
        if nxt is None:
            return RouteResult(Outcome.VOID_DROP, _ids(snapshot, path))
        path.append(nxt)
