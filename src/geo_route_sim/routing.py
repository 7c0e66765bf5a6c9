"""Next-hop selection and route discovery for the DIR, LAR, and D-LAR strategies.

All decision functions are pure over an immutable :class:`NetworkSnapshot`.
Knowledge can be degraded to a beacon view (see :func:`route`): physical
reachability and the delivery check always follow the snapshot's true
positions, while the angle metric and zone membership of candidates may use
the stale positions a forwarder would actually know from beacons.
"""

import math
from collections import deque
from dataclasses import dataclass, field
from enum import Enum
from typing import Iterable, Optional

import numpy as np

from .geometry import Position, deviation_angle, distance, wrap_angle
from .zones import RequestZone, expected_zone, in_request_zone, request_zone

DEFAULT_TTL = 64

PROTOCOLS = ("dir", "lar", "dlar")

HALF_PI = math.pi / 2.0


@dataclass(frozen=True)
class Vehicle:
    """A network node: identity, true position, and motion state."""

    id: int
    position: Position
    speed: float = 0.0
    heading: float = 0.0

    def __post_init__(self) -> None:
        if not math.isfinite(self.speed) or self.speed < 0:
            raise ValueError(f"vehicle speed must be finite and >= 0, got {self.speed!r}")
        # A heading already in (-pi, pi] is kept bit for bit, so a vehicle
        # built from a snapshot's columns carries the heading routing uses.
        if not -math.pi < self.heading <= math.pi:
            object.__setattr__(self, "heading", wrap_angle(self.heading))


class NetworkSnapshot:
    """An immutable view of all vehicles sharing one transmission range.

    Motion state lives in read-only numpy columns ``ids``, ``x``, ``y``,
    ``speed`` and ``heading``, in ascending id order.  The ``vehicles`` dict
    is built from them on first use.
    """

    def __init__(self, vehicles: Iterable[Vehicle], transmission_range: float):
        by_id: dict[int, Vehicle] = {}
        for vehicle in vehicles:
            if vehicle.id in by_id:
                raise ValueError(f"duplicate vehicle id {vehicle.id}")
            by_id[vehicle.id] = vehicle
        ordered = [by_id[vid] for vid in sorted(by_id)]
        motion = [(v.position.x, v.position.y, v.speed, v.heading) for v in ordered]
        columns = np.array(motion, dtype=float).reshape(-1, 4).T.copy()
        self._set_columns(transmission_range, np.array(sorted(by_id), dtype=np.int64), *columns)
        self._vehicles = {v.id: v for v in ordered}

    @classmethod
    def from_columns(cls, transmission_range, ids, x, y, speed, heading) -> "NetworkSnapshot":
        """A snapshot over existing columns (``ids`` ascending and distinct);
        no per-vehicle object is built."""
        snapshot = cls.__new__(cls)
        snapshot._set_columns(transmission_range, ids, x, y, speed, heading)
        return snapshot

    def _set_columns(self, transmission_range, ids, x, y, speed, heading) -> None:
        if not transmission_range > 0:
            raise ValueError(f"transmission_range must be > 0, got {transmission_range!r}")
        self.transmission_range = float(transmission_range)
        for column in (ids, x, y, speed, heading):
            column.flags.writeable = False
        self.ids, self.x, self.y, self.speed, self.heading = ids, x, y, speed, heading
        self._vehicles: Optional[dict[int, Vehicle]] = None

    @property
    def vehicles(self) -> dict[int, Vehicle]:
        """Every vehicle by id, in ascending id order."""
        if self._vehicles is None:
            self._vehicles = {vid: self.vehicle(vid) for vid in self.ids.tolist()}
        return self._vehicles

    def row(self, v_id: int) -> int:
        """Column index of vehicle ``v_id``."""
        i = int(np.searchsorted(self.ids, v_id))
        if i == len(self.ids) or self.ids[i] != v_id:
            raise KeyError(f"unknown vehicle id {v_id}")
        return i

    def position(self, v_id: int) -> Position:
        i = self.row(v_id)
        return Position(float(self.x[i]), float(self.y[i]))

    def vehicle(self, v_id: int) -> Vehicle:
        i = self.row(v_id)
        return Vehicle(v_id, self.position(v_id), float(self.speed[i]), float(self.heading[i]))

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


@dataclass
class Packet:
    """A routed unit: destination knowledge plus the hop trace and budget.

    ``dest_last_pos``/``dest_speed``/``t0`` are what the sender knew about the
    destination when it last heard a beacon; the visited list doubles as the
    loop guard and the delivered-path record.
    """

    source_id: int
    dest_id: int
    dest_last_pos: Position
    dest_speed: float
    t0: float
    visited: list[int] = field(default_factory=list)
    ttl: int = DEFAULT_TTL

    def __post_init__(self) -> None:
        if not self.visited:
            self.visited = [self.source_id]
        if self.visited[0] != self.source_id:
            raise ValueError("packet visited trace must begin with the source id")
        if len(set(self.visited)) != len(self.visited):
            raise ValueError("packet visited trace repeats a vehicle id")
        if self.dest_speed < 0:
            raise ValueError(f"dest_speed must be >= 0, got {self.dest_speed!r}")
        if self.ttl < 0:
            raise ValueError(f"ttl must be >= 0, got {self.ttl!r}")


@dataclass(frozen=True)
class RouteResult:
    """Outcome of one routing attempt, with the realized hop trace."""

    outcome: Outcome
    path: tuple[int, ...]
    hop_count: int


def neighbors(v_id: int, snapshot: NetworkSnapshot) -> list[int]:
    """Ids of the vehicles within transmission range of ``v_id``, boundary
    inclusive, in ascending order so that downstream selections are
    deterministic.  ``np.hypot`` and :func:`distance` can differ in the last
    bit, so distances within a few ulps of the range are settled by the latter.
    """
    i = snapshot.row(v_id)
    x, y, reach = snapshot.x, snapshot.y, snapshot.transmission_range
    d = np.hypot(x - x[i], y - y[i])
    inside = d <= reach
    for j in np.flatnonzero(abs(d - reach) <= 4 * np.spacing(reach)).tolist():
        inside[j] = distance(Position(x[i], y[i]), Position(x[j], y[j])) <= reach
    inside[i] = False
    return snapshot.ids[inside].tolist()


def _known_view(known: Optional[NetworkSnapshot], snapshot: NetworkSnapshot) -> NetworkSnapshot:
    """``known`` checked to hold ``snapshot``'s vehicles, or ``snapshot`` when None."""
    if known is None:
        return snapshot
    if known.ids is not snapshot.ids and not np.array_equal(known.ids, snapshot.ids):
        raise ValueError("known must hold the same vehicle ids as the snapshot")
    return known


def _greedy_next_hop(current, dest, snapshot, known, exclude, zone=None) -> Optional[Vehicle]:
    """The compass choice shared by DIR and D-LAR.

    Candidates are neighbors of ``current`` whose ids are not in ``exclude``;
    a candidate whose known position coincides with the forwarder has no
    direction and is skipped.  With a request ``zone`` (D-LAR), candidates
    must lie inside it, and those heading within pi/2 of the forwarder are
    preferred when there are any.  The winner minimises (deviation angle
    toward ``dest``, distance to ``dest``, id).
    """
    known = _known_view(known, snapshot)
    excluded = frozenset(exclude)
    ids = [u for u in neighbors(current.id, snapshot) if u not in excluded]
    rows = np.searchsorted(snapshot.ids, ids)
    here = current.position
    columns = (known.x[rows].tolist(), known.y[rows].tolist(), snapshot.heading[rows].tolist())
    pool = [(vid, Position(x, y), h) for vid, x, y, h in zip(ids, *columns)]
    pool = [c for c in pool if c[1] != here and (zone is None or in_request_zone(c[1], zone))]
    if zone is not None:
        aligned = [c for c in pool if abs(wrap_angle(c[2] - current.heading)) <= HALF_PI]
        pool = aligned or pool
    if not pool:
        return None
    best = min(pool, key=lambda c: (deviation_angle(here, c[1], dest), distance(c[1], dest), c[0]))
    return snapshot.vehicle(best[0])


def dir_next_hop(
    current: Vehicle,
    dest_pos: Position,
    snapshot: NetworkSnapshot,
    exclude: Iterable[int] = (),
    known: Optional[NetworkSnapshot] = None,
) -> Optional[Vehicle]:
    """Compass choice: the neighbor whose direction is closest to ``dest_pos``.

    Candidates are neighbors of ``current`` whose ids are not in ``exclude``
    (the packet's visited trace), measured at their positions in ``known``
    (default: ``snapshot``).  Ties break toward the smaller distance to the
    destination, then the smaller id.  Returns None when no candidate exists.
    """
    if dest_pos == current.position:
        raise ValueError("destination position coincides with the forwarder")
    return _greedy_next_hop(current, dest_pos, snapshot, known, exclude)


def dlar_next_hop(
    current: Vehicle,
    packet: Packet,
    snapshot: NetworkSnapshot,
    now: float,
    known: Optional[NetworkSnapshot] = None,
) -> Optional[Vehicle]:
    """Zone-restricted compass choice with a same-heading preference.

    The request zone is re-anchored at the forwarder and sized from the
    packet's destination knowledge at time ``now``.  Candidates are unvisited
    neighbors whose known position lies inside the zone; among them, vehicles
    heading within pi/2 of the forwarder's heading are preferred, falling back
    to every zone candidate when none is aligned.  Ties break as in
    :func:`dir_next_hop`.
    """
    if now < packet.t0:
        raise ValueError(f"now must be >= packet.t0, got now={now!r}, t0={packet.t0!r}")
    if packet.dest_last_pos == current.position:
        raise ValueError("destination position coincides with the forwarder")
    rz = request_zone(
        current.position,
        expected_zone(packet.dest_last_pos, packet.dest_speed, packet.t0, now),
    )
    return _greedy_next_hop(current, packet.dest_last_pos, snapshot, known, packet.visited, rz)


def _trace_back(parents: dict[int, Optional[int]], node_id: int) -> tuple[int, ...]:
    path = [node_id]
    while parents[path[-1]] is not None:
        path.append(parents[path[-1]])
    path.reverse()
    return tuple(path)


def lar_route_discovery(
    source_id: int,
    packet: Packet,
    snapshot: NetworkSnapshot,
    now: float,
) -> RouteResult:
    """Zone-gated RREQ flooding, reported as the first (minimum-hop) arrival.

    The request zone is anchored at the source once, for the whole discovery.
    A node rebroadcasts only if its own position lies inside that zone; the
    destination may receive from a zone relay without being a member itself.
    Breadth-first exploration in ascending id order makes the reported path
    deterministic.  The packet's ttl bounds the flood depth.  There is no
    fallback to unrestricted flooding: an out-of-zone cut is reported as
    ``zone_unreachable``.
    """
    source = snapshot.position(source_id)
    snapshot.row(packet.dest_id)  # KeyError when unknown
    if source_id == packet.dest_id:
        return RouteResult(Outcome.DELIVERED, (source_id,), 0)
    rz = request_zone(
        source,
        expected_zone(packet.dest_last_pos, packet.dest_speed, packet.t0, now),
    )
    parents: dict[int, Optional[int]] = {source_id: None}
    depth = {source_id: 0}
    queue = deque([source_id])
    while queue:
        uid = queue.popleft()
        if depth[uid] >= packet.ttl:
            continue
        if uid != source_id and not in_request_zone(snapshot.position(uid), rz):
            continue  # received the RREQ but discards it
        for cand in neighbors(uid, snapshot):
            if cand in parents:
                continue
            parents[cand] = uid
            depth[cand] = depth[uid] + 1
            if cand == packet.dest_id:
                path = _trace_back(parents, cand)
                return RouteResult(Outcome.DELIVERED, path, len(path) - 1)
            queue.append(cand)
    return RouteResult(Outcome.ZONE_UNREACHABLE, (source_id,), 0)


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
    current = snapshot.vehicle(source_id)
    dest = snapshot.vehicle(dest_id)
    if known_time is not None and known_time > now:
        raise ValueError(f"known_time must be <= now, got {known_time!r} > {now!r}")
    known = _known_view(known, snapshot)

    packet = Packet(
        source_id=source_id,
        dest_id=dest_id,
        dest_last_pos=known.position(dest_id),
        dest_speed=dest.speed,
        t0=now if known_time is None else known_time,
        ttl=ttl,
    )
    if protocol == "lar":
        return lar_route_discovery(source_id, packet, snapshot, now)

    if source_id == dest_id:
        return RouteResult(Outcome.DELIVERED, (source_id,), 0)
    while True:
        # The direct final hop is a forwarding hop too, so it needs budget.
        if packet.ttl >= 1 and distance(current.position, dest.position) <= snapshot.transmission_range:
            path = tuple(packet.visited) + (dest_id,)
            return RouteResult(Outcome.DELIVERED, path, len(path) - 1)
        if packet.ttl <= 0:
            return RouteResult(Outcome.TTL_DROP, tuple(packet.visited), len(packet.visited) - 1)
        if packet.dest_last_pos == current.position:
            # Stale knowledge led exactly onto the destination's old spot;
            # there is no direction left to steer by.
            return RouteResult(Outcome.VOID_DROP, tuple(packet.visited), len(packet.visited) - 1)
        if protocol == "dir":
            nxt = dir_next_hop(current, packet.dest_last_pos, snapshot, packet.visited, known)
        else:
            nxt = dlar_next_hop(current, packet, snapshot, now, known)
        if nxt is None:
            return RouteResult(Outcome.VOID_DROP, tuple(packet.visited), len(packet.visited) - 1)
        packet.visited.append(nxt.id)
        packet.ttl -= 1
        current = nxt
