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
from typing import Iterable, Mapping, Optional

from .geometry import Position, deviation_angle, distance, wrap_angle
from .zones import expected_zone, in_request_zone, request_zone

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
        object.__setattr__(self, "heading", wrap_angle(self.heading))


class NetworkSnapshot:
    """An immutable view of all vehicles sharing one transmission range."""

    def __init__(self, vehicles: Iterable[Vehicle], transmission_range: float):
        if not transmission_range > 0:
            raise ValueError(f"transmission_range must be > 0, got {transmission_range!r}")
        self.transmission_range = float(transmission_range)
        self.vehicles: dict[int, Vehicle] = {}
        for vehicle in vehicles:
            if vehicle.id in self.vehicles:
                raise ValueError(f"duplicate vehicle id {vehicle.id}")
            self.vehicles[vehicle.id] = vehicle

    def __len__(self) -> int:
        return len(self.vehicles)

    def __repr__(self) -> str:
        return (
            f"NetworkSnapshot({len(self.vehicles)} vehicles, "
            f"transmission_range={self.transmission_range})"
        )


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


def neighbors(v_id: int, snapshot: NetworkSnapshot) -> list[Vehicle]:
    """Vehicles within transmission range of ``v_id``, boundary inclusive.

    Returned in ascending id order so that downstream selections are
    deterministic.
    """
    if v_id not in snapshot.vehicles:
        raise KeyError(f"unknown vehicle id {v_id}")
    center = snapshot.vehicles[v_id].position
    reach = snapshot.transmission_range
    return [
        u
        for uid, u in sorted(snapshot.vehicles.items())
        if uid != v_id and distance(center, u.position) <= reach
    ]


def _known(vehicle: Vehicle, known_positions: Optional[Mapping[int, Position]]) -> Position:
    return vehicle.position if known_positions is None else known_positions[vehicle.id]


def dir_next_hop(
    current: Vehicle,
    dest_pos: Position,
    snapshot: NetworkSnapshot,
    exclude: Iterable[int] = (),
    known_positions: Optional[Mapping[int, Position]] = None,
) -> Optional[Vehicle]:
    """Compass choice: the neighbor whose direction is closest to ``dest_pos``.

    Candidates are neighbors of ``current`` whose ids are not in ``exclude``
    (the packet's visited trace).  Ties break toward the smaller distance to
    the destination, then the smaller id.  Candidates whose known position
    coincides with the forwarder have no direction and are skipped.  Returns
    None when no candidate exists.
    """
    if dest_pos == current.position:
        raise ValueError("destination position coincides with the forwarder")
    excluded = frozenset(exclude)
    best = None
    best_key = None
    for cand in neighbors(current.id, snapshot):
        if cand.id in excluded:
            continue
        pos = _known(cand, known_positions)
        if pos == current.position:
            continue
        key = (
            deviation_angle(current.position, pos, dest_pos),
            distance(pos, dest_pos),
            cand.id,
        )
        if best_key is None or key < best_key:
            best, best_key = cand, key
    return best


def dlar_next_hop(
    current: Vehicle,
    packet: Packet,
    snapshot: NetworkSnapshot,
    now: float,
    known_positions: Optional[Mapping[int, Position]] = None,
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
    visited = frozenset(packet.visited)
    zone_candidates: list[tuple[Vehicle, Position]] = []
    for cand in neighbors(current.id, snapshot):
        if cand.id in visited:
            continue
        pos = _known(cand, known_positions)
        if pos == current.position:
            continue
        if in_request_zone(pos, rz):
            zone_candidates.append((cand, pos))
    if not zone_candidates:
        return None
    aligned = [
        (cand, pos)
        for cand, pos in zone_candidates
        if abs(wrap_angle(cand.heading - current.heading)) <= HALF_PI
    ]
    pool = aligned if aligned else zone_candidates
    target = packet.dest_last_pos
    return min(
        pool,
        key=lambda cp: (
            deviation_angle(current.position, cp[1], target),
            distance(cp[1], target),
            cp[0].id,
        ),
    )[0]


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
    if source_id not in snapshot.vehicles:
        raise KeyError(f"unknown vehicle id {source_id}")
    if packet.dest_id not in snapshot.vehicles:
        raise KeyError(f"unknown vehicle id {packet.dest_id}")
    if source_id == packet.dest_id:
        return RouteResult(Outcome.DELIVERED, (source_id,), 0)
    source = snapshot.vehicles[source_id]
    rz = request_zone(
        source.position,
        expected_zone(packet.dest_last_pos, packet.dest_speed, packet.t0, now),
    )
    parents: dict[int, Optional[int]] = {source_id: None}
    depth = {source_id: 0}
    queue = deque([source_id])
    while queue:
        uid = queue.popleft()
        if depth[uid] >= packet.ttl:
            continue
        if uid != source_id and not in_request_zone(snapshot.vehicles[uid].position, rz):
            continue  # received the RREQ but discards it
        for cand in neighbors(uid, snapshot):
            if cand.id in parents:
                continue
            parents[cand.id] = uid
            depth[cand.id] = depth[uid] + 1
            if cand.id == packet.dest_id:
                path = _trace_back(parents, cand.id)
                return RouteResult(Outcome.DELIVERED, path, len(path) - 1)
            queue.append(cand.id)
    return RouteResult(Outcome.ZONE_UNREACHABLE, (source_id,), 0)


def route(
    protocol: str,
    source_id: int,
    dest_id: int,
    snapshot: NetworkSnapshot,
    now: float = 0.0,
    ttl: int = DEFAULT_TTL,
    known_positions: Optional[Mapping[int, Position]] = None,
    known_time: Optional[float] = None,
) -> RouteResult:
    """Drive one packet from source to destination under the given protocol.

    ``known_positions``/``known_time`` inject the beacon view: the packet's
    destination knowledge is taken from them, and greedy candidate metrics use
    the known positions, while reachability and the delivery check stay on the
    snapshot's true positions.  Both default to perfect, current knowledge.

    Greedy protocols (``dir``/``dlar``) hop until the destination itself is
    within transmission range (direct final hop) or a drop condition fires;
    ``lar`` delegates to :func:`lar_route_discovery`.
    """
    if protocol not in PROTOCOLS:
        raise ValueError(f"unknown protocol {protocol!r}, expected one of {PROTOCOLS}")
    if ttl <= 0:
        raise ValueError(f"ttl must be > 0, got {ttl!r}")
    for vid in (source_id, dest_id):
        if vid not in snapshot.vehicles:
            raise KeyError(f"unknown vehicle id {vid}")
    if known_time is not None and known_time > now:
        raise ValueError(f"known_time must be <= now, got {known_time!r} > {now!r}")

    dest = snapshot.vehicles[dest_id]
    packet = Packet(
        source_id=source_id,
        dest_id=dest_id,
        dest_last_pos=_known(dest, known_positions),
        dest_speed=dest.speed,
        t0=now if known_time is None else known_time,
        ttl=ttl,
    )
    if protocol == "lar":
        return lar_route_discovery(source_id, packet, snapshot, now)

    if source_id == dest_id:
        return RouteResult(Outcome.DELIVERED, (source_id,), 0)
    current = snapshot.vehicles[source_id]
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
            nxt = dir_next_hop(
                current, packet.dest_last_pos, snapshot, packet.visited, known_positions
            )
        else:
            nxt = dlar_next_hop(current, packet, snapshot, now, known_positions)
        if nxt is None:
            return RouteResult(Outcome.VOID_DROP, tuple(packet.visited), len(packet.visited) - 1)
        packet.visited.append(nxt.id)
        packet.ttl -= 1
        current = nxt
