"""Independent reference implementations used to cross-check the package.

Everything here is deliberately written from first principles (acos-based
angles, inline rectangle arithmetic, plain BFS) rather than by calling the
code under test; :func:`greedy_by_scalar_min` is the one exception, kept as
the scalar reference of the greedy chooser's exact ranking, with
:func:`route_by_hops`, which drives it (or the acos oracles) one hop at a
time.  Snapshots are read through their public columns only.
"""

import hashlib
import math
import random
from collections import deque

import numpy as np

from geo_route_sim.geometry import Position, deviation_angle, distance, wrap_angle
from geo_route_sim.routing import HALF_PI, NetworkSnapshot, Outcome, RouteResult
from geo_route_sim.zones import expected_zone, in_request_zone, request_zone


def make_snapshot(points, tx, headings=None, speeds=None) -> NetworkSnapshot:
    """Vehicles 0..n-1 at ``points`` (x, y pairs); ``headings`` and
    ``speeds`` map an id to its value, which defaults to 0."""
    headings = headings or {}
    speeds = speeds or {}
    ids = range(len(points))
    x = np.array([float(p[0]) for p in points])
    y = np.array([float(p[1]) for p in points])
    speed = np.array([float(speeds.get(i, 0.0)) for i in ids])
    heading = np.array([float(headings.get(i, 0.0)) for i in ids])
    return NetworkSnapshot(tx, x, y, speed, heading)


def coordinates(snapshot: NetworkSnapshot) -> dict[int, tuple[float, float]]:
    """Every vehicle's (x, y) by id, in ascending id order."""
    return dict(enumerate(zip(snapshot.x.tolist(), snapshot.y.tolist())))


def position(snapshot: NetworkSnapshot, v_id: int) -> Position:
    return Position(*coordinates(snapshot)[v_id])


def snapshot_digest(snapshot: NetworkSnapshot) -> str:
    """Stable digest of a snapshot, for asserting identical placements.
    Each vehicle's tuple leads with its id (its row), which keeps the
    recorded digests' payload byte for byte."""
    columns = (np.arange(len(snapshot)), snapshot.x, snapshot.y, snapshot.speed, snapshot.heading)
    payload = repr((snapshot.transmission_range, tuple(zip(*(c.tolist() for c in columns)))))
    return hashlib.blake2s(payload.encode()).hexdigest()


def bearing(origin: Position, target: Position) -> float:
    """Direction of the vector from ``origin`` to ``target``, in (-pi, pi].

    Uses the full-quadrant (two-argument) arctangent so that targets west of
    the origin resolve to the correct half-plane.
    """
    if target == origin:
        raise ValueError("bearing is undefined for coincident positions")
    angle = math.atan2(target.y - origin.y, target.x - origin.x)
    # atan2 may return -pi for directions along the -x axis; fold onto +pi.
    return math.pi if angle <= -math.pi else angle


def dist(ax, ay, bx, by):
    return math.sqrt((bx - ax) ** 2 + (by - ay) ** 2)


def angle_between(px, py, ax, ay, bx, by):
    """Unsigned angle at (px,py) between rays to (ax,ay) and (bx,by), via acos."""
    ux, uy = ax - px, ay - py
    vx, vy = bx - px, by - py
    nu = math.sqrt(ux * ux + uy * uy)
    nv = math.sqrt(vx * vx + vy * vy)
    cos_value = (ux * vx + uy * vy) / (nu * nv)
    return math.acos(max(-1.0, min(1.0, cos_value)))


def heading_gap(a, b):
    """|a - b| wrapped to [0, pi]."""
    diff = (a - b + math.pi) % (2 * math.pi) - math.pi
    return abs(diff)


def rect_from(anchor_x, anchor_y, center_x, center_y, radius):
    return (
        min(anchor_x, center_x - radius),
        min(anchor_y, center_y - radius),
        max(anchor_x, center_x + radius),
        max(anchor_y, center_y + radius),
    )


def rect_contains(rect, x, y):
    return rect[0] <= x <= rect[2] and rect[1] <= y <= rect[3]


def neighbor_ids(snapshot: NetworkSnapshot, v_id: int) -> set[int]:
    at = coordinates(snapshot)
    vx, vy = at[v_id]
    reach = snapshot.transmission_range
    return {uid for uid, (ux, uy) in at.items() if uid != v_id and dist(vx, vy, ux, uy) <= reach}


def dir_candidates(snapshot, v_id, exclude) -> set[int]:
    excluded = set(exclude)
    at = coordinates(snapshot)
    return {
        uid
        for uid in neighbor_ids(snapshot, v_id)
        if uid not in excluded and at[uid] != at[v_id]
    }


def argmin_next_hop(snapshot, v_id, target_x, target_y, candidate_ids):
    at = coordinates(snapshot)
    vx, vy = at[v_id]
    best = None
    best_key = None
    for uid in candidate_ids:
        px, py = at[uid]
        key = (
            angle_between(vx, vy, px, py, target_x, target_y),
            dist(px, py, target_x, target_y),
            uid,
        )
        if best_key is None or key < best_key:
            best, best_key = uid, key
    return best


def greedy_by_scalar_min(snapshot, known, row, here, heading, dest, exclude, zone=None):
    """The greedy chooser ranked wholly by the scalar key: every candidate's
    ``(deviation_angle, distance, row)`` through one Python ``min``, with the
    candidate filters of ``routing._next_hops``.  The forwarder's
    position ``here``, its ``heading`` and the request ``zone`` (D-LAR;
    None for DIR) are given explicitly rather than derived from ``row``, and
    ``exclude`` holds rows only.  Unlike the acos oracle above it shares the
    package's exact key, so it pins the chooser's tie-breaking bit for bit.
    Neighbors are taken pair by pair by :func:`distance`, the definition the
    package's range test must meet, not from the range test itself."""
    at = [Position(px, py) for px, py in zip(snapshot.x.tolist(), snapshot.y.tolist())]
    reach = snapshot.transmission_range
    inside = np.array([distance(at[row], p) <= reach for p in at])
    inside[[row, *exclude]] = False
    rows = np.flatnonzero(inside)
    x, y = known.x[rows], known.y[rows]
    keep = (x != here.x) | (y != here.y)
    if zone is not None:
        keep &= in_request_zone(x, y, zone)
        aligned = keep & (np.abs(wrap_angle(snapshot.heading[rows] - heading)) <= HALF_PI)
        keep = aligned if aligned.any() else keep
    columns = (x[keep].tolist(), y[keep].tolist(), rows[keep].tolist())
    pool = [(Position(px, py), r) for px, py, r in zip(*columns)]
    if not pool:
        return None
    best = min(pool, key=lambda c: (deviation_angle(here, c[0], dest), distance(c[0], dest), c[1]))
    return best[1]


def dir_oracle(snapshot, v_id, target_x, target_y, exclude):
    return argmin_next_hop(
        snapshot, v_id, target_x, target_y, dir_candidates(snapshot, v_id, exclude)
    )


def dlar_candidates(snapshot, v_id, ez, exclude) -> set[int]:
    """D-LAR's candidates at vehicle ``v_id`` for the expected zone ``ez``."""
    at = coordinates(snapshot)
    vx, vy = at[v_id]
    rect = rect_from(vx, vy, ez.center.x, ez.center.y, ez.radius)
    zone = {uid for uid in dir_candidates(snapshot, v_id, exclude) if rect_contains(rect, *at[uid])}
    headings = dict(enumerate(snapshot.heading.tolist()))
    aligned = {uid for uid in zone if heading_gap(headings[uid], headings[v_id]) <= math.pi / 2}
    return aligned if aligned else zone


def dlar_oracle(snapshot, v_id, ez, exclude):
    return argmin_next_hop(
        snapshot, v_id, ez.center.x, ez.center.y, dlar_candidates(snapshot, v_id, ez, exclude)
    )


def route_by_hops(protocol, src, dst, snapshot, now=0.0, ttl=64, known=None, known_time=None,
                  acos=False) -> RouteResult:
    """A DIR or D-LAR packet driven one hop at a time, each hop decided alone.

    At each forwarder the ttl is spent first; then a forwarder within range
    of the destination's true position hands the packet over, and one that
    stands on the destination's known spot stops with no direction left;
    otherwise the packet moves to the hop chosen toward that spot (D-LAR:
    inside the request zone anchored at the forwarder, for the expected zone
    of the destination's known speed over the lag).  The choice is
    :func:`greedy_by_scalar_min`'s, or with ``acos`` that of
    :func:`dir_oracle` or :func:`dlar_oracle`, which take no lagged view.
    """
    if src == dst:
        return RouteResult(Outcome.DELIVERED, (src,))
    known = snapshot if known is None else known
    dest = position(known, dst)
    ez = expected_zone(dest, snapshot.speed.item(dst), now if known_time is None else known_time, now)
    path = [src]
    while len(path) <= ttl:
        row = path[-1]
        here = position(snapshot, row)
        if distance(here, position(snapshot, dst)) <= snapshot.transmission_range:
            return RouteResult(Outcome.DELIVERED, (*path, dst))
        if here == dest:
            return RouteResult(Outcome.VOID_DROP, tuple(path))
        if acos:
            assert known is snapshot
            nxt = (dir_oracle(snapshot, row, dest.x, dest.y, path) if protocol == "dir"
                   else dlar_oracle(snapshot, row, ez, path))
        else:
            zone = request_zone(here, ez) if protocol == "dlar" else None
            nxt = greedy_by_scalar_min(snapshot, known, row, here, snapshot.heading.item(row),
                                       dest, path, zone)
        if nxt is None:
            return RouteResult(Outcome.VOID_DROP, tuple(path))
        path.append(nxt)
    return RouteResult(Outcome.TTL_DROP, tuple(path))


def lar_bfs_oracle(snapshot, source_id, dest_id, dest_last_x, dest_last_y, radius):
    """(delivered, hops) by BFS on the zone-induced subgraph plus endpoints."""
    at = coordinates(snapshot)
    rect = rect_from(*at[source_id], dest_last_x, dest_last_y, radius)
    members = {uid for uid, (ux, uy) in at.items() if rect_contains(rect, ux, uy)}
    members |= {source_id, dest_id}
    if source_id == dest_id:
        return True, 0
    depth = {source_id: 0}
    queue = deque([source_id])
    while queue:
        uid = queue.popleft()
        if uid == dest_id:
            continue  # the destination receives but is never a relay
        for vid in sorted(neighbor_ids(snapshot, uid)):
            if vid in members and vid not in depth:
                depth[vid] = depth[uid] + 1
                if vid == dest_id:
                    return True, depth[vid]
                queue.append(vid)
    return False, None


def lar_flood_by_relay(source_id, dest_id, snapshot: NetworkSnapshot, ez, ttl) -> RouteResult:
    """LAR discovery flooded one relay at a time.

    Level by level, each relay in the order it was reached claims its
    unreached neighbors (``math.hypot`` distance at most the range) in
    ascending id order; claimed vehicles inside the source-anchored request
    zone relay on the next level.  The reported path follows the claiming
    relays back from the destination; the zone covers the expected zone
    ``ez``.  The ttl bounds the number of levels: a
    flood cut while relays still hold the request is a ``ttl_drop``, one that
    dies out a ``zone_unreachable``.
    """
    if source_id == dest_id:
        return RouteResult(Outcome.DELIVERED, (source_id,))
    reach = snapshot.transmission_range
    at = coordinates(snapshot)
    rect = rect_from(*at[source_id], ez.center.x, ez.center.y, ez.radius)
    parent = {source_id: source_id}
    frontier = [source_id]
    for _ in range(ttl):
        level = []
        for relay in frontier:
            rx, ry = at[relay]
            for vid, (vx, vy) in at.items():
                if vid not in parent and math.hypot(vx - rx, vy - ry) <= reach:
                    parent[vid] = relay
                    if rect_contains(rect, vx, vy):
                        level.append(vid)
            if dest_id in parent:
                path = [dest_id]
                while path[-1] != source_id:
                    path.append(parent[path[-1]])
                return RouteResult(Outcome.DELIVERED, tuple(path[::-1]))
        frontier = level
    outcome = Outcome.TTL_DROP if frontier else Outcome.ZONE_UNREACHABLE
    return RouteResult(outcome, (source_id,))


def random_snapshot(rng: random.Random, n=None, size=1000.0, tx=None) -> NetworkSnapshot:
    n = n if n is not None else rng.randint(2, 60)
    tx = tx if tx is not None else rng.uniform(80.0, 300.0)
    motion = [
        (rng.uniform(0, size), rng.uniform(0, size), rng.uniform(0.0, 25.0),
         rng.uniform(-math.pi, math.pi))
        for _ in range(n)
    ]
    x, y, speed, heading = np.array(motion, dtype=float).reshape(-1, 4).T.copy()
    return NetworkSnapshot(tx, x, y, speed, heading)


def advance_by_stepping(x, y, speed, heading, dt, width, height):
    """(x, y, speed, heading) of a vehicle moved ``dt`` seconds in a straight
    line, folding each boundary crossing back into the field one reflection
    at a time; the heading is mirrored on each axis crossed an odd number of
    times."""
    x += speed * dt * math.cos(heading)
    y += speed * dt * math.sin(heading)
    flip_x = flip_y = False
    while not (0.0 <= x <= width and 0.0 <= y <= height):
        if x < 0.0:
            x = -x
            flip_x = not flip_x
        elif x > width:
            x = 2.0 * width - x
            flip_x = not flip_x
        if y < 0.0:
            y = -y
            flip_y = not flip_y
        elif y > height:
            y = 2.0 * height - y
            flip_y = not flip_y
    heading = math.pi - heading if flip_x else heading
    return x, y, speed, -heading if flip_y else heading


def moved_by_mod(start: NetworkSnapshot, t, width, height, cos, sin):
    """(x, y, heading) columns of ``start`` moved ``t`` seconds by the closed
    form as first written: ``np.mod`` folds and ``np.where`` reflections,
    every step a fresh array.  ``netsim.step_mobility`` must give these bits."""
    ux = np.mod(start.x + start.speed * t * cos, 2.0 * width)
    uy = np.mod(start.y + start.speed * t * sin, 2.0 * height)
    flip_x, flip_y = ux > width, uy > height
    heading = np.where(flip_x, math.pi - start.heading, start.heading)
    heading = np.where(flip_y, -heading, heading)
    ux = np.where(flip_x, 2.0 * width - ux, ux)
    uy = np.where(flip_y, 2.0 * height - uy, uy)
    return ux, uy, math.pi - np.mod(math.pi - heading, 2.0 * math.pi)


def squared_by_ldexp(reach, dx, dy):
    """The scaled squared distances of ``routing._squares`` as first written:
    each difference scaled by ``np.ldexp`` before squaring."""
    e = math.frexp(reach)[1]
    with np.errstate(over="ignore"):
        sx, sy = np.ldexp(dx, -e), np.ldexp(dy, -e)
        return sx * sx + sy * sy


def firing_steps_by_stepping(duration, flows, time_step):
    """Grid step of each flow, found by walking the time grid one step at a
    time and firing every flow whose slot is due, within a slack of
    ``1e-9 * time_step``."""
    flow_times = [i * duration / flows for i in range(flows)]
    steps = []
    step_index = 0
    sim_time = 0.0
    slack = 1e-9 * time_step
    while len(steps) < len(flow_times):
        while len(steps) < len(flow_times) and flow_times[len(steps)] <= sim_time + slack:
            steps.append(step_index)
        step_index += 1
        sim_time = step_index * time_step
    return steps


class RawStream:
    """Stream ``i`` of ``SeedSequence(seed).spawn(...)``, drawn in pure Python
    from PCG64's raw 64-bit outputs the way NumPy's ``Generator`` draws it.

    ``uniform`` takes the top 53 bits of one output.  ``integers`` takes
    32-bit halves of an output, low half first, and keeps the spare high half
    for its next call (``uniform`` neither takes nor drops it)."""

    def __init__(self, seed, i):
        self._bits = np.random.PCG64(np.random.SeedSequence(seed, spawn_key=(i,)))
        self._spare = None

    def _raw(self):
        return int(self._bits.random_raw())

    def uniform(self, low, high):
        return low + (high - low) * ((self._raw() >> 11) * 2**-53)

    def _half(self):
        if self._spare is not None:
            half, self._spare = self._spare, None
            return half
        r = self._raw()
        self._spare = r >> 32
        return r & 0xFFFF_FFFF

    def integers(self, n):
        """Uniform in [0, n), 1 <= n <= 2**32, by Lemire's multiply-and-reject
        (D. Lemire, "Fast random integer generation in an interval", 2019)."""
        if n == 1:
            return 0  # nothing is drawn
        m = self._half() * n
        if m & 0xFFFF_FFFF < n:
            threshold = 2**32 % n
            while m & 0xFFFF_FFFF < threshold:
                m = self._half() * n
        return m >> 32
