"""Independent reference implementations used to cross-check the package.

Everything here is deliberately written from first principles (acos-based
angles, inline rectangle arithmetic, plain BFS) rather than by calling the
code under test.
"""

import math
import random
from collections import deque

from geo_route_sim.geometry import Position
from geo_route_sim.routing import NetworkSnapshot, Packet, Vehicle


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
    v = snapshot.vehicles[v_id]
    reach = snapshot.transmission_range
    return {
        uid
        for uid, u in snapshot.vehicles.items()
        if uid != v_id and dist(v.position.x, v.position.y, u.position.x, u.position.y) <= reach
    }


def dir_candidates(snapshot, current: Vehicle, exclude) -> set[int]:
    excluded = set(exclude)
    out = set()
    for uid in neighbor_ids(snapshot, current.id):
        if uid in excluded:
            continue
        u = snapshot.vehicles[uid]
        if u.position == current.position:
            continue
        out.add(uid)
    return out


def argmin_next_hop(snapshot, current: Vehicle, target_x, target_y, candidate_ids):
    best = None
    best_key = None
    for uid in candidate_ids:
        p = snapshot.vehicles[uid].position
        key = (
            angle_between(current.position.x, current.position.y, p.x, p.y, target_x, target_y),
            dist(p.x, p.y, target_x, target_y),
            uid,
        )
        if best_key is None or key < best_key:
            best, best_key = uid, key
    return best


def dir_oracle(snapshot, current: Vehicle, target_x, target_y, exclude):
    return argmin_next_hop(
        snapshot, current, target_x, target_y, dir_candidates(snapshot, current, exclude)
    )


def dlar_candidates(snapshot, current: Vehicle, packet: Packet, now) -> set[int]:
    radius = packet.dest_speed * (now - packet.t0)
    rect = rect_from(
        current.position.x,
        current.position.y,
        packet.dest_last_pos.x,
        packet.dest_last_pos.y,
        radius,
    )
    zone = {
        uid
        for uid in dir_candidates(snapshot, current, packet.visited)
        if rect_contains(rect, snapshot.vehicles[uid].position.x, snapshot.vehicles[uid].position.y)
    }
    aligned = {
        uid
        for uid in zone
        if heading_gap(snapshot.vehicles[uid].heading, current.heading) <= math.pi / 2
    }
    return aligned if aligned else zone


def dlar_oracle(snapshot, current: Vehicle, packet: Packet, now):
    return argmin_next_hop(
        snapshot,
        current,
        packet.dest_last_pos.x,
        packet.dest_last_pos.y,
        dlar_candidates(snapshot, current, packet, now),
    )


def lar_bfs_oracle(snapshot, source_id, dest_id, dest_last_x, dest_last_y, radius):
    """(delivered, hops) by BFS on the zone-induced subgraph plus endpoints."""
    src = snapshot.vehicles[source_id]
    rect = rect_from(src.position.x, src.position.y, dest_last_x, dest_last_y, radius)
    members = {
        uid
        for uid, u in snapshot.vehicles.items()
        if rect_contains(rect, u.position.x, u.position.y)
    }
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


def random_snapshot(rng: random.Random, n=None, size=1000.0, tx=None) -> NetworkSnapshot:
    n = n if n is not None else rng.randint(2, 60)
    tx = tx if tx is not None else rng.uniform(80.0, 300.0)
    vehicles = [
        Vehicle(
            i,
            Position(rng.uniform(0, size), rng.uniform(0, size)),
            rng.uniform(0.0, 25.0),
            rng.uniform(-math.pi, math.pi),
        )
        for i in range(n)
    ]
    return NetworkSnapshot(vehicles, tx)


def advance_by_stepping(vehicle: Vehicle, dt, width, height) -> Vehicle:
    """Move ``vehicle`` ``dt`` seconds in a straight line, folding each
    boundary crossing back into the field one reflection at a time; the
    heading is mirrored on each axis crossed an odd number of times."""
    x = vehicle.position.x + vehicle.speed * dt * math.cos(vehicle.heading)
    y = vehicle.position.y + vehicle.speed * dt * math.sin(vehicle.heading)
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
    heading = math.pi - vehicle.heading if flip_x else vehicle.heading
    return Vehicle(vehicle.id, Position(x, y), vehicle.speed, -heading if flip_y else heading)


def firing_steps_by_stepping(duration, flows, time_step):
    """Grid step of each flow, found by walking the time grid one step at a
    time and firing every flow whose slot is due."""
    flow_times = [i * duration / flows for i in range(flows)]
    steps = []
    step_index = 0
    sim_time = 0.0
    while len(steps) < len(flow_times):
        while len(steps) < len(flow_times) and flow_times[len(steps)] <= sim_time + 1e-9:
            steps.append(step_index)
        step_index += 1
        sim_time = step_index * time_step
    return steps
