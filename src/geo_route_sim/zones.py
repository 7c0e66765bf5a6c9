"""LAR geometric regions: where the destination may be, and who may forward.

The expected zone is the disk the destination can have reached since its
position was last heard; the request zone is the smallest axis-aligned
rectangle covering that disk plus the node anchoring the discovery.  Zone
membership gates both LAR flooding and D-LAR candidate filtering.
"""

import math
from dataclasses import dataclass

from .geometry import Position

__all__ = ["ExpectedZone", "RequestZone", "expected_zone", "in_request_zone", "request_zone"]

_MAX = math.nextafter(math.inf, 0.0)  # sys.float_info.max, the largest finite float


@dataclass(frozen=True)
class ExpectedZone:
    """Disk of possible destination locations, centered on its last fix."""

    center: Position
    radius: float

    def __post_init__(self) -> None:
        if not self.radius >= 0:
            raise ValueError(f"expected-zone radius must be >= 0, got {self.radius!r}")


@dataclass(frozen=True)
class RequestZone:
    """Axis-aligned rectangle restricting which nodes take part in discovery."""

    min_corner: Position
    max_corner: Position

    def __post_init__(self) -> None:
        if self.min_corner.x > self.max_corner.x or self.min_corner.y > self.max_corner.y:
            raise ValueError("request-zone corners are inverted")


def expected_zone(dest_pos_t0: Position, dest_speed: float, t0: float, t1: float) -> ExpectedZone:
    """Disk of radius ``dest_speed * (t1 - t0)`` around the last known position.

    ``t0`` is when the destination's position was recorded, ``t1`` the time
    the zone is evaluated for.
    """
    for name, t in (("t0", t0), ("t1", t1)):
        if not math.isfinite(t):
            raise ValueError(f"{name} must be finite, got {t!r}")
    if t1 < t0:
        raise ValueError(f"t1 must be >= t0, got t0={t0!r}, t1={t1!r}")
    if not dest_speed >= 0:
        raise ValueError(f"dest_speed must be >= 0, got {dest_speed!r}")
    return ExpectedZone(dest_pos_t0, dest_speed * (t1 - t0))


def _zone_bounds(x: float, y: float, ez: ExpectedZone) -> tuple[float, float, float, float]:
    """Min x, min y, max x and max y of the request zone anchored at (``x``, ``y``)."""
    c, r = ez.center, ez.radius
    return min(x, c.x - r), min(y, c.y - r), max(x, c.x + r), max(y, c.y + r)


def request_zone(source: Position, ez: ExpectedZone) -> RequestZone:
    """Smallest axis-aligned rectangle containing the expected zone and the source.
    Its bounds are clamped to +-``sys.float_info.max``, as a Position is finite and
    an infinite radius gives infinite bounds; no finite point's membership changes."""
    x0, y0, x1, y1 = (min(max(b, -_MAX), _MAX) for b in _zone_bounds(source.x, source.y, ez))
    return RequestZone(Position(x0, y0), Position(x1, y1))


def in_request_zone(x, y, rz: RequestZone):
    """Boundary-inclusive membership of the point (``x``, ``y``) in ``rz``;
    on numpy columns of coordinates, a mask over the points."""
    return (
        (rz.min_corner.x <= x) & (x <= rz.max_corner.x)
        & (rz.min_corner.y <= y) & (y <= rz.max_corner.y)
    )
