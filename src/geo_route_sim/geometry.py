"""Planar geometric primitives for position-based forwarding decisions.

Angles are plain floats in radians, measured counter-clockwise from the +x
axis.  Wrapped angles lie in (-pi, pi]; deviation angles are unsigned and lie
in [0, pi].
"""

import math
from dataclasses import dataclass

__all__ = ["Position", "deviation_angle", "distance", "wrap_angle"]

TWO_PI = 2.0 * math.pi


@dataclass(frozen=True)
class Position:
    """A point on the plane, in meters."""

    x: float
    y: float

    def __post_init__(self) -> None:
        if not (math.isfinite(self.x) and math.isfinite(self.y)):
            raise ValueError(
                f"position coordinates must be finite, got ({self.x!r}, {self.y!r})"
            )


def distance(a: Position, b: Position) -> float:
    """Euclidean distance between two positions, in meters."""
    return math.hypot(b.x - a.x, b.y - a.y)


def wrap_angle(radians: float) -> float:
    """Wrap an angle, or an array of them, to (-pi, pi]: the second ``% TWO_PI``
    takes a remainder that rounded up to ``TWO_PI`` (just above pi) to 0."""
    return math.pi - (math.pi - radians) % TWO_PI % TWO_PI


def deviation_angle(pivot: Position, candidate: Position, target: Position) -> float:
    """Unsigned angle at ``pivot`` between the rays to ``candidate`` and ``target``.

    Lies in [0, pi]; zero exactly when the candidate sits on the ray from the
    pivot toward the target, pi when it sits on the opposite ray.
    """
    if candidate == pivot:
        raise ValueError("deviation angle is undefined: candidate coincides with pivot")
    if target == pivot:
        raise ValueError("deviation angle is undefined: target coincides with pivot")
    ux = candidate.x - pivot.x
    uy = candidate.y - pivot.y
    vx = target.x - pivot.x
    vy = target.y - pivot.y
    cross = ux * vy - uy * vx
    dot = ux * vx + uy * vy
    return math.atan2(abs(cross), dot)
