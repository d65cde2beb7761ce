"""Planar polyline curves with arc-length parametrization.

A Curve is an immutable ordered list of vertices with cumulative arc length
per vertex. Interpolation, discrete curvature, and point projection are the
primitives that path construction, sampling, and costing build on. All
operations are pure functions of immutable inputs.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass
from typing import Iterable, Sequence, Tuple

TWO_PI = 2.0 * math.pi


def wrap_angle(theta: float) -> float:
    """Wrap an angle into (-pi, pi]."""
    w = (theta + math.pi) % TWO_PI - math.pi
    return math.pi if w == -math.pi else w


@dataclass(frozen=True)
class Point2:
    """A point in the local planar frame, meters."""

    x: float
    y: float

    def __post_init__(self):
        if not (math.isfinite(self.x) and math.isfinite(self.y)):
            raise ValueError(f"non-finite coordinates ({self.x}, {self.y})")

    def distance_to(self, other: "Point2") -> float:
        return math.hypot(self.x - other.x, self.y - other.y)


class Curve:
    """Piecewise-linear curve through at least two vertices.

    cumulative_s[k] is the arc length from the first vertex to vertex k;
    a vertex that leaves it unchanged (a consecutive duplicate, or a segment
    lost to rounding) is rejected so every segment has positive length, and
    so is one whose segment's squared length underflows to 0, which
    project_point divides by. The vertex curvatures (see vertex_curvatures)
    are computed once here, so a vertex whose curvature cannot be computed
    is rejected too.
    """

    __slots__ = ("points", "cumulative_s", "vertex_curvatures")

    def __init__(self, points: Iterable):
        pts = tuple(p if isinstance(p, Point2) else Point2(p[0], p[1]) for p in points)
        if len(pts) < 2:
            raise ValueError("a curve needs at least 2 vertices")
        cum = [0.0]
        for a, b in zip(pts, pts[1:]):
            s = cum[-1] + a.distance_to(b)
            if s == cum[-1]:
                raise ValueError(f"vertex ({b.x}, {b.y}) is a duplicate or adds no arc length")
            vx, vy = b.x - a.x, b.y - a.y
            if vx * vx + vy * vy == 0.0:
                raise ValueError(
                    f"the segment to vertex ({b.x}, {b.y}) has a squared length underflowing to 0"
                )
            cum.append(s)
        self.points = pts
        self.cumulative_s = tuple(cum)
        self.vertex_curvatures = vertex_curvatures(pts)

    @property
    def length(self) -> float:
        return self.cumulative_s[-1]

    def __repr__(self) -> str:
        return f"Curve({len(self.points)} vertices, length={self.length:.3f})"


def _segment_index(curve: Curve, s: float) -> int:
    """Index of the segment containing s; a vertex belongs to its outgoing segment."""
    i = bisect_right(curve.cumulative_s, s) - 1
    return min(max(i, 0), len(curve.points) - 2)


def point_at_s(curve: Curve, s: float) -> Tuple[Point2, float]:
    """Position and heading at arc length s.

    Positions interpolate linearly within the containing segment; the heading
    is that segment's direction. s beyond the curve end extrapolates along
    the final segment's tangent. Negative s raises ValueError.
    """
    if s < 0.0:
        raise ValueError(f"arc length must be nonnegative, got {s}")
    i = _segment_index(curve, s)
    a, b = curve.points[i], curve.points[i + 1]
    seg = curve.cumulative_s[i + 1] - curve.cumulative_s[i]
    t = (s - curve.cumulative_s[i]) / seg
    pos = Point2(a.x + t * (b.x - a.x), a.y + t * (b.y - a.y))
    return pos, math.atan2(b.y - a.y, b.x - a.x)


def vertex_curvatures(points: Sequence[Point2]) -> Tuple[float, ...]:
    """The menger_curvature of the triple centred on each vertex of a
    polyline; each end vertex, which has no such triple, takes its
    neighbour's value, and two vertices are straight (zeros)."""
    inner = tuple(menger_curvature(*points[k - 1 : k + 2]) for k in range(1, len(points) - 1))
    return inner[:1] + inner + inner[-1:] if inner else (0.0,) * len(points)


def menger_curvature(a: Point2, b: Point2, c: Point2) -> float:
    """Signed reciprocal circumradius of three points; positive for left turns.

    ValueError when the points turn but the product of their distances
    underflows to 0.
    """
    abx, aby = b.x - a.x, b.y - a.y
    bcx, bcy = c.x - b.x, c.y - b.y
    cross = abx * bcy - aby * bcx
    if cross == 0.0:
        return 0.0
    d_ab = math.hypot(abx, aby)
    d_bc = math.hypot(bcx, bcy)
    d_ca = math.hypot(c.x - a.x, c.y - a.y)
    denominator = d_ab * d_bc * d_ca
    if denominator == 0.0:
        raise ValueError(
            f"the curvature at ({b.x}, {b.y}) cannot be computed: its distances underflow"
        )
    return 2.0 * cross / denominator


def project_point(curve: Curve, p: Point2) -> Tuple[float, float]:
    """Arc length of the closest point on the curve, and the distance to it.

    Queries beyond the curve ends clamp to the end vertices; equidistant
    segments resolve to the smaller arc length. A point whose squared
    distance to every segment overflows (more than about 1.3e154 m away) or
    is NaN is at distance inf, with arc length 0.
    """
    best_d2 = math.inf
    best = (0.0, math.inf)
    pts = curve.points
    cum = curve.cumulative_s
    for i in range(len(pts) - 1):
        a, b = pts[i], pts[i + 1]
        vx, vy = b.x - a.x, b.y - a.y
        t = ((p.x - a.x) * vx + (p.y - a.y) * vy) / (vx * vx + vy * vy)
        t = min(max(t, 0.0), 1.0)
        dx = p.x - (a.x + t * vx)
        dy = p.y - (a.y + t * vy)
        d2 = dx * dx + dy * dy
        if d2 < best_d2:
            best_d2 = d2
            best = (cum[i] + t * (cum[i + 1] - cum[i]), math.hypot(dx, dy))
    return best


def tail_from(curve: Curve, s: float) -> Curve:
    """Sub-curve from arc length s to the end; the cut point becomes the first vertex.

    s must lie strictly before the curve end.
    """
    if s < 0.0:
        raise ValueError(f"arc length must be nonnegative, got {s}")
    if s >= curve.length:
        raise ValueError(f"cut point {s} is at or beyond the curve end {curve.length}")
    i = _segment_index(curve, s)
    cut, _ = point_at_s(curve, s)
    rest: Sequence[Point2] = curve.points[i + 1 :]
    if cut.distance_to(rest[0]) == 0.0:
        pts = rest
    else:
        pts = (cut,) + tuple(rest)
    return Curve(pts)
