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
    consecutive duplicate vertices are rejected so every segment has
    positive length.
    """

    __slots__ = ("points", "cumulative_s")

    def __init__(self, points: Iterable):
        pts = tuple(p if isinstance(p, Point2) else Point2(p[0], p[1]) for p in points)
        if len(pts) < 2:
            raise ValueError("a curve needs at least 2 vertices")
        cum = [0.0]
        for a, b in zip(pts, pts[1:]):
            d = a.distance_to(b)
            if d == 0.0:
                raise ValueError(f"consecutive duplicate vertex at ({b.x}, {b.y})")
            cum.append(cum[-1] + d)
        self.points = pts
        self.cumulative_s = tuple(cum)

    @property
    def length(self) -> float:
        return self.cumulative_s[-1]

    def __len__(self) -> int:
        return len(self.points)

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


def menger_curvature(a: Point2, b: Point2, c: Point2) -> float:
    """Signed reciprocal circumradius of three points; positive for left turns."""
    abx, aby = b.x - a.x, b.y - a.y
    bcx, bcy = c.x - b.x, c.y - b.y
    cross = abx * bcy - aby * bcx
    if cross == 0.0:
        return 0.0
    d_ab = math.hypot(abx, aby)
    d_bc = math.hypot(bcx, bcy)
    d_ca = math.hypot(c.x - a.x, c.y - a.y)
    return 2.0 * cross / (d_ab * d_bc * d_ca)


def curvature_at_s(curve: Curve, s: float) -> float:
    """Signed discrete curvature (1/m) near arc length s.

    Uses the circumradius of the vertex triple around the vertex nearest to
    s (ties to the lower index, clamped to interior vertices). Curves with
    fewer than 3 vertices are straight by construction and return 0, as does
    any s beyond the curve end, where positions extrapolate on a straight
    tangent.
    """
    if len(curve.points) < 3 or s > curve.length:
        return 0.0
    i = _segment_index(curve, s)
    cum = curve.cumulative_s
    k = i if (s - cum[i]) <= (cum[i + 1] - s) else i + 1
    k = min(max(k, 1), len(curve.points) - 2)
    return menger_curvature(curve.points[k - 1], curve.points[k], curve.points[k + 1])


def project_point(curve: Curve, p: Point2) -> Tuple[float, float]:
    """Arc length of the closest point on the curve, and the distance to it.

    Queries beyond the curve ends clamp to the end vertices; equidistant
    segments resolve to the smaller arc length.
    """
    best_d2 = math.inf
    best = (0.0, 0.0)
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
