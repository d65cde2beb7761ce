"""Planar polyline curves with arc-length parametrization.

A Curve holds its vertices as x and y columns and the cumulative arc length
per vertex; a projected position is two floats, and Point2 is a logged
state's position. Interpolation, discrete curvature, and point projection
are the primitives that path construction, sampling, and costing build on.
All operations are pure functions of immutable inputs.
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
    """A logged obstacle state's position in the local planar frame, meters."""

    x: float
    y: float

    def __post_init__(self):
        if not (math.isfinite(self.x) and math.isfinite(self.y)):
            raise ValueError(f"non-finite coordinates ({self.x}, {self.y})")


class Curve:
    """Piecewise-linear curve through at least two vertices, held as xs and
    ys columns of the (x, y) rows it is built from, values kept as given.

    cumulative_s[k] is the arc length from the first vertex to vertex k;
    a vertex with a non-finite coordinate is rejected, and so is one that
    leaves the arc length unchanged (a consecutive duplicate, or a segment
    lost to rounding), so every segment has positive length, and one whose
    segment's squared length underflows to 0, which project_point divides
    by. The vertex curvatures (see vertex_curvatures) are computed once
    here, so a vertex whose curvature cannot be computed is rejected too.
    """

    __slots__ = ("xs", "ys", "cumulative_s", "vertex_curvatures")

    def __init__(self, rows: Iterable[Sequence[float]]):
        rows = tuple(rows)
        xs, ys = tuple(r[0] for r in rows), tuple(r[1] for r in rows)
        if not (all(map(math.isfinite, xs)) and all(map(math.isfinite, ys))):
            bad = next(r for r in rows if not (math.isfinite(r[0]) and math.isfinite(r[1])))
            raise ValueError(f"non-finite coordinates ({bad[0]}, {bad[1]})")
        if len(xs) < 2:
            raise ValueError("a curve needs at least 2 vertices")
        cum = [0.0]
        for ax, ay, bx, by in zip(xs, ys, xs[1:], ys[1:]):
            vx, vy = bx - ax, by - ay
            s = cum[-1] + math.hypot(vx, vy)
            if s == cum[-1]:
                raise ValueError(f"vertex ({bx}, {by}) is a duplicate or adds no arc length")
            if vx * vx + vy * vy == 0.0:
                raise ValueError(
                    f"the segment to vertex ({bx}, {by}) has a squared length underflowing to 0"
                )
            cum.append(s)
        self.xs, self.ys = xs, ys
        self.cumulative_s = tuple(cum)
        self.vertex_curvatures = vertex_curvatures(xs, ys)

    @property
    def length(self) -> float:
        return self.cumulative_s[-1]

    def __repr__(self) -> str:
        return f"Curve({len(self.xs)} vertices, length={self.length:.3f})"


def _segment_index(curve: Curve, s: float) -> int:
    """Index of the segment containing s; a vertex belongs to its outgoing segment."""
    i = bisect_right(curve.cumulative_s, s) - 1
    return min(max(i, 0), len(curve.xs) - 2)


def point_at_s(curve: Curve, s: float) -> Tuple[float, float, float]:
    """Position (x, y) and heading at arc length s.

    Positions interpolate linearly within the containing segment; the heading
    is that segment's direction. s beyond the curve end extrapolates along
    the final segment's tangent. Negative s raises ValueError.
    """
    if s < 0.0:
        raise ValueError(f"arc length must be nonnegative, got {s}")
    i = _segment_index(curve, s)
    ax, ay, bx, by = curve.xs[i], curve.ys[i], curve.xs[i + 1], curve.ys[i + 1]
    seg = curve.cumulative_s[i + 1] - curve.cumulative_s[i]
    t = (s - curve.cumulative_s[i]) / seg
    return ax + t * (bx - ax), ay + t * (by - ay), math.atan2(by - ay, bx - ax)


def vertex_curvatures(xs: Sequence[float], ys: Sequence[float]) -> Tuple[float, ...]:
    """Menger curvature, the signed reciprocal circumradius (positive for
    left turns), of the triple centred on each vertex of the polyline with
    columns xs and ys; each end vertex, which has no such triple, takes its
    neighbour's value, and two vertices are straight (zeros).

    ValueError when a triple turns but the product of its distances
    underflows to 0.
    """
    inner = []
    for ax, ay, bx, by, cx, cy in zip(xs, ys, xs[1:], ys[1:], xs[2:], ys[2:]):
        abx, aby = bx - ax, by - ay
        bcx, bcy = cx - bx, cy - by
        cross = abx * bcy - aby * bcx
        if cross == 0.0:
            inner.append(0.0)
            continue
        d_ab = math.hypot(abx, aby)
        d_bc = math.hypot(bcx, bcy)
        d_ca = math.hypot(cx - ax, cy - ay)
        denominator = d_ab * d_bc * d_ca
        if denominator == 0.0:
            raise ValueError(
                f"the curvature at ({bx}, {by}) cannot be computed: its distances underflow"
            )
        inner.append(2.0 * cross / denominator)
    return tuple(inner[:1] + inner + inner[-1:]) if inner else (0.0,) * len(xs)


def project_point(curve: Curve, x: float, y: float) -> Tuple[float, float]:
    """Arc length of the curve's closest point to (x, y), and the distance to it.

    Queries beyond the curve ends clamp to the end vertices; equidistant
    segments resolve to the smaller arc length. A point whose squared
    distance to every segment overflows (more than about 1.3e154 m away) or
    is NaN is at distance inf, with arc length 0.
    """
    best_d2 = math.inf
    best = (0.0, math.inf)
    xs, ys, cum = curve.xs, curve.ys, curve.cumulative_s
    for i in range(len(xs) - 1):
        ax, ay = xs[i], ys[i]
        vx, vy = xs[i + 1] - ax, ys[i + 1] - ay
        t = ((x - ax) * vx + (y - ay) * vy) / (vx * vx + vy * vy)
        t = min(max(t, 0.0), 1.0)
        dx = x - (ax + t * vx)
        dy = y - (ay + t * vy)
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
    x, y, _ = point_at_s(curve, s)
    xs, ys = curve.xs[i + 1 :], curve.ys[i + 1 :]
    if (x, y) != (xs[0], ys[0]):
        xs, ys = (x,) + xs, (y,) + ys
    return Curve(zip(xs, ys))
