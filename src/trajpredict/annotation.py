"""Offboard automatic labeling.

Derives ground-truth future trajectories and intention labels (intersection
exit taken, lane sequence followed) from logged obstacle tracks. Labels are
pure functions of the log: positions are interpolated, never extrapolated,
so a track that ends before the horizon yields no trajectory label. Label
times come from scene.time_grid, the grid candidates are realized on, and
the anchor grid is the first anchor followed by the same time_grid. The
anchor key, prediction/label join and the reader of their [t, x, y, ...]
rows into columns live here too, so every stage meets its labels one way.

label_anchor builds one anchor's dataset record, as annotate writes it. Exits
and lanes far from the anchor's future are ruled out once, from its bounding
box, by margins that change no label (label_exit_taken, scene.nearest_lanes).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from operator import itemgetter
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

from . import jsonio
from .errors import CoverageError, JoinError, ParseError, SceneIntegrityError
from .scene import (
    DEFAULT_LATERAL_CAPTURE_M,
    TIME_EPS,
    MapGraph,
    ObstacleTrack,
    Positions,
    nearest_lanes,
    time_grid,
)

DEFAULT_RESOLUTION_S = 0.1
DEFAULT_EXIT_CAPTURE_M = 3.0

AnchorKey = Tuple[str, float]


@dataclass(frozen=True, kw_only=True)
class TrajectoryLabel(Positions):
    """Ground-truth future positions at a fixed resolution after anchor_time."""

    obstacle_id: str
    anchor_time: float

    future_points = Positions.points  # the name bench/traced.py reads; kept only for it


@dataclass(frozen=True)
class ExitLabel:
    obstacle_id: str
    anchor_time: float
    exit_id: str


@dataclass(frozen=True)
class LaneSequenceLabel:
    obstacle_id: str
    anchor_time: float
    lane_ids: Tuple[str, ...]


def label_times(horizon: float, resolution: float) -> list[float]:
    """The label grid, time_grid(horizon, resolution), after the anchor.
    ValueError refuses an empty one (a horizon shorter than one resolution
    step) and any grid time_grid refuses."""
    rels = time_grid(horizon, resolution)
    if not rels:
        raise ValueError("the horizon must be at least one resolution step")
    return rels


def label_future_trajectory(
    track: ObstacleTrack,
    anchor_time: float,
    horizon: float,
    resolution: float = DEFAULT_RESOLUTION_S,
) -> TrajectoryLabel:
    """Sample the track's future at anchor_time + t for t in label_times(horizon, resolution).

    Raises ValueError for a grid label_times refuses, and CoverageError if
    the track does not cover the full horizon; labels are never extrapolated.
    """
    rels = label_times(horizon, resolution)
    if anchor_time < track.first_time - TIME_EPS:
        raise CoverageError(
            f"anchor {anchor_time} precedes track {track.obstacle_id!r} start {track.first_time}"
        )
    if anchor_time + len(rels) * resolution > track.last_time + TIME_EPS:
        raise CoverageError(
            f"track {track.obstacle_id!r} ends at {track.last_time}, "
            f"before the {horizon}s horizon after anchor {anchor_time}"
        )
    xs, ys = columns([track.position_at(anchor_time + rel) for rel in rels], 2)
    return TrajectoryLabel(
        tuple(rels), xs, ys, obstacle_id=track.obstacle_id, anchor_time=anchor_time
    )


def _future_polyline(
    track: ObstacleTrack, anchor_time: float, horizon: float
) -> list[Tuple[float, float, float]]:
    """(t, x, y) vertices of the future sub-track, clipped to the horizon."""
    end_time = min(anchor_time + horizon, track.last_time)
    if end_time <= anchor_time + TIME_EPS:
        return []
    samples = [(anchor_time, *track.position_at(anchor_time))]
    for st in track.states:
        if anchor_time < st.timestamp < end_time:
            samples.append((st.timestamp, st.position.x, st.position.y))
    samples.append((end_time, *track.position_at(end_time)))
    return samples


def _earliest_capture_time(
    polyline: Sequence[Tuple[float, float, float]], x: float, y: float, radius: float
) -> Optional[float]:
    """Earliest time at which the piecewise-linear path enters the capture disk at (x, y)."""
    r2 = radius * radius
    for (t0, ax, ay), (t1, bx, by) in zip(polyline, polyline[1:]):
        dax, day = ax - x, ay - y
        c = dax * dax + day * day - r2
        if c <= 0.0:
            return t0
        vx, vy = bx - ax, by - ay
        qa = vx * vx + vy * vy
        qb = 2.0 * (dax * vx + day * vy)
        if qa == 0.0:
            continue
        disc = qb * qb - 4.0 * qa * c
        if disc < 0.0:
            continue
        u = (-qb - math.sqrt(disc)) / (2.0 * qa)
        if 0.0 <= u <= 1.0:
            return t0 + u * (t1 - t0)
    if polyline:
        t_last, x_last, y_last = polyline[-1]
        if math.hypot(x_last - x, y_last - y) <= radius:
            return t_last
    return None


def label_exit_taken(
    track: ObstacleTrack,
    anchor_time: float,
    map_graph: MapGraph,
    horizon: float,
    capture_radius: float = DEFAULT_EXIT_CAPTURE_M,
) -> Optional[ExitLabel]:
    """The exit whose position the future sub-track reaches first within
    capture_radius, or None when no exit is captured inside the horizon.
    Simultaneous captures resolve to the smaller exit id.

    An exit is tested only when it lies within reach of the sub-track's
    bounding box on both axes, reach being |r| + m for the radius r, with
    m = 1e-6 * S and S = max(M, |r|, 1), M the largest absolute coordinate
    of the box and the map. This prefilter changes no result, whatever the
    rounding in _earliest_capture_time (e = 2**-53, the unit roundoff):
    - rounding is monotone, so beyond reach on one axis, every vertex's
      rounded offset from the exit on that axis is beyond reach too, and
      the rounded segment vectors move the points between vertices by at
      most 4eM: every point of every segment, as the function sees it,
      lies more than r + 0.99m from the exit;
    - so a vertex's c is positive, and the last vertex's hypot is above r;
    - on each segment the exact quadratic in the rounded offsets exceeds
      m**2 / 2 = 5e-13 S**2 for u in [0, 1]. The roundings of qa, qb, c,
      the discriminant and its square root move it there by under
      200e S**2 = 2.3e-14 S**2, so the quadratic whose smaller root the
      function computes stays positive on [0, 1], and that root lies
      outside it: below 0, a sign the last subtraction and division keep,
      or above 1 by more than the 2e relative error they add;
    - an overflow gives an infinite or NaN discriminant or root, which
      captures nothing.
    So every exit the full scan would capture is still tested, in id order.
    """
    polyline = _future_polyline(track, anchor_time, horizon)
    if not polyline:
        return None
    x_lo = min(p[1] for p in polyline)
    x_hi = max(p[1] for p in polyline)
    y_lo = min(p[2] for p in polyline)
    y_hi = max(p[2] for p in polyline)
    magnitude = max(map_graph.coordinate_magnitude, -x_lo, x_hi, -y_lo, y_hi)
    reach = abs(capture_radius) + 1e-6 * max(magnitude, abs(capture_radius), 1.0)
    best: Optional[Tuple[float, str]] = None
    for ex in map_graph.sorted_exits():
        if ex.x - x_hi > reach or x_lo - ex.x > reach or ex.y - y_hi > reach or y_lo - ex.y > reach:
            continue
        t_hit = _earliest_capture_time(polyline, ex.x, ex.y, capture_radius)
        if t_hit is None:
            continue
        if best is None or t_hit < best[0]:
            best = (t_hit, ex.exit_id)
    if best is None:
        return None
    return ExitLabel(obstacle_id=track.obstacle_id, anchor_time=anchor_time, exit_id=best[1])


def label_lane_sequence(
    track: ObstacleTrack,
    anchor_time: float,
    map_graph: MapGraph,
    horizon: float,
    resolution: float = DEFAULT_RESOLUTION_S,
    lateral_capture: float = DEFAULT_LATERAL_CAPTURE_M,
) -> Optional[LaneSequenceLabel]:
    """Ordered lane ids the future sub-track follows, sampled on the label
    grid up to the track's end, consecutive duplicates collapsed; None when
    no sample associates with any lane."""
    samples = []
    for rel in time_grid(horizon, resolution):
        t = anchor_time + rel
        if t > track.last_time + TIME_EPS:
            break
        samples.append(track.position_at(t))
    xs, ys = columns(samples, 2)
    lane_ids = _lane_ids(map_graph, xs, ys, lateral_capture)
    if lane_ids is None:
        return None
    return LaneSequenceLabel(
        obstacle_id=track.obstacle_id, anchor_time=anchor_time, lane_ids=lane_ids
    )


def _lane_ids(
    map_graph: MapGraph, xs: Sequence[float], ys: Sequence[float], lateral_capture: float
) -> Optional[Tuple[str, ...]]:
    """The lanes the positions associate with, in order, consecutive
    duplicates collapsed; None when none associates."""
    sequence: list[str] = []
    for lane_id in nearest_lanes(map_graph, xs, ys, lateral_capture):
        if lane_id is not None and (not sequence or sequence[-1] != lane_id):
            sequence.append(lane_id)
    return tuple(sequence) or None


def anchor_times(track: ObstacleTrack, stride: float) -> list[float]:
    """Anchor grid for a track: its first time, then scene.time_grid's steps
    of stride after it, within the span.

    Shared by annotate and predict so that both
    sides of a keyed join compute bit-identical anchor timestamps. A grid
    that time_grid refuses is a SceneIntegrityError naming the obstacle.
    """
    if stride <= 0.0:
        raise ValueError(f"stride must be positive, got {stride}")
    try:
        return [track.first_time] + time_grid(track.last_time, stride, track.first_time)
    except ValueError as exc:
        raise SceneIntegrityError(f"obstacle {track.obstacle_id!r}: anchors: {exc}") from exc


def anchor_key(obstacle_id: str, t: float) -> AnchorKey:
    """The key that joins priors, predictions and labels of one anchor."""
    return (obstacle_id, float(t))


def join_on_anchor(
    prediction_records: Sequence[dict], dataset_records: Sequence[dict]
) -> Tuple[List[Tuple[AnchorKey, dict, dict]], int]:
    """(key, prediction, label) for every anchor key on both sides, sorted
    by key, plus the count of records whose key is on one side only.
    A key repeated within one side is a JoinError."""

    def index(records: Sequence[dict], side: str) -> Dict[AnchorKey, dict]:
        table: Dict[AnchorKey, dict] = {}
        for record in records:
            key = anchor_key(record["obstacle_id"], record["anchor_time"])
            if key in table:
                raise JoinError(f"duplicate {side} key {key}")
            table[key] = record
        return table

    predictions = index(prediction_records, "prediction")
    labels = index(dataset_records, "dataset")
    keys = sorted(predictions.keys() & labels.keys())
    joined = [(key, predictions[key], labels[key]) for key in keys]
    return joined, len(predictions) + len(labels) - 2 * len(joined)


def iter_anchor_records(path: str, required: Sequence[str]) -> Iterator[Tuple[str, dict]]:
    """("path:line", record) per line of a JSON-lines file keyed by anchor:
    every record carries a string obstacle_id and a numeric anchor_time."""
    for where, record in jsonio.iter_jsonl(path, ("obstacle_id", "anchor_time") + tuple(required)):
        jsonio.string(record, "obstacle_id", where)
        jsonio.number(record, "anchor_time", where)
        yield where, record


def columns(rows: Sequence[Sequence[float]], width: int) -> List[Tuple[float, ...]]:
    """The first width entries of [t, x, y, ...] rows (a label's future, a
    trajectory's points) as columns: times, xs, ys, and so on."""
    return [tuple(map(itemgetter(k), rows)) for k in range(width)]


def label_anchor(
    track: ObstacleTrack,
    anchor: float,
    map_graph: MapGraph,
    *,
    road_test_id: str,
    horizon: float,
    resolution: float = DEFAULT_RESOLUTION_S,
) -> Optional[dict]:
    """The dataset record of one (obstacle, anchor), or None when the track
    does not cover the horizon after the anchor.

    The lane sequence is read at the future label's positions: they are
    the same position_at calls on the same grid that label_lane_sequence
    makes when the track covers the horizon.
    """
    try:
        label = label_future_trajectory(track, anchor, horizon, resolution)
    except CoverageError:
        return None
    exit_label = label_exit_taken(track, anchor, map_graph, horizon)
    lane_ids = _lane_ids(map_graph, label.xs, label.ys, DEFAULT_LATERAL_CAPTURE_M)
    history = [
        {
            "t": st.timestamp,
            "x": st.position.x,
            "y": st.position.y,
            "heading": st.heading,
            "speed": st.speed,
        }
        for st in track.known_at(anchor)
    ]
    return {
        "road_test_id": road_test_id,
        "obstacle_id": track.obstacle_id,
        "anchor_time": anchor,
        "history": history,
        "future": [[t, x, y] for t, x, y in zip(label.times, label.xs, label.ys)],
        "exit_label": exit_label.exit_id if exit_label else None,
        "lane_sequence_label": list(lane_ids) if lane_ids else None,
    }


def load_dataset_records(path: str) -> list[dict]:
    """Parse a JSON-lines dataset file, validating the record shape: every
    future row is [t, x, y], with strictly increasing times (the tuner
    differences positions over them)."""
    records = []
    for where, record in iter_anchor_records(path, ("future",)):
        future = jsonio.rows(record, "future", 3, where)
        if any(b[0] <= a[0] for a, b in zip(future, future[1:])):
            raise ParseError(f"{where}: 'future' times must strictly increase")
        records.append(record)
    return records
