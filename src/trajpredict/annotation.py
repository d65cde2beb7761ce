"""Offboard automatic labeling.

Derives ground-truth future trajectories and intention labels (intersection
exit taken, lane sequence followed) from logged obstacle tracks. Labels are
pure functions of the log: positions are interpolated, never extrapolated,
so a track that ends before the horizon yields no trajectory label. Label
times come from scene.time_grid, the grid candidates are realized on, and
the anchor grid is the first anchor followed by the same time_grid. The
anchor key, prediction/label join and the reader of their [t, x, y, ...]
rows into columns live here too, so every stage meets its labels one way.
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
    nearest_lane,
    time_grid,
)

DEFAULT_RESOLUTION_S = 0.1
DEFAULT_HORIZON_S = 8.0
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


def label_future_trajectory(
    track: ObstacleTrack,
    anchor_time: float,
    horizon: float,
    resolution: float = DEFAULT_RESOLUTION_S,
) -> TrajectoryLabel:
    """Sample the track's future at anchor_time + t for t in time_grid(horizon, resolution).

    Raises CoverageError if the track does not cover the full horizon; labels
    are never extrapolated.
    """
    rels = time_grid(horizon, resolution)
    if horizon <= 0.0:
        raise ValueError(f"horizon must be positive, got {horizon}")
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
    Simultaneous captures resolve to the smaller exit id."""
    polyline = _future_polyline(track, anchor_time, horizon)
    if not polyline:
        return None
    best: Optional[Tuple[float, str]] = None
    for ex in map_graph.sorted_exits():
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
    """Ordered lane ids the future sub-track follows, consecutive duplicates
    collapsed; None when no sample associates with any lane."""
    sequence: list[str] = []
    for rel in time_grid(horizon, resolution):
        t = anchor_time + rel
        if t > track.last_time + TIME_EPS:
            break
        lane_id = nearest_lane(map_graph, *track.position_at(t), lateral_capture)
        if lane_id is not None and (not sequence or sequence[-1] != lane_id):
            sequence.append(lane_id)
    if not sequence:
        return None
    return LaneSequenceLabel(
        obstacle_id=track.obstacle_id, anchor_time=anchor_time, lane_ids=tuple(sequence)
    )


def anchor_times(track: ObstacleTrack, stride: float, min_history: float = 0.0) -> list[float]:
    """Anchor grid for a track: first_time + min_history, then scene.time_grid's
    steps of stride after it, within the span.

    Shared by the dataset builder and the prediction driver so that both
    sides of a keyed join compute bit-identical anchor timestamps. A grid
    that time_grid refuses is a SceneIntegrityError naming the obstacle.
    """
    if stride <= 0.0:
        raise ValueError(f"stride must be positive, got {stride}")
    start = track.first_time + min_history
    if start > track.last_time + TIME_EPS:
        return []
    try:
        return [start] + time_grid(track.last_time, stride, start)
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


def build_dataset(
    tracks: Sequence[ObstacleTrack],
    map_graph: MapGraph,
    *,
    road_test_id: str,
    stride: float,
    horizon: float = DEFAULT_HORIZON_S,
    resolution: float = DEFAULT_RESOLUTION_S,
    min_history: float = 0.0,
) -> Tuple[list[dict], int]:
    """One labeled record per (obstacle, anchor) with enough future coverage.

    Returns the records sorted by (obstacle_id, anchor_time) plus the count
    of anchors skipped for insufficient coverage.
    """
    records = []
    skipped = 0
    for track in sorted(tracks, key=lambda tr: tr.obstacle_id):
        for anchor in anchor_times(track, stride, min_history):
            try:
                label = label_future_trajectory(track, anchor, horizon, resolution)
            except CoverageError:
                skipped += 1
                continue
            exit_label = label_exit_taken(track, anchor, map_graph, horizon)
            lane_label = label_lane_sequence(track, anchor, map_graph, horizon, resolution)
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
            records.append(
                {
                    "road_test_id": road_test_id,
                    "obstacle_id": track.obstacle_id,
                    "anchor_time": anchor,
                    "history": history,
                    "future": [[t, x, y] for t, x, y in zip(label.times, label.xs, label.ys)],
                    "exit_label": exit_label.exit_id if exit_label else None,
                    "lane_sequence_label": list(lane_label.lane_ids) if lane_label else None,
                }
            )
    return records, skipped


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
