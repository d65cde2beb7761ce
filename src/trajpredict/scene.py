"""Scene data model and ingestion.

Obstacle histories come from a JSON-lines log (one state per line), the lane
and intersection-exit map from a single JSON document, and the ego vehicle's
planned trajectory from an optional JSON-lines file. Loaded scenes are
immutable; concurrent readers need no synchronization. Three decisions
that labeling, generation and evaluation share live here too: the sample-time
grid (time_grid, TIME_EPS), time interpolation of tracks and the ego plan,
and lane association (nearest_lane) with its capture distance.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass, field
from typing import Dict, Optional, Sequence, Tuple

from . import jsonio
from .errors import CoverageError, ParseError, SceneIntegrityError
from .geometry import Curve, Point2, project_point, wrap_angle

TIME_EPS = 1e-9


def time_grid(span: float, step: float) -> list[float]:
    """Sample times k*step for k = 1..floor(span/step + TIME_EPS): the grid of
    labels and candidates alike, never past span beyond rounding."""
    if step <= 0.0:
        raise ValueError(f"time step must be positive, got {step}")
    return [k * step for k in range(1, int(math.floor(span / step + TIME_EPS)) + 1)]


def _bracket(times: Sequence[float], t: float) -> Tuple[int, float]:
    """Index i and fraction u in [0, 1] placing t between times[i] and times[i + 1],
    clamped to the first and last interval; (0, 0.0) for a single time."""
    if len(times) == 1:
        return 0, 0.0
    i = min(max(bisect_right(times, t) - 1, 0), len(times) - 2)
    u = (t - times[i]) / (times[i + 1] - times[i])
    return i, min(max(u, 0.0), 1.0)


def _lerp(a: Point2, b: Point2, u: float) -> Point2:
    return Point2(a.x + u * (b.x - a.x), a.y + u * (b.y - a.y))


@dataclass(frozen=True)
class ObstacleState:
    """One timestamped kinematic sample of a road entity."""

    timestamp: float
    position: Point2
    heading: float
    speed: float
    obstacle_id: str
    polygon: Optional[Tuple[Point2, ...]] = None

    def __post_init__(self):
        if not math.isfinite(self.timestamp):
            raise ValueError(f"non-finite timestamp for obstacle {self.obstacle_id!r}")
        if not math.isfinite(self.heading) or not -math.pi < self.heading <= math.pi:
            raise ValueError(
                f"heading {self.heading} out of (-pi, pi] for obstacle {self.obstacle_id!r}"
            )
        if not math.isfinite(self.speed) or self.speed < 0.0:
            raise ValueError(f"invalid speed {self.speed} for obstacle {self.obstacle_id!r}")


@dataclass(frozen=True)
class ObstacleTrack:
    """Time-ordered state history of one obstacle."""

    obstacle_id: str
    states: Tuple[ObstacleState, ...]
    times: Tuple[float, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if not self.states:
            raise ValueError(f"track {self.obstacle_id!r} has no states")
        for st in self.states:
            if st.obstacle_id != self.obstacle_id:
                raise ValueError(
                    f"track {self.obstacle_id!r} contains state of {st.obstacle_id!r}"
                )
        times = tuple(st.timestamp for st in self.states)
        object.__setattr__(self, "times", times)
        if any(t1 <= t0 for t0, t1 in zip(times, times[1:])):
            raise SceneIntegrityError(
                f"non-monotonic timestamps within obstacle {self.obstacle_id!r}"
            )

    @property
    def first_time(self) -> float:
        return self.states[0].timestamp

    @property
    def last_time(self) -> float:
        return self.states[-1].timestamp

    @property
    def latest(self) -> ObstacleState:
        return self.states[-1]

    def covers(self, t: float) -> bool:
        return self.first_time - TIME_EPS <= t <= self.last_time + TIME_EPS

    def _interval(self, t: float) -> Tuple[ObstacleState, ObstacleState, float]:
        if not self.covers(t):
            raise CoverageError(
                f"time {t} outside track {self.obstacle_id!r} span "
                f"[{self.first_time}, {self.last_time}]"
            )
        i, u = _bracket(self.times, t)
        return self.states[i], self.states[min(i + 1, len(self.states) - 1)], u

    def position_at(self, t: float) -> Point2:
        """Linearly interpolated position; t must be within the track span."""
        a, b, u = self._interval(t)
        return _lerp(a.position, b.position, u)

    def state_at(self, t: float) -> ObstacleState:
        """Interpolated state at t: linear position/speed, shortest-path heading."""
        a, b, u = self._interval(t)
        if u == 0.0:
            return a
        heading = wrap_angle(a.heading + u * wrap_angle(b.heading - a.heading))
        return ObstacleState(
            timestamp=t,
            position=_lerp(a.position, b.position, u),
            heading=heading,
            speed=a.speed + u * (b.speed - a.speed),
            obstacle_id=self.obstacle_id,
        )


@dataclass(frozen=True)
class EgoPlan:
    """The ego vehicle's previously planned trajectory."""

    poses: Tuple[Tuple[float, Point2], ...]
    times: Tuple[float, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if not self.poses:
            raise ValueError("ego plan has no poses")
        times = tuple(t for t, _ in self.poses)
        object.__setattr__(self, "times", times)
        if any(t1 <= t0 for t0, t1 in zip(times, times[1:])):
            raise SceneIntegrityError("non-monotonic timestamps in ego plan")

    def position_at(self, t: float) -> Point2:
        """Linearly interpolated pose; queries beyond coverage return the end
        poses themselves, which a lerp at u = 1 would not reproduce exactly."""
        if t <= self.times[0]:
            return self.poses[0][1]
        if t >= self.times[-1]:
            return self.poses[-1][1]
        i, u = _bracket(self.times, t)
        return _lerp(self.poses[i][1], self.poses[i + 1][1], u)


@dataclass(frozen=True)
class Lane:
    lane_id: str
    centerline: Curve
    successor_ids: Tuple[str, ...] = ()
    speed_limit: Optional[float] = None


@dataclass(frozen=True)
class IntersectionExit:
    exit_id: str
    position: Point2
    heading: float
    associated_lane_id: str

    def __post_init__(self):
        if not -math.pi < self.heading <= math.pi:
            raise ValueError(f"exit {self.exit_id!r} heading {self.heading} out of (-pi, pi]")


@dataclass(frozen=True)
class MapGraph:
    """Lane graph plus intersection exits and optional intersection polygon."""

    lanes: Dict[str, Lane] = field(default_factory=dict)
    exits: Dict[str, IntersectionExit] = field(default_factory=dict)
    intersection_polygon: Optional[Tuple[Point2, ...]] = None

    def __post_init__(self):
        for lane in self.lanes.values():
            for succ in lane.successor_ids:
                if succ not in self.lanes:
                    raise SceneIntegrityError(
                        f"lane {lane.lane_id!r} references missing successor {succ!r}"
                    )
        for ex in self.exits.values():
            if ex.associated_lane_id not in self.lanes:
                raise SceneIntegrityError(
                    f"exit {ex.exit_id!r} references missing lane {ex.associated_lane_id!r}"
                )

    def sorted_lanes(self) -> Sequence[Lane]:
        return [self.lanes[k] for k in sorted(self.lanes)]

    def sorted_exits(self) -> Sequence[IntersectionExit]:
        return [self.exits[k] for k in sorted(self.exits)]


DEFAULT_LATERAL_CAPTURE_M = 2.0


def nearest_lane(
    map_graph: MapGraph, position: Point2, lateral_capture: float = DEFAULT_LATERAL_CAPTURE_M
) -> Optional[str]:
    """Lane whose centerline is nearest to position within the capture
    distance; ties resolve to the smaller lane id.

    Distance is to the closest on-curve point, so a lane does not capture
    positions beyond its endpoints along its extended line.
    """
    best: Optional[Tuple[float, str]] = None
    for lane in map_graph.sorted_lanes():
        _, distance = project_point(lane.centerline, position)
        if distance > lateral_capture:
            continue
        if best is None or distance < best[0]:
            best = (distance, lane.lane_id)
    return best[1] if best else None


_STATE_KEYS = ("t", "x", "y", "heading", "speed")


def load_obstacle_log(path: str) -> list[ObstacleTrack]:
    """Parse a JSON-lines obstacle log into tracks sorted by obstacle id.

    Rows may arrive out of order and are re-sorted per obstacle; duplicate
    timestamps within one obstacle are an error.
    """
    states_by_id: Dict[str, list[ObstacleState]] = {}
    for lineno, record in jsonio.iter_jsonl(path, ("obstacle_id",) + _STATE_KEYS):
        obstacle_id = jsonio.string(record, "obstacle_id", path, lineno)
        t, x, y, heading, speed = (jsonio.number(record, k, path, lineno) for k in _STATE_KEYS)
        polygon = None
        if record.get("polygon") is not None:
            try:
                polygon = tuple(Point2(float(px), float(py)) for px, py in record["polygon"])
            except (TypeError, ValueError) as exc:
                raise ParseError(f"{path}:{lineno}: malformed 'polygon'") from exc
        try:
            state = ObstacleState(
                timestamp=t,
                position=Point2(x, y),
                heading=wrap_angle(heading),
                speed=speed,
                obstacle_id=obstacle_id,
                polygon=polygon,
            )
        except ValueError as exc:
            raise ParseError(f"{path}:{lineno}: {exc}") from exc
        states_by_id.setdefault(obstacle_id, []).append(state)

    tracks = []
    for obstacle_id in sorted(states_by_id):
        states = sorted(states_by_id[obstacle_id], key=lambda st: st.timestamp)
        tracks.append(ObstacleTrack(obstacle_id=obstacle_id, states=tuple(states)))
    return tracks


def load_map(path: str) -> MapGraph:
    """Parse the single-document JSON map file into a validated MapGraph."""
    doc = jsonio.read_json(path)
    if not isinstance(doc, dict):
        raise ParseError(f"{path}:1: map file must be a JSON object")

    lanes: Dict[str, Lane] = {}
    for entry in doc.get("lanes", []):
        lane_id = entry.get("id")
        if not isinstance(lane_id, str):
            raise ParseError(f"{path}: lane entry without a string 'id'")
        if lane_id in lanes:
            raise SceneIntegrityError(f"duplicate lane id {lane_id!r}")
        try:
            centerline = Curve(entry["centerline"])
        except (KeyError, TypeError, ValueError) as exc:
            raise ParseError(f"{path}: lane {lane_id!r}: bad centerline: {exc}") from exc
        lanes[lane_id] = Lane(
            lane_id=lane_id,
            centerline=centerline,
            successor_ids=tuple(entry.get("successors", [])),
            speed_limit=entry.get("speed_limit"),
        )

    exits: Dict[str, IntersectionExit] = {}
    for entry in doc.get("exits", []):
        exit_id = entry.get("id")
        if not isinstance(exit_id, str):
            raise ParseError(f"{path}: exit entry without a string 'id'")
        if exit_id in exits:
            raise SceneIntegrityError(f"duplicate exit id {exit_id!r}")
        try:
            exits[exit_id] = IntersectionExit(
                exit_id=exit_id,
                position=Point2(float(entry["x"]), float(entry["y"])),
                heading=wrap_angle(float(entry["heading"])),
                associated_lane_id=entry["lane_id"],
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise ParseError(f"{path}: exit {exit_id!r}: {exc}") from exc

    polygon = None
    if doc.get("intersection_polygon") is not None:
        try:
            polygon = tuple(Point2(float(x), float(y)) for x, y in doc["intersection_polygon"])
        except (TypeError, ValueError) as exc:
            raise ParseError(f"{path}: malformed 'intersection_polygon'") from exc

    return MapGraph(lanes=lanes, exits=exits, intersection_polygon=polygon)


def load_ego_plan(path: str) -> EgoPlan:
    """Parse a JSON-lines ego plan of {t, x, y} rows."""
    poses = []
    for lineno, record in jsonio.iter_jsonl(path, ("t", "x", "y")):
        t, x, y = (jsonio.number(record, k, path, lineno) for k in ("t", "x", "y"))
        poses.append((t, Point2(x, y)))
    if not poses:
        raise ParseError(f"{path}:1: ego plan file is empty")
    poses.sort(key=lambda pair: pair[0])
    return EgoPlan(poses=tuple(poses))


def load_scene(
    obstacle_log: str, map_file: str, ego_file: Optional[str] = None
) -> Tuple[list[ObstacleTrack], MapGraph, Optional[EgoPlan]]:
    """Load and validate the full scene: tracks, map, and optional ego plan."""
    tracks = load_obstacle_log(obstacle_log)
    map_graph = load_map(map_file)
    ego = load_ego_plan(ego_file) if ego_file is not None else None
    return tracks, map_graph, ego
