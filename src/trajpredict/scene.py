"""Scene data model and ingestion.

Obstacle histories come from a JSON-lines log (one state per line), the lane
and intersection-exit map from a single JSON document, and the ego vehicle's
planned trajectory from an optional JSON-lines file. The loaders read only
the keys some stage uses and ignore all others. Loaded scenes are
immutable; concurrent readers need no synchronization. Four decisions
that labeling, generation, costing and evaluation share live here too: the
one trajectory shape (Positions, float columns of times and positions, which
candidates, labels and the ego plan extend; lane centerlines are
geometry.Curve columns, a logged state's position is a Point2, and every
other position is two floats), the one time grid of anchors, labels and
candidates (time_grid, with its tolerance TIME_EPS in seconds and its
ceiling MAX_GRID_TIMES), time interpolation of tracks and the ego plan, and
lane association (nearest_lane) with its capture distance.

Lane association projects few lanes and gives the full scan's result: each
Lane keeps its centerline's bounding box, and nearest_lane projects only the
lanes whose box lies within the capture distance plus a margin of the
position. The margin, 8 ulps of the map's largest coordinate (or of the
capture distance, if larger), covers every rounding of the projection, so no
lane that the full scan would keep is skipped (nearest_lane gives the
proof). nearest_lanes associates many positions at once: it rules out the
lanes beyond that reach of the positions' bounding box once, then tests
each position among the rest. A MapGraph computes its lanes and exits in id
order, its largest coordinate, and the successor closure that lane search
reads, once, when it is built.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass, field
from typing import Dict, FrozenSet, Iterable, Iterator, List, Optional, Sequence, Tuple

from . import jsonio
from .errors import CoverageError, ParseError, SceneIntegrityError
from .geometry import Curve, Point2, project_point, wrap_angle

TIME_EPS = 1e-9
MAX_GRID_TIMES = 10**6


@dataclass(frozen=True)
class Positions:
    """The one trajectory shape: columns of equal length, one entry per
    point, of the time (s) and the x and y position (m). Columns may be
    shared between trajectories."""

    times: Sequence[float]
    xs: Sequence[float]
    ys: Sequence[float]

    @property
    def points(self) -> Tuple[Tuple[float, Point2], ...]:
        """The (t, Point2) rows, built on each read; kept only for
        bench/traced.py, until a benchmark change reads the columns."""
        return tuple((t, Point2(x, y)) for t, x, y in zip(self.times, self.xs, self.ys))


@dataclass(frozen=True)
class Trajectory(Positions):
    """Positions plus the per-point kinematics the sub-costs read: speed
    (m/s), path curvature (1/m) and longitudinal acceleration (m/s^2).
    Candidates (sharing their speed profile's times, speeds and
    accelerations) and ground-truth labels alike are costed in this shape."""

    speeds: Sequence[float]
    curvatures: Sequence[float]
    accels: Sequence[float]


def time_grid(stop: float, step: float, start: float = 0.0) -> list[float]:
    """Times start + k*step for k = 1, 2, ... while start + k*step <= stop + TIME_EPS:
    the one grid of anchors, labels and candidates. ValueError refuses a step
    that is not positive, a step lost to rounding at the grid's times (times
    would repeat) and a grid of more than MAX_GRID_TIMES times."""
    if not step > 0.0:
        raise ValueError(f"time step must be positive, got {step}")
    limit = stop + TIME_EPS
    if start + step > limit:
        return []
    magnitude = max(abs(start), abs(limit))
    if not step > 2.0 * math.ulp(magnitude):
        raise ValueError(f"time step {step} is lost to rounding at time {magnitude}")
    # with the step above twice the rounding of any time, the count is at most
    # two above the estimate's floor, and the loop runs a few times at most
    n = int(min((limit - start) / step, MAX_GRID_TIMES + 1)) + 2
    while start + n * step > limit:
        n -= 1
    if n > MAX_GRID_TIMES:
        raise ValueError(f"grid of more than {MAX_GRID_TIMES} times from {start} to {stop} by {step}")
    return [start + k * step for k in range(1, n + 1)]


def _lerp(a: Point2, b: Point2, u: float) -> Tuple[float, float]:
    return a.x + u * (b.x - a.x), a.y + u * (b.y - a.y)


@dataclass(frozen=True)
class ObstacleState:
    """One timestamped kinematic sample of a road entity."""

    timestamp: float
    position: Point2
    heading: float
    speed: float
    obstacle_id: str

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

    def _interval(self, t: float) -> Tuple[ObstacleState, ObstacleState, float]:
        """The states a and b around t and the fraction u in [0, 1] placing t
        between them, clamped to the first and last interval; (a, a, 0.0) for
        a single state. CoverageError refuses a t outside the span (within
        TIME_EPS)."""
        if not self.first_time - TIME_EPS <= t <= self.last_time + TIME_EPS:
            raise CoverageError(
                f"time {t} outside track {self.obstacle_id!r} span "
                f"[{self.first_time}, {self.last_time}]"
            )
        times = self.times
        if len(times) == 1:
            return self.states[0], self.states[0], 0.0
        i = min(max(bisect_right(times, t) - 1, 0), len(times) - 2)
        u = (t - times[i]) / (times[i + 1] - times[i])
        return self.states[i], self.states[i + 1], min(max(u, 0.0), 1.0)

    def known_at(self, t: float) -> Tuple[ObstacleState, ...]:
        """The states logged up to t (within TIME_EPS): the track as known at t."""
        return self.states[: bisect_right(self.times, t + TIME_EPS)]

    def position_at(self, t: float) -> Tuple[float, float]:
        """Linearly interpolated (x, y); t must be within the track span."""
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
            position=Point2(*_lerp(a.position, b.position, u)),
            heading=heading,
            speed=a.speed + u * (b.speed - a.speed),
            obstacle_id=self.obstacle_id,
        )


@dataclass(frozen=True)
class EgoPlan(Positions):
    """The ego vehicle's previously planned trajectory, at strictly increasing times."""

    def __post_init__(self):
        if not self.times:
            raise ValueError("ego plan has no poses")
        if not all(map(math.isfinite, (*self.times, *self.xs, *self.ys))):
            raise ValueError("ego plan has a non-finite time or coordinate")
        if any(t1 <= t0 for t0, t1 in zip(self.times, self.times[1:])):
            raise SceneIntegrityError("non-monotonic timestamps in ego plan")

    def positions_at(self, times: Iterable[float]) -> Tuple[List[float], List[float]]:
        """Linearly interpolated poses at ascending times, as x and y columns,
        found in one walk over the plan; queries beyond coverage return the
        end poses themselves, which a lerp at u = 1 would not reproduce
        exactly."""
        plan_times, plan_xs, plan_ys = self.times, self.xs, self.ys
        xs: List[float] = []
        ys: List[float] = []
        i = 0
        previous = -math.inf
        for t in times:
            if t < previous:
                raise ValueError(f"ego plan query times must ascend, got {t} after {previous}")
            previous = t
            if t <= plan_times[0]:
                xs.append(plan_xs[0])
                ys.append(plan_ys[0])
            elif t >= plan_times[-1]:
                xs.append(plan_xs[-1])
                ys.append(plan_ys[-1])
            else:
                while plan_times[i + 1] <= t:
                    i += 1
                u = (t - plan_times[i]) / (plan_times[i + 1] - plan_times[i])
                xs.append(plan_xs[i] + u * (plan_xs[i + 1] - plan_xs[i]))
                ys.append(plan_ys[i] + u * (plan_ys[i + 1] - plan_ys[i]))
        return xs, ys


@dataclass(frozen=True)
class Lane:
    """A centerline and its successor links; box is the centerline's bounding
    box (min x, min y, max x, max y), computed once."""

    lane_id: str
    centerline: Curve
    successor_ids: Tuple[str, ...] = ()
    box: Tuple[float, float, float, float] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        xs, ys = self.centerline.xs, self.centerline.ys
        object.__setattr__(self, "box", (min(xs), min(ys), max(xs), max(ys)))


@dataclass(frozen=True)
class IntersectionExit:
    exit_id: str
    x: float
    y: float
    associated_lane_id: str


@dataclass(frozen=True)
class MapGraph:
    """Lane graph plus intersection exits, with tables computed once at build
    time: the lanes and the exits in id order, the largest absolute
    coordinate of any lane or exit, and the successor closure (lane id to
    the ids of every lane reachable from it through successor links, itself
    included)."""

    lanes: Dict[str, Lane] = field(default_factory=dict)
    exits: Dict[str, IntersectionExit] = field(default_factory=dict)
    lane_order: Tuple[Lane, ...] = field(init=False, repr=False, compare=False)
    exit_order: Tuple[IntersectionExit, ...] = field(init=False, repr=False, compare=False)
    coordinate_magnitude: float = field(init=False, repr=False, compare=False)
    successor_closure: Dict[str, FrozenSet[str]] = field(init=False, repr=False, compare=False)

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
        lane_order = tuple(self.lanes[k] for k in sorted(self.lanes))
        object.__setattr__(self, "lane_order", lane_order)
        object.__setattr__(self, "exit_order", tuple(self.exits[k] for k in sorted(self.exits)))
        magnitude = max(
            max((abs(v) for lane in lane_order for v in lane.box), default=0.0),
            max((max(abs(ex.x), abs(ex.y)) for ex in self.exits.values()), default=0.0),
        )
        object.__setattr__(self, "coordinate_magnitude", magnitude)
        closure = {}
        for lane_id in self.lanes:
            seen = {lane_id}
            frontier = [lane_id]
            while frontier:
                for succ in self.lanes[frontier.pop()].successor_ids:
                    if succ not in seen:
                        seen.add(succ)
                        frontier.append(succ)
            closure[lane_id] = frozenset(seen)
        object.__setattr__(self, "successor_closure", closure)

    def sorted_exits(self) -> Sequence[IntersectionExit]:
        return self.exit_order


DEFAULT_LATERAL_CAPTURE_M = 2.0


def nearest_lane(
    map_graph: MapGraph, x: float, y: float, lateral_capture: float = DEFAULT_LATERAL_CAPTURE_M
) -> Optional[str]:
    """Lane whose centerline is nearest to the position (x, y) within the
    capture distance; ties resolve to the smaller lane id.

    Distance is to the closest on-curve point, so a lane does not capture
    positions beyond its endpoints along its extended line.

    A lane is projected only when (x, y) lies within reach of its box on
    both axes, reach being the capture distance C plus a margin of 8 units U,
    U the ulp of max(M, |C|) and M the map's largest absolute coordinate.
    This prefilter changes no result, whatever the rounding:
    - rounding is monotone, so a rounded difference above a float bound is
      above it exactly, and a difference above a float bound rounds to at
      least that bound;
    - C + 8U rounds to at least C + 7U;
    - project_point's closest point a + t*(b - a), t in [0, 1], rounds at
      most 2U outside the segment's box, on each axis;
    - so beyond reach on one axis, that axis's rounded offset from every
      closest point is at least C + 4U, and the distance, a hypot of it,
      is above C: the full scan drops the lane too.
    Every lane the full scan keeps is still projected, in id order, so the
    result is the full scan's.
    """
    return _nearest_among(
        map_graph.lane_order, x, y, lateral_capture, _lane_reach(map_graph, lateral_capture)
    )


def nearest_lanes(
    map_graph: MapGraph, xs: Sequence[float], ys: Sequence[float], lateral_capture: float
) -> List[Optional[str]]:
    """nearest_lane of each position (xs[k], ys[k]), in order.

    The lanes whose box lies beyond nearest_lane's reach of the positions'
    bounding box, on either axis, are ruled out once; each position is then
    tested among the rest, in id order, exactly as nearest_lane tests it. No
    result changes: float subtraction is monotone, so a box beyond reach of
    the bounding box is beyond reach of every position inside it, and
    nearest_lane's own test would skip that lane for each of them.
    """
    if not xs:
        return []
    reach = _lane_reach(map_graph, lateral_capture)
    x_lo, y_lo, x_hi, y_hi = min(xs), min(ys), max(xs), max(ys)
    near = tuple(
        lane
        for lane in map_graph.lane_order
        if not (
            lane.box[0] - x_hi > reach
            or x_lo - lane.box[2] > reach
            or lane.box[1] - y_hi > reach
            or y_lo - lane.box[3] > reach
        )
    )
    return [_nearest_among(near, x, y, lateral_capture, reach) for x, y in zip(xs, ys)]


def _lane_reach(map_graph: MapGraph, lateral_capture: float) -> float:
    """nearest_lane's reach: the capture distance plus 8 ulps of the larger
    of the map's largest coordinate and the capture distance."""
    magnitude = max(map_graph.coordinate_magnitude, abs(lateral_capture))
    return lateral_capture + 8.0 * math.ulp(magnitude)


def _nearest_among(
    lanes: Sequence[Lane], x: float, y: float, lateral_capture: float, reach: float
) -> Optional[str]:
    """nearest_lane among lanes, which are in id order, projecting only
    those whose box is within reach of (x, y) on both axes."""
    best: Optional[Tuple[float, str]] = None
    for lane in lanes:
        x_min, y_min, x_max, y_max = lane.box
        if x_min - x > reach or x - x_max > reach or y_min - y > reach or y - y_max > reach:
            continue
        _, distance = project_point(lane.centerline, x, y)
        if distance > lateral_capture:
            continue
        if best is None or distance < best[0]:
            best = (distance, lane.lane_id)
    return best[1] if best else None


_STATE_KEYS = ("t", "x", "y", "heading", "speed")


def load_obstacle_log(path: str) -> list[ObstacleTrack]:
    """Parse a JSON-lines obstacle log into tracks sorted by obstacle id.

    Rows may arrive out of order and are re-sorted per obstacle; duplicate
    timestamps within one obstacle are an error, and so is a position whose
    norm exceeds jsonio.MAX_ROW_NORM, the bound on the rows annotate writes
    (it also keeps every interpolated position finite).
    """
    states_by_id: Dict[str, list[ObstacleState]] = {}
    for where, record in jsonio.iter_jsonl(path, ("obstacle_id",) + _STATE_KEYS):
        obstacle_id = jsonio.string(record, "obstacle_id", where)
        t, x, y, heading, speed = (jsonio.number(record, k, where) for k in _STATE_KEYS)
        if math.hypot(x, y) > jsonio.MAX_ROW_NORM:
            raise ParseError(
                f"{where}: position ({x}, {y}) must have a norm of at most {jsonio.MAX_ROW_NORM}"
            )
        try:
            state = ObstacleState(
                timestamp=t,
                position=Point2(x, y),
                heading=wrap_angle(heading),
                speed=speed,
                obstacle_id=obstacle_id,
            )
        except ValueError as exc:
            raise ParseError(f"{where}: {exc}") from exc
        states_by_id.setdefault(obstacle_id, []).append(state)

    tracks = []
    for obstacle_id in sorted(states_by_id):
        states = sorted(states_by_id[obstacle_id], key=lambda st: st.timestamp)
        try:
            tracks.append(ObstacleTrack(obstacle_id=obstacle_id, states=tuple(states)))
        except SceneIntegrityError as exc:
            raise SceneIntegrityError(f"{path}: {exc}") from exc
    return tracks


def _map_entries(doc: dict, key: str, path: str) -> Iterator[Tuple[str, str, dict]]:
    """(id, where, entry) for each entry of the map's list doc[key], of
    "lanes" or "exits", refusing an entry without a string id and a repeated id."""
    entries = doc.get(key, [])
    if not isinstance(entries, list) or not all(isinstance(e, dict) for e in entries):
        raise ParseError(f"{path}: {key!r} must be a list of objects")
    kind = key[:-1]
    seen = set()
    for entry in entries:
        entry_id = entry.get("id")
        if not isinstance(entry_id, str):
            raise ParseError(f"{path}: {kind} entry without a string 'id'")
        if entry_id in seen:
            raise SceneIntegrityError(f"{path}: duplicate {kind} id {entry_id!r}")
        seen.add(entry_id)
        yield entry_id, f"{path}: {kind} {entry_id!r}", entry


def load_map(path: str) -> MapGraph:
    """Parse the single-document JSON map file into a validated MapGraph."""
    doc = jsonio.read_json(path)
    if not isinstance(doc, dict):
        raise ParseError(f"{path}:1: map file must be a JSON object")

    lanes: Dict[str, Lane] = {}
    for lane_id, where, entry in _map_entries(doc, "lanes", path):
        try:
            centerline = Curve(jsonio.rows(entry, "centerline", 2, where))
        except ValueError as exc:
            raise ParseError(f"{where}: bad centerline: {exc}") from exc
        successors = entry.get("successors", [])
        if not isinstance(successors, list) or not all(isinstance(s, str) for s in successors):
            raise ParseError(f"{where}: 'successors' must be a list of lane ids")
        lanes[lane_id] = Lane(lane_id, centerline, tuple(successors))

    exits: Dict[str, IntersectionExit] = {}
    for exit_id, where, entry in _map_entries(doc, "exits", path):
        try:
            x, y = (jsonio.number(entry, k, where) for k in ("x", "y"))
            lane_id = jsonio.string(entry, "lane_id", where)
        except KeyError as exc:
            raise ParseError(f"{where}: missing key {exc}") from exc
        exits[exit_id] = IntersectionExit(exit_id, x, y, lane_id)

    try:
        return MapGraph(lanes=lanes, exits=exits)
    except SceneIntegrityError as exc:
        raise SceneIntegrityError(f"{path}: {exc}") from exc


def load_ego_plan(path: str) -> EgoPlan:
    """Parse a JSON-lines ego plan of {t, x, y} rows."""
    poses = [
        tuple(jsonio.number(record, k, where) for k in ("t", "x", "y"))
        for where, record in jsonio.iter_jsonl(path, ("t", "x", "y"))
    ]
    if not poses:
        raise ParseError(f"{path}:1: ego plan file is empty")
    poses.sort(key=lambda pose: pose[0])
    try:
        return EgoPlan(*zip(*poses))
    except SceneIntegrityError as exc:
        raise SceneIntegrityError(f"{path}: {exc}") from exc


def load_scene(
    obstacle_log: str, map_file: str, ego_file: Optional[str] = None
) -> Tuple[list[ObstacleTrack], MapGraph, Optional[EgoPlan]]:
    """Load and validate the full scene: tracks, map, and optional ego plan."""
    tracks = load_obstacle_log(obstacle_log)
    map_graph = load_map(map_file)
    ego = load_ego_plan(ego_file) if ego_file is not None else None
    return tracks, map_graph, ego
