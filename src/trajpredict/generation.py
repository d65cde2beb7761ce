"""Candidate trajectory generation.

For each intention hypothesis (an intersection exit or a lane sequence) the
generator searches lane paths through the successor graph, samples constant
acceleration speed profiles within kinematic limits, and realizes each
(path, profile) pair as a timestamped candidate trajectory on the shared
sample-time grid (scene.time_grid), so a candidate and the label of the same
horizon and resolution carry the same times. A profile that runs past the end
of its path continues along the path's final tangent, so every candidate
covers the full horizon.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from . import jsonio
from .annotation import AnchorKey, anchor_key, iter_anchor_records
from .errors import AssociationError, ConfigError, ParseError
from .geometry import (
    Curve,
    Point2,
    curvature_at_s,
    point_at_s,
    project_point,
    tail_from,
    wrap_angle,
)
from .scene import (
    DEFAULT_LATERAL_CAPTURE_M,
    MapGraph,
    ObstacleState,
    ObstacleTrack,
    nearest_lane,
    time_grid,
)

LANE_SEQUENCE_SEPARATOR = "->"


@dataclass(frozen=True)
class IntentionPrior:
    """One intention hypothesis with its probability before trajectory evidence."""

    intention_id: str
    prior: float


def normalize_priors(priors: Sequence[IntentionPrior]) -> List[IntentionPrior]:
    """Renormalize priors to sum exactly to 1; rejects negatives and zero mass."""
    if not priors:
        raise ValueError("no priors to normalize")
    total = math.fsum(p.prior for p in priors)
    if any(p.prior < 0.0 for p in priors) or total <= 0.0:
        raise ValueError("priors must be nonnegative with positive total mass")
    return [IntentionPrior(p.intention_id, p.prior / total) for p in priors]


def load_priors(path: str) -> Dict[AnchorKey, List[IntentionPrior]]:
    """Parse a JSON-lines priors file keyed by anchor_key(obstacle_id, anchor_time)."""
    table: Dict[AnchorKey, List[IntentionPrior]] = {}
    for lineno, record in iter_anchor_records(path, ("intentions",)):
        key = anchor_key(record["obstacle_id"], record["anchor_time"])
        try:
            entries = [
                IntentionPrior(
                    jsonio.string(item, "id", path, lineno),
                    jsonio.number(item, "prior", path, lineno),
                )
                for item in record["intentions"]
            ]
        except (KeyError, TypeError) as exc:
            raise ParseError(f"{path}:{lineno}: malformed priors record: {exc}") from exc
        if key in table:
            raise ParseError(f"{path}:{lineno}: duplicate priors for {key}")
        if len({p.intention_id for p in entries}) != len(entries):
            raise ParseError(f"{path}:{lineno}: repeated intention id for {key}")
        try:
            table[key] = normalize_priors(entries)
        except ValueError as exc:
            raise ParseError(f"{path}:{lineno}: {exc}") from exc
    return table


def heuristic_exit_priors(
    track: ObstacleTrack, map_graph: MapGraph, temperature: float = 1.0
) -> List[IntentionPrior]:
    """Softmax over negative heading misalignment between the obstacle's
    heading and the bearing to each exit. A stand-in prior source for when
    no model-produced priors file is supplied."""
    if not map_graph.exits:
        raise ValueError("map has no intersection exits")
    if temperature <= 0.0:
        raise ValueError(f"temperature must be positive, got {temperature}")
    state = track.latest
    scores = []
    for ex in map_graph.sorted_exits():
        bearing = math.atan2(ex.position.y - state.position.y, ex.position.x - state.position.x)
        misalignment = abs(wrap_angle(bearing - state.heading))
        scores.append((ex.exit_id, -misalignment / temperature))
    peak = max(score for _, score in scores)
    weights = [(exit_id, math.exp(score - peak)) for exit_id, score in scores]
    total = math.fsum(w for _, w in weights)
    return [IntentionPrior(exit_id, w / total) for exit_id, w in weights]


@dataclass(frozen=True)
class PathCandidate:
    """A successor-linked lane sequence realized as one concatenated curve,
    trimmed to start at the obstacle's projection point."""

    intention_id: str
    lane_ids: Tuple[str, ...]
    curve: Curve


def _concat_centerlines(map_graph: MapGraph, lane_ids: Sequence[str]) -> Curve:
    points: List[Point2] = []
    for lane_id in lane_ids:
        for p in map_graph.lanes[lane_id].centerline.points:
            if points and points[-1].distance_to(p) < 1e-9:
                continue
            points.append(p)
    return Curve(points)


def _trimmed_curve(curve: Curve, start: Point2) -> Curve:
    """Cut the concatenated centerline at the projection of the start position.

    A start at (or past) the curve end degenerates to a short tangent stub so
    downstream interpolation can extrapolate forward.
    """
    s, _ = project_point(curve, start)
    if s >= curve.length - 1e-9:
        pos, heading = point_at_s(curve, curve.length)
        return Curve(
            [pos, Point2(pos.x + math.cos(heading), pos.y + math.sin(heading))]
        )
    return tail_from(curve, s)


def _enumerate_sequences(
    map_graph: MapGraph,
    initial: Sequence[str],
    initial_length: float,
    min_length: float,
    max_lanes: int,
    required_lane: Optional[str],
) -> List[Tuple[str, ...]]:
    """Depth-first successor sequences extending `initial`, truncated once the
    required lane (if any) is included and the cumulative length reaches
    min_length, or at max_lanes; lane repetition within one sequence is
    forbidden, which also breaks graph cycles."""
    results: List[Tuple[str, ...]] = []

    def visit(sequence: List[str], length: float):
        lane_id = sequence[-1]
        satisfied = length >= min_length and (
            required_lane is None or required_lane in sequence
        )
        successors = [
            succ
            for succ in sorted(map_graph.lanes[lane_id].successor_ids)
            if succ not in sequence
        ]
        if satisfied or len(sequence) >= max_lanes or not successors:
            results.append(tuple(sequence))
            return
        for succ in successors:
            visit(sequence + [succ], length + map_graph.lanes[succ].centerline.length)

    visit(list(initial), initial_length)
    return results


def _reachable(map_graph: MapGraph, src: str, dst: str) -> bool:
    """True when dst can be reached from src through successor links."""
    frontier = [src]
    seen = {src}
    while frontier:
        lane_id = frontier.pop()
        if lane_id == dst:
            return True
        for succ in map_graph.lanes[lane_id].successor_ids:
            if succ not in seen:
                seen.add(succ)
                frontier.append(succ)
    return False


def search_paths(
    intention_id: str,
    start: ObstacleState,
    map_graph: MapGraph,
    min_length: float,
    max_lanes: int,
    lateral_capture: float = DEFAULT_LATERAL_CAPTURE_M,
) -> List[PathCandidate]:
    """Lane-sequence search for one intention from the obstacle's position.

    The search roots at the lane the obstacle laterally associates with. An
    exit intention must route through the exit's associated lane unless the
    obstacle has already passed it (the root is a successor-descendant of
    it); when no rooted sequence reaches that lane, the search re-roots
    there provided the obstacle lies within the capture distance of it. An
    intention id naming lanes joined by '->' pins the sequence prefix
    explicitly. AssociationError means the intention is not realizable from
    the obstacle's position: off-map with no pinned lanes, or an exit whose
    lane is out of reach.
    """
    if max_lanes < 1:
        raise ValueError(f"max_lanes must be >= 1, got {max_lanes}")

    required_lane: Optional[str] = None
    pinned: Optional[List[str]] = None
    if intention_id in map_graph.exits:
        required_lane = map_graph.exits[intention_id].associated_lane_id
    else:
        parts = intention_id.split(LANE_SEQUENCE_SEPARATOR)
        if all(part in map_graph.lanes for part in parts):
            pinned = parts

    def from_prefix(
        prefix: List[str], curve: Curve, require: Optional[str] = None
    ) -> List[Tuple[str, ...]]:
        """Sequences extending prefix, whose curve must be within the capture
        distance, that pass through the required lane if one is given."""
        s0, distance = project_point(curve, start.position)
        if distance > lateral_capture:
            raise AssociationError(
                f"intention {intention_id!r}: lanes {LANE_SEQUENCE_SEPARATOR.join(prefix)!r} "
                f"are out of reach for obstacle {start.obstacle_id!r}"
            )
        sequences = _enumerate_sequences(
            map_graph, prefix, curve.length - s0, min_length, max_lanes, require
        )
        return [seq for seq in sequences if require is None or require in seq]

    if pinned is not None:
        for cur, nxt in zip(pinned, pinned[1:]):
            if nxt not in map_graph.lanes[cur].successor_ids:
                raise AssociationError(
                    f"intention {intention_id!r}: lane {nxt!r} is not a successor of {cur!r}"
                )
        sequences = from_prefix(pinned, _concat_centerlines(map_graph, pinned))
    else:
        root = nearest_lane(map_graph, start.position, lateral_capture)
        if root is None and required_lane is None:
            raise AssociationError(
                f"obstacle {start.obstacle_id!r} does not associate with any lane "
                f"within {lateral_capture} m"
            )
        sequences = []
        if root is not None:
            require = required_lane
            if require is not None and (root == require or _reachable(map_graph, require, root)):
                require = None  # the exit's lane is the root or already behind the obstacle
            # the root passed nearest_lane's capture test, so this cannot raise
            sequences = from_prefix([root], map_graph.lanes[root].centerline, require)
        if not sequences:  # no rooted sequence reaches the exit lane: re-root there
            sequences = from_prefix([required_lane], map_graph.lanes[required_lane].centerline)
    return [
        PathCandidate(
            intention_id=intention_id,
            lane_ids=lane_ids,
            curve=_trimmed_curve(_concat_centerlines(map_graph, lane_ids), start.position),
        )
        for lane_ids in sorted(set(sequences))
    ]


@dataclass(frozen=True)
class KinematicLimits:
    """Vehicle physical limits bounding the sampled speed profiles."""

    a_min: float = -6.0
    a_max: float = 4.0
    v_max: float = 25.0


@dataclass(frozen=True)
class SpeedProfile:
    """Constant-acceleration speed profile with speed clamped to [0, v_max]."""

    v0: float
    a: float
    duration: float
    resolution: float
    v_max: float = math.inf

    def __post_init__(self):
        if self.v0 < 0.0:
            raise ValueError(f"initial speed must be nonnegative, got {self.v0}")
        if self.resolution <= 0.0 or self.duration <= 0.0:
            raise ValueError("duration and resolution must be positive")

    def speed_at(self, t: float) -> float:
        return min(self.v_max, max(0.0, self.v0 + self.a * t))

    def state_at(self, t: float) -> Tuple[float, float, float]:
        """(arc length, speed, effective acceleration) at time t.

        The arc length is the exact integral of the clamped speed: the
        unclamped speed is linear in t, so integrating piecewise between the
        clamp crossings with the trapezoid rule is closed-form exact.
        """
        if t < 0.0:
            raise ValueError(f"time must be nonnegative, got {t}")
        breaks = [0.0, t]
        if self.a != 0.0:
            for bound in (0.0, self.v_max):
                tc = (bound - self.v0) / self.a
                if 0.0 < tc < t:
                    breaks.append(tc)
        breaks.sort()
        s = 0.0
        for t0, t1 in zip(breaks, breaks[1:]):
            s += 0.5 * (self.speed_at(t0) + self.speed_at(t1)) * (t1 - t0)
        v = self.speed_at(t)
        effective_a = self.a if 0.0 < v < self.v_max else 0.0
        return s, v, effective_a

    def sample_times(self) -> List[float]:
        return time_grid(self.duration, self.resolution)


def sample_profiles(
    v0: float,
    accel_set: Sequence[float],
    horizon: float,
    resolution: float,
    limits: KinematicLimits,
) -> List[SpeedProfile]:
    """One profile per admissible acceleration, sorted ascending; accelerations
    outside [a_min, a_max] are dropped and speeds cap at v_max."""
    if not accel_set:
        raise ValueError("accel_set must be nonempty")
    admissible = sorted({a for a in accel_set if limits.a_min <= a <= limits.a_max})
    return [
        SpeedProfile(v0=v0, a=a, duration=horizon, resolution=resolution, v_max=limits.v_max)
        for a in admissible
    ]


@dataclass(frozen=True)
class TrajectoryPoint:
    t: float
    position: Point2
    speed: float
    curvature: float
    accel: float


@dataclass(frozen=True)
class CandidateTrajectory:
    """A (path, speed profile) pair realized as timestamped poses."""

    intention_id: str
    points: Tuple[TrajectoryPoint, ...]
    source_profile: SpeedProfile


def realize_trajectory(path: PathCandidate, profile: SpeedProfile) -> CandidateTrajectory:
    """Walk the path's curve by the profile's closed-form arc length.

    Points beyond the curve end follow the final segment's tangent; their
    curvature is zero on the straight extension.
    """
    points = []
    for t in profile.sample_times():
        s, v, a_eff = profile.state_at(t)
        position, _ = point_at_s(path.curve, s)
        points.append(
            TrajectoryPoint(
                t=t,
                position=position,
                speed=v,
                curvature=curvature_at_s(path.curve, s),
                accel=a_eff,
            )
        )
    return CandidateTrajectory(
        intention_id=path.intention_id, points=tuple(points), source_profile=profile
    )


@dataclass(frozen=True)
class GenerationConfig:
    """Knobs for the candidate generator, loaded from a JSON document."""

    accel_set: Tuple[float, ...] = (-4.0, -2.0, -1.0, 0.0, 1.0, 2.0)
    a_min: float = -6.0
    a_max: float = 4.0
    v_max: float = 25.0
    horizon_secs: float = 8.0
    resolution_secs: float = 0.1
    min_path_length_m: float = 60.0
    max_lanes: int = 4
    temperature: float = 1.0

    def __post_init__(self):
        if not self.accel_set:
            raise ConfigError("accel_set must be nonempty")
        if self.horizon_secs <= 0.0 or self.resolution_secs <= 0.0:
            raise ConfigError("horizon_secs and resolution_secs must be positive")
        if self.horizon_secs < self.resolution_secs:
            raise ConfigError("horizon_secs must be at least resolution_secs")
        if self.v_max <= 0.0:
            raise ConfigError("v_max must be positive")
        if self.a_min > self.a_max:
            raise ConfigError("a_min must not exceed a_max")
        if self.max_lanes < 1:
            raise ConfigError("max_lanes must be >= 1")
        if self.temperature <= 0.0:
            raise ConfigError("temperature must be positive")

    @property
    def limits(self) -> KinematicLimits:
        return KinematicLimits(a_min=self.a_min, a_max=self.a_max, v_max=self.v_max)

    @classmethod
    def from_file(cls, path: str) -> "GenerationConfig":
        return jsonio.load_dataclass(cls, path)
