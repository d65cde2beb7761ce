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
from bisect import bisect_right
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from . import jsonio
from .annotation import AnchorKey, anchor_key, iter_anchor_records
from .errors import AssociationError, ConfigError, ParseError
from .geometry import Curve, point_at_s, project_point, tail_from, wrap_angle
from .scene import (
    DEFAULT_LATERAL_CAPTURE_M,
    MapGraph,
    ObstacleState,
    ObstacleTrack,
    Trajectory,
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
    """Renormalize priors to sum exactly to 1; rejects negatives, zero mass
    and a total mass that overflows."""
    if not priors:
        raise ValueError("no priors to normalize")
    try:
        total = math.fsum(p.prior for p in priors)
    except OverflowError as exc:
        raise ValueError("the priors' total mass overflows") from exc
    if any(p.prior < 0.0 for p in priors) or total <= 0.0:
        raise ValueError("priors must be nonnegative with positive total mass")
    return [IntentionPrior(p.intention_id, p.prior / total) for p in priors]


def load_priors(path: str) -> Dict[AnchorKey, List[IntentionPrior]]:
    """Parse a JSON-lines priors file keyed by anchor_key(obstacle_id, anchor_time)."""
    table: Dict[AnchorKey, List[IntentionPrior]] = {}
    for where, record in iter_anchor_records(path, ("intentions",)):
        key = anchor_key(record["obstacle_id"], record["anchor_time"])
        try:
            entries = [
                IntentionPrior(
                    jsonio.string(item, "id", where),
                    jsonio.number(item, "prior", where),
                )
                for item in record["intentions"]
            ]
        except (KeyError, TypeError) as exc:
            raise ParseError(f"{where}: malformed priors record: {exc}") from exc
        if key in table:
            raise ParseError(f"{where}: duplicate priors for {key}")
        if len({p.intention_id for p in entries}) != len(entries):
            raise ParseError(f"{where}: repeated intention id for {key}")
        try:
            table[key] = normalize_priors(entries)
        except ValueError as exc:
            raise ParseError(f"{where}: {exc}") from exc
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
    state = track.states[-1]
    scores = []
    for ex in map_graph.sorted_exits():
        bearing = math.atan2(ex.y - state.position.y, ex.x - state.position.x)
        misalignment = abs(wrap_angle(bearing - state.heading))
        scores.append((ex.exit_id, -misalignment / temperature))
    peak = max(score for _, score in scores)
    return normalize_priors(
        [IntentionPrior(exit_id, math.exp(score - peak)) for exit_id, score in scores]
    )


@dataclass(frozen=True)
class PathCandidate:
    """A successor-linked lane sequence realized as one concatenated curve,
    trimmed to start at the obstacle's projection point."""

    lane_ids: Tuple[str, ...]
    curve: Curve


def _concat_centerlines(map_graph: MapGraph, lane_ids: Sequence[str]) -> Curve:
    rows: List[Tuple[float, float]] = []
    for lane_id in lane_ids:
        centerline = map_graph.lanes[lane_id].centerline
        for x, y in zip(centerline.xs, centerline.ys):
            if rows and math.hypot(rows[-1][0] - x, rows[-1][1] - y) < 1e-9:
                continue
            rows.append((x, y))
    return Curve(rows)


def _trimmed_curve(curve: Curve, x: float, y: float) -> Curve:
    """Cut the concatenated centerline at the projection of the start position (x, y).

    A start at (or past) the curve end degenerates to a short tangent stub so
    downstream interpolation can extrapolate forward.
    """
    s, _ = project_point(curve, x, y)
    if s >= curve.length - 1e-9:
        end_x, end_y, heading = point_at_s(curve, curve.length)
        return Curve([(end_x, end_y), (end_x + math.cos(heading), end_y + math.sin(heading))])
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


def search_paths(
    intention_id: str,
    start: ObstacleState,
    map_graph: MapGraph,
    min_length: float,
    max_lanes: int,
) -> List[PathCandidate]:
    """Lane-sequence search for one intention from the obstacle's position.

    The search roots at the lane the obstacle laterally associates with. An
    exit intention must route through the exit's associated lane unless the
    obstacle has already passed it (the root is a successor-descendant of
    it); when no rooted sequence reaches that lane, the search re-roots
    there provided the obstacle lies within the capture distance of it. An
    intention id naming lanes joined by '->' pins the sequence prefix
    explicitly. AssociationError means the intention is not realizable from
    the obstacle's position: off-map with no pinned lanes, an exit whose
    lane is out of reach, or a lane path whose curve cannot be built.
    """
    if max_lanes < 1:
        raise ValueError(f"max_lanes must be >= 1, got {max_lanes}")

    x, y = start.position.x, start.position.y
    required_lane: Optional[str] = None
    pinned: Optional[List[str]] = None
    if intention_id in map_graph.exits:
        required_lane = map_graph.exits[intention_id].associated_lane_id
    else:
        parts = intention_id.split(LANE_SEQUENCE_SEPARATOR)
        if all(part in map_graph.lanes for part in parts):
            pinned = parts

    def path_curve(lane_ids: Sequence[str], trim: bool) -> Curve:
        """The lanes' joined centerline, cut at the obstacle if trim; lanes that
        each load can still join at a vertex lost to rounding."""
        try:
            curve = _concat_centerlines(map_graph, lane_ids)
            return _trimmed_curve(curve, x, y) if trim else curve
        except ValueError as exc:
            raise AssociationError(
                f"intention {intention_id!r}: lanes {LANE_SEQUENCE_SEPARATOR.join(lane_ids)!r} "
                f"do not form one curve: {exc}"
            ) from exc

    def from_prefix(
        prefix: List[str], curve: Curve, require: Optional[str] = None
    ) -> List[Tuple[str, ...]]:
        """Sequences extending prefix, whose curve must be within the capture
        distance, that pass through the required lane if one is given."""
        s0, distance = project_point(curve, x, y)
        if distance > DEFAULT_LATERAL_CAPTURE_M:
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
        sequences = from_prefix(pinned, path_curve(pinned, trim=False))
    else:
        root = nearest_lane(map_graph, x, y)
        if root is None and required_lane is None:
            raise AssociationError(
                f"obstacle {start.obstacle_id!r} does not associate with any lane "
                f"within {DEFAULT_LATERAL_CAPTURE_M} m"
            )
        sequences = []
        if root is not None:
            closure = map_graph.successor_closure
            require = required_lane
            if require is not None and root in closure[require]:
                require = None  # the exit's lane is the root or already behind the obstacle
            # a rooted sequence holds only lanes reachable from the root, so one
            # that must pass an unreachable exit lane does not exist
            if require is None or require in closure[root]:
                # the root passed nearest_lane's capture test, so this cannot raise
                sequences = from_prefix([root], map_graph.lanes[root].centerline, require)
        if not sequences:  # no rooted sequence reaches the exit lane: re-root there
            sequences = from_prefix([required_lane], map_graph.lanes[required_lane].centerline)
    return [
        PathCandidate(lane_ids=lane_ids, curve=path_curve(lane_ids, trim=True))
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
    """Constant-acceleration speed profile with speed clamped to [0, v_max],
    sampled once, when it is built, on its time grid (scene.time_grid from 0
    to duration by resolution): the arc length, speed and effective
    acceleration at each of its times.

    The arc length is the exact integral of the clamped speed: the unclamped
    speed is linear in t, so the trapezoid rule between the clamp crossings
    is closed-form exact. The crossings, and the arc length summed up to
    each, are computed once; each time then adds the trapezoid from the last
    crossing strictly before it.
    """

    v0: float
    a: float
    duration: float
    resolution: float
    v_max: float = math.inf
    times: Tuple[float, ...] = field(init=False, repr=False, compare=False)
    arc_lengths: Tuple[float, ...] = field(init=False, repr=False, compare=False)
    speeds: Tuple[float, ...] = field(init=False, repr=False, compare=False)
    accels: Tuple[float, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.v0 < 0.0:
            raise ValueError(f"initial speed must be nonnegative, got {self.v0}")
        if self.resolution <= 0.0 or self.duration <= 0.0:
            raise ValueError("duration and resolution must be positive")
        v0, a, v_max = self.v0, self.a, self.v_max
        times = time_grid(self.duration, self.resolution)
        crossings = []
        if a != 0.0 and times:
            crossings = sorted(
                tc for tc in ((0.0 - v0) / a, (v_max - v0) / a) if 0.0 < tc < times[-1]
            )
        knots, knot_speeds, prefix = [0.0], [min(v_max, max(0.0, v0))], [0.0]
        for tc in crossings:
            v = min(v_max, max(0.0, v0 + a * tc))
            prefix.append(prefix[-1] + 0.5 * (knot_speeds[-1] + v) * (tc - knots[-1]))
            knots.append(tc)
            knot_speeds.append(v)
        arc_lengths, speeds, accels = [], [], []
        j = 0  # crossings strictly before t
        for t in times:
            while j < len(crossings) and crossings[j] < t:
                j += 1
            v = min(v_max, max(0.0, v0 + a * t))
            arc_lengths.append(prefix[j] + 0.5 * (knot_speeds[j] + v) * (t - knots[j]))
            speeds.append(v)
            accels.append(a if 0.0 < v < v_max else 0.0)
        object.__setattr__(self, "times", tuple(times))
        object.__setattr__(self, "arc_lengths", tuple(arc_lengths))
        object.__setattr__(self, "speeds", tuple(speeds))
        object.__setattr__(self, "accels", tuple(accels))


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
class CandidateTrajectory(Trajectory):
    """A (path, speed profile) pair realized as a trajectory."""

    source_profile: SpeedProfile


def realize_trajectory(path: PathCandidate, profile: SpeedProfile) -> CandidateTrajectory:
    """Walk the path's curve by the profile's arc lengths, in one pass over
    its times, into x, y and curvature columns; the candidate shares the
    profile's times, speeds and accelerations.

    A point lies on the segment that bisect_right places its arc length in,
    as point_at_s places it, so a vertex belongs to its outgoing segment. It
    takes the curvature of the vertex nearest to it, ties to the lower
    index. Points beyond the curve end follow the final segment's tangent;
    their curvature is zero on the straight extension. ValueError refuses a
    non-finite coordinate, as Curve does.
    """
    curve = path.curve
    vx, vy, cum, kappa = curve.xs, curve.ys, curve.cumulative_s, curve.vertex_curvatures
    last_vertex, length = len(vx) - 1, cum[-1]
    xs, ys, curvatures = [], [], []
    for s in profile.arc_lengths:
        # searching below the last vertex puts s beyond the end on the final segment
        i = bisect_right(cum, s, 0, last_vertex) - 1
        u = (s - cum[i]) / (cum[i + 1] - cum[i])
        xs.append(vx[i] + u * (vx[i + 1] - vx[i]))
        ys.append(vy[i] + u * (vy[i + 1] - vy[i]))
        nearest = i if s - cum[i] <= cum[i + 1] - s else i + 1
        curvatures.append(0.0 if s > length else kappa[nearest])
    if not (all(map(math.isfinite, xs)) and all(map(math.isfinite, ys))):
        lanes = LANE_SEQUENCE_SEPARATOR.join(path.lane_ids)
        raise ValueError(f"non-finite coordinates on the path through lanes {lanes!r}")
    return CandidateTrajectory(
        profile.times,
        tuple(xs),
        tuple(ys),
        profile.speeds,
        tuple(curvatures),
        profile.accels,
        source_profile=profile,
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
        try:
            if not time_grid(self.horizon_secs, self.resolution_secs):
                raise ValueError("horizon_secs must be at least resolution_secs")
        except ValueError as exc:
            raise ConfigError(f"horizon_secs/resolution_secs: {exc}") from exc
        if self.v_max <= 0.0:
            raise ConfigError("v_max must be positive")
        if self.a_min > self.a_max:
            raise ConfigError("a_min must not exceed a_max")
        if not any(self.a_min <= a <= self.a_max for a in self.accel_set):
            raise ConfigError(
                f"accel_set has no acceleration within [a_min, a_max] = [{self.a_min}, {self.a_max}]"
            )
        if self.max_lanes < 1:
            raise ConfigError("max_lanes must be >= 1")
        # heading misalignments reach pi, so a finite pi / temperature keeps the exit priors finite
        if not (self.temperature > 0.0 and math.pi / self.temperature < math.inf):
            raise ConfigError("temperature must be positive, with pi / temperature finite")

    @property
    def limits(self) -> KinematicLimits:
        return KinematicLimits(a_min=self.a_min, a_max=self.a_max, v_max=self.v_max)

    @classmethod
    def from_file(cls, path: str) -> "GenerationConfig":
        return jsonio.load_dataclass(cls, path)
