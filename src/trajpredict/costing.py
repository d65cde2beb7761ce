"""Trajectory costing, likelihood, and posterior ranking.

Each candidate trajectory is scored by three penalties: squared longitudinal
acceleration (comfort), squared centripetal acceleration (lateral comfort),
and an exponential proximity kernel against the ego vehicle's planned
trajectory (safety). The weighted total maps to a likelihood exp(-C), and
per-intention likelihoods reweight the intention priors into posteriors.

The exponential collision kernel exp(-d^2) decays with distance, so closer
encounters cost more; the per-point distance d aligns the candidate point
with the ego plan pose interpolated at the same absolute timestamp.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, List, Mapping, Optional, Sequence, Tuple

from . import jsonio
from .annotation import iter_anchor_records, timed_points
from .errors import ConfigError, ParseError
from .generation import CandidateTrajectory, IntentionPrior, SpeedProfile
from .geometry import Point2
from .scene import EgoPlan

REFERENCE_SPEED = 15.0  # m/s, renders centripetal sub-costs O(1)
REFERENCE_CURVATURE = 0.05  # 1/m


@dataclass(frozen=True)
class CostWeights:
    """Learnable weights of the three sub-costs plus normalization constants."""

    theta_acc: float = 1.0
    theta_centripetal: float = 1.0
    theta_collision: float = 1.0
    z1: float = 1.0
    z2: float = 1.0

    def __post_init__(self):
        values = (self.theta_acc, self.theta_centripetal, self.theta_collision)
        if any(not math.isfinite(v) or v < 0.0 for v in values):
            raise ValueError(f"weights must be finite and nonnegative, got {values}")
        if not (self.z1 > 0.0 and self.z2 > 0.0):
            raise ValueError(f"normalizers must be positive, got z1={self.z1}, z2={self.z2}")

    @classmethod
    def defaults(cls, n_points: int) -> "CostWeights":
        """Unit weights with normalizers scaled so sub-costs are O(1) for a
        trajectory of n_points samples."""
        z1 = n_points * (REFERENCE_SPEED**2 * REFERENCE_CURVATURE) ** 2
        return cls(z1=z1, z2=float(n_points))

    @classmethod
    def from_file(cls, path: str) -> "CostWeights":
        """All five keys are required; others (a tuned file's final_loss and
        iterations) are ignored."""
        doc = jsonio.read_config(path)
        try:
            return cls(
                theta_acc=float(doc["theta_acc"]),
                theta_centripetal=float(doc["theta_centripetal"]),
                theta_collision=float(doc["theta_collision"]),
                z1=float(doc["z1"]),
                z2=float(doc["z2"]),
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise ConfigError(f"{path}: invalid weights file: {exc}") from exc

    def to_dict(self) -> dict:
        return {
            "theta_acc": self.theta_acc,
            "theta_centripetal": self.theta_centripetal,
            "theta_collision": self.theta_collision,
            "z1": self.z1,
            "z2": self.z2,
        }


@dataclass(frozen=True)
class CostBreakdown:
    c_acc: float
    c_centripetal: float
    c_collision: float
    total: float


def sum_squared_accels(accels: Iterable[float]) -> float:
    """Comfort kernel: the sum of squared longitudinal accelerations."""
    return math.fsum(a * a for a in accels)


def sum_squared_centripetal(speeds: Iterable[float], curvatures: Iterable[float], z1: float) -> float:
    """Lateral comfort kernel: the sum of squared v^2 * curvature, over z1."""
    if z1 <= 0.0:
        raise ValueError(f"z1 must be positive, got {z1}")
    return math.fsum((v * v * k) ** 2 for v, k in zip(speeds, curvatures)) / z1


def sum_proximity(
    timed_positions: Iterable[Tuple[float, Point2]],
    ego: Optional[EgoPlan],
    z2: float,
    anchor_time: float,
) -> float:
    """Safety kernel: the sum of exp(-d^2) over z2, where d is the distance
    from each (relative time, position) to the ego pose interpolated at the
    same absolute time. Zero without an ego plan."""
    if z2 <= 0.0:
        raise ValueError(f"z2 must be positive, got {z2}")
    if ego is None or not ego.poses:
        return 0.0
    terms = []
    for t, position in timed_positions:
        d = position.distance_to(ego.position_at(anchor_time + t))
        terms.append(math.exp(-d * d))
    return math.fsum(terms) / z2


def cost_acc(trajectory: CandidateTrajectory) -> float:
    """Sum of squared per-point longitudinal accelerations."""
    return sum_squared_accels(p.accel for p in trajectory.points)


def cost_centripetal(trajectory: CandidateTrajectory, z1: float) -> float:
    """Sum of squared centripetal accelerations (v^2 * curvature), over z1."""
    points = trajectory.points
    return sum_squared_centripetal((p.speed for p in points), (p.curvature for p in points), z1)


def cost_collision(
    trajectory: CandidateTrajectory,
    ego: Optional[EgoPlan],
    z2: float,
    anchor_time: float = 0.0,
) -> float:
    """Sum of exp(-d^2) proximity terms against the ego plan, over z2.

    d is the distance between each trajectory point and the ego pose
    interpolated at the same absolute timestamp (anchor_time + point time);
    queries beyond the plan's coverage clamp to its end poses. Without an
    ego plan the cost is zero by convention.
    """
    return sum_proximity(((p.t, p.position) for p in trajectory.points), ego, z2, anchor_time)


def weighted_total(
    weights: CostWeights, c_acc_value: float, c_centripetal_value: float, c_collision_value: float
) -> float:
    """The dot product of the weight vector with the three sub-costs."""
    return (
        weights.theta_acc * c_acc_value
        + weights.theta_centripetal * c_centripetal_value
        + weights.theta_collision * c_collision_value
    )


def total_cost(
    trajectory: CandidateTrajectory,
    ego: Optional[EgoPlan],
    weights: CostWeights,
    anchor_time: float = 0.0,
) -> CostBreakdown:
    """Sub-costs plus their weighted total for one candidate trajectory."""
    ca = cost_acc(trajectory)
    cc = cost_centripetal(trajectory, weights.z1)
    ccol = cost_collision(trajectory, ego, weights.z2, anchor_time)
    return CostBreakdown(
        c_acc=ca,
        c_centripetal=cc,
        c_collision=ccol,
        total=weighted_total(weights, ca, cc, ccol),
    )


def likelihood(cost: float) -> float:
    """exp(-C): strictly decreasing in the cost, 1 at zero cost."""
    if cost < 0.0:
        raise ValueError(f"cost must be nonnegative, got {cost}")
    return math.exp(-cost)


@dataclass(frozen=True)
class IntentionRanking:
    """Per-intention outcome: prior, cheapest candidate, and its posterior."""

    intention_id: str
    prior: float
    min_cost: float
    likelihood: float
    posterior: float
    best_trajectory: CandidateTrajectory
    best_breakdown: CostBreakdown
    candidate_breakdowns: Tuple[CostBreakdown, ...]


@dataclass(frozen=True)
class PredictionResult:
    obstacle_id: str
    anchor_time: float
    intentions: Tuple[IntentionRanking, ...]
    selected_intention: str


def rank_intentions(
    obstacle_id: str,
    anchor_time: float,
    candidates_by_intention: Mapping[str, Sequence[CandidateTrajectory]],
    priors: Sequence[IntentionPrior],
    ego: Optional[EgoPlan],
    weights: CostWeights,
) -> PredictionResult:
    """Rank intentions by posterior = prior * exp(-min cost) / Z.

    Each intention's likelihood uses its cheapest candidate; that candidate
    is the intention's predicted trajectory. Cost ties break to the smaller
    profile |a|, then the earlier candidate. The selected intention is the
    posterior argmax, ties to the smaller intention id.

    Posteriors are invariant to a constant shift of every min cost, so they
    are normalized relative to the cheapest intention; this keeps Z strictly
    positive even when the raw exp(-C) likelihoods underflow to zero.
    """
    if not priors:
        raise ValueError("no intention priors supplied")
    total_prior = math.fsum(p.prior for p in priors)
    if any(p.prior < 0.0 for p in priors) or total_prior <= 0.0:
        raise ValueError("priors must be nonnegative with positive total mass")

    scored = []
    for p in sorted(priors, key=lambda item: item.intention_id):
        candidates = candidates_by_intention.get(p.intention_id)
        if not candidates:
            raise ValueError(
                f"intention {p.intention_id!r} has a prior but no candidate trajectories"
            )
        breakdowns = [total_cost(c, ego, weights, anchor_time) for c in candidates]
        best_idx = min(
            range(len(candidates)),
            key=lambda i: (
                breakdowns[i].total,
                abs(candidates[i].source_profile.a),
                i,
            ),
        )
        min_cost = breakdowns[best_idx].total
        scored.append(
            {
                "intention_id": p.intention_id,
                "prior": p.prior / total_prior,
                "min_cost": min_cost,
                "likelihood": likelihood(min_cost),
                "best_idx": best_idx,
                "candidates": candidates,
                "breakdowns": breakdowns,
            }
        )

    cheapest = min(item["min_cost"] for item in scored)
    masses = [item["prior"] * math.exp(cheapest - item["min_cost"]) for item in scored]
    z = math.fsum(masses)
    rankings = []
    selected = None
    for item, mass in zip(scored, masses):
        posterior = mass / z
        rankings.append(
            IntentionRanking(
                intention_id=item["intention_id"],
                prior=item["prior"],
                min_cost=item["min_cost"],
                likelihood=item["likelihood"],
                posterior=posterior,
                best_trajectory=item["candidates"][item["best_idx"]],
                best_breakdown=item["breakdowns"][item["best_idx"]],
                candidate_breakdowns=tuple(item["breakdowns"]),
            )
        )
        if selected is None or posterior > selected[0]:
            selected = (posterior, item["intention_id"])

    return PredictionResult(
        obstacle_id=obstacle_id,
        anchor_time=anchor_time,
        intentions=tuple(rankings),
        selected_intention=selected[1],
    )


def _profile_to_dict(profile: SpeedProfile) -> dict:
    return {
        "v0": profile.v0,
        "a": profile.a,
        "duration": profile.duration,
        "resolution": profile.resolution,
        "v_max": None if math.isinf(profile.v_max) else profile.v_max,
    }


def _trajectory_to_dict(trajectory: CandidateTrajectory) -> dict:
    return {
        "profile": _profile_to_dict(trajectory.source_profile),
        "points": [
            [p.t, p.position.x, p.position.y, p.speed, p.curvature, p.accel]
            for p in trajectory.points
        ],
    }


def result_to_record(result: PredictionResult, weights: CostWeights) -> dict:
    """Serialize a PredictionResult to the JSON-lines prediction schema.

    The record embeds the normalizers (z1, z2) used for its sub-costs and a
    full per-candidate sub-cost breakdown per intention, so the weight tuner
    can consume prediction files without re-running generation.
    """
    return {
        "obstacle_id": result.obstacle_id,
        "anchor_time": result.anchor_time,
        "z1": weights.z1,
        "z2": weights.z2,
        "selected_intention": result.selected_intention,
        "intentions": [
            {
                "intention_id": r.intention_id,
                "prior": r.prior,
                "min_cost": r.min_cost,
                "likelihood": r.likelihood,
                "posterior": r.posterior,
                "best_trajectory": _trajectory_to_dict(r.best_trajectory),
                "candidates": [
                    [b.c_acc, b.c_centripetal, b.c_collision, b.total]
                    for b in r.candidate_breakdowns
                ],
            }
            for r in result.intentions
        ],
    }


def load_prediction_records(path: str) -> List[dict]:
    """Parse a JSON-lines prediction file, validating the record shape.

    The normalizers a record carries must be positive: the tuner divides by them.
    """
    records = []
    for lineno, record in iter_anchor_records(path, ("selected_intention", "intentions")):
        for key in ("z1", "z2"):
            if key in record and jsonio.number(record, key, path, lineno) <= 0.0:
                raise ParseError(f"{path}:{lineno}: normalizer {key!r} must be positive")
        records.append(record)
    return records


def best_points_from_record(record: dict) -> List[Tuple[float, Point2]]:
    """Timestamped positions of the selected intention's best trajectory."""
    selected = record["selected_intention"]
    for entry in record["intentions"]:
        if entry["intention_id"] == selected:
            return timed_points(entry["best_trajectory"]["points"])
    raise ParseError(
        f"prediction record for {record['obstacle_id']!r}@{record['anchor_time']}: "
        f"selected intention {selected!r} not among intentions"
    )
