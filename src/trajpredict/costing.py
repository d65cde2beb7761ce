"""Trajectory costing, posterior ranking, and prediction records.

Every trajectory, a sampled candidate or a labeled ground truth, is scored
by three penalties: squared longitudinal acceleration (comfort), squared
centripetal acceleration (lateral comfort), and an exponential proximity
kernel against the ego vehicle's planned trajectory (safety). Each
intention's likelihood exp(-C) of its cheapest candidate reweights the
intention priors into posteriors. A prediction record holds each fact once:
the likelihood is left to its min cost, and a best trajectory's speeds and
accelerations to its speed profile, so its points are [t, x, y] rows. A
candidate's costs are the row total_cost returns, (c_acc, c_centripetal,
c_collision, total), which the record's candidates hold as it is.

The exponential collision kernel exp(-d^2) decays with distance, so closer
encounters cost more; the per-point distance d aligns the candidate point
with the ego plan pose interpolated at the same absolute timestamp. The
weights and normalizers come from a weights file (CostWeights) whose five
entries are finite numbers.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, fields
from operator import sub
from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

from . import jsonio
from .annotation import iter_anchor_records
from .errors import ConfigError, ParseError
from .generation import CandidateTrajectory, IntentionPrior, SpeedProfile, normalize_priors
from .scene import EgoPlan, Trajectory

# The ego plan's x and y at each point of a trajectory (EgoPlan.positions_at).
EgoColumns = Tuple[Sequence[float], Sequence[float]]
# (c_acc, c_centripetal, c_collision, total): a candidate's row in a prediction record.
CostRow = Tuple[float, float, float, float]


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
    def from_file(cls, path: str) -> "CostWeights":
        """All five keys are required and must be numbers; others (a tuned
        file's final_loss and iterations) are ignored."""
        doc = jsonio.read_config(path)
        try:
            return cls(**{f.name: jsonio.number(doc, f.name, path) for f in fields(cls)})
        except (KeyError, ValueError) as exc:
            raise ConfigError(f"{path}: invalid weights file: {exc}") from exc

    def to_dict(self) -> dict:
        """The weights-file document: the five fields in declaration order."""
        return asdict(self)


def _finite_sum(terms: Iterable[float]) -> float:
    """math.fsum of terms; OverflowError refuses a sum that is not finite,
    whether a term or only the sum overflows (fsum raises on the latter)."""
    total = math.fsum(terms)
    if not math.isfinite(total):
        raise OverflowError(f"the sum is {total}")
    return total


def cost_acc(trajectory: Trajectory) -> float:
    """Sum of squared per-point longitudinal accelerations; OverflowError
    refuses a sum beyond the float range."""
    return _finite_sum(a * a for a in trajectory.accels)


def cost_centripetal(trajectory: Trajectory, z1: float) -> float:
    """Sum of squared centripetal accelerations (v^2 * curvature), over z1;
    OverflowError refuses a sum, before the division, beyond the float range."""
    if z1 <= 0.0:
        raise ValueError(f"z1 must be positive, got {z1}")
    terms = ((v * v * k) ** 2 for v, k in zip(trajectory.speeds, trajectory.curvatures))
    return _finite_sum(terms) / z1


def cost_collision(
    trajectory: Trajectory,
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
    if z2 <= 0.0:
        raise ValueError(f"z2 must be positive, got {z2}")
    if ego is None:
        return 0.0
    ego_xy = ego.positions_at([anchor_time + t for t in trajectory.times])
    return _proximity_cost(trajectory, ego_xy, z2)


def _proximity_cost(trajectory: Trajectory, ego: EgoColumns, z2: float) -> float:
    """The collision kernel: exp(-d^2) between each trajectory point and the
    ego position of the same index, summed and over z2."""
    ego_xs, ego_ys = ego
    distances = map(math.hypot, map(sub, trajectory.xs, ego_xs), map(sub, trajectory.ys, ego_ys))
    return math.fsum([math.exp(-d * d) for d in distances]) / z2


def total_cost(
    trajectory: CandidateTrajectory,
    ego: Optional[EgoColumns],
    weights: CostWeights,
) -> CostRow:
    """The cost row of one candidate trajectory: its three sub-costs and
    their weighted total, the dot product of the weight vector with them.

    ego holds the ego plan's x and y at each point's absolute time, as
    cost_collision interpolates them; None, without an ego plan, costs the
    collision term 0.
    """
    ca = cost_acc(trajectory)
    cc = cost_centripetal(trajectory, weights.z1)
    ccol = 0.0 if ego is None else _proximity_cost(trajectory, ego, weights.z2)
    total = weights.theta_acc * ca + weights.theta_centripetal * cc + weights.theta_collision * ccol
    return ca, cc, ccol, total


@dataclass(frozen=True)
class IntentionRanking:
    """Per-intention outcome: prior, cheapest candidate, and its posterior."""

    intention_id: str
    prior: float
    min_cost: float
    posterior: float
    best_trajectory: CandidateTrajectory
    candidate_costs: Tuple[CostRow, ...]


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
    are normalized relative to the cheapest intention with a positive prior;
    this keeps Z strictly positive even when the raw exp(-C) likelihoods
    underflow to zero. The priors are renormalized by normalize_priors, which
    refuses empty, negative or zero-mass priors with ValueError.

    The ego plan is interpolated once per distinct candidate time grid (the
    times column a speed profile shares with its candidates), and every
    candidate on that grid reads those x and y columns.
    """
    ego_by_grid: Dict[Sequence[float], EgoColumns] = {}

    def ego_at(candidate: CandidateTrajectory) -> Optional[EgoColumns]:
        if ego is None:
            return None
        times = candidate.times
        if times not in ego_by_grid:
            ego_by_grid[times] = ego.positions_at([anchor_time + t for t in times])
        return ego_by_grid[times]

    costed = []
    for p in normalize_priors(sorted(priors, key=lambda item: item.intention_id)):
        candidates = candidates_by_intention.get(p.intention_id)
        if not candidates:
            raise ValueError(
                f"intention {p.intention_id!r} has a prior but no candidate trajectories"
            )
        costs = tuple(total_cost(c, ego_at(c), weights) for c in candidates)
        best = min(
            range(len(candidates)),
            key=lambda i: (costs[i][3], abs(candidates[i].source_profile.a), i),
        )
        costed.append((p, candidates[best], costs[best][3], costs))

    cheapest = min(min_cost for p, _, min_cost, _ in costed if p.prior > 0.0)
    masses = [
        p.prior * math.exp(cheapest - min_cost) if p.prior > 0.0 else 0.0
        for p, _, min_cost, _ in costed
    ]
    z = math.fsum(masses)
    rankings = tuple(
        IntentionRanking(
            intention_id=p.intention_id,
            prior=p.prior,
            min_cost=min_cost,
            posterior=mass / z,
            best_trajectory=best_trajectory,
            candidate_costs=costs,
        )
        for (p, best_trajectory, min_cost, costs), mass in zip(costed, masses)
    )
    return PredictionResult(
        obstacle_id=obstacle_id,
        anchor_time=anchor_time,
        intentions=rankings,
        selected_intention=max(rankings, key=lambda r: r.posterior).intention_id,
    )


def _profile_to_dict(profile: SpeedProfile) -> dict:
    return {
        "v0": profile.v0,
        "a": profile.a,
        "duration": profile.duration,
        "resolution": profile.resolution,
        "v_max": None if math.isinf(profile.v_max) else profile.v_max,
    }


def result_to_record(result: PredictionResult, weights: CostWeights) -> dict:
    """Serialize a PredictionResult to the JSON-lines prediction schema.

    The record embeds the normalizers (z1, z2) used for its sub-costs and
    each intention's candidate cost rows, so the weight tuner can consume
    prediction files without re-running generation.
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
                "posterior": r.posterior,
                "best_trajectory": {
                    "profile": _profile_to_dict(r.best_trajectory.source_profile),
                    "points": [
                        [t, x, y]
                        for t, x, y in zip(
                            r.best_trajectory.times, r.best_trajectory.xs, r.best_trajectory.ys
                        )
                    ],
                },
                "candidates": r.candidate_costs,
            }
            for r in result.intentions
        ],
    }


def load_prediction_records(path: str) -> List[dict]:
    """Parse a JSON-lines prediction file, validating the record shape.

    Every record carries positive normalizers z1 and z2 (the tuner divides by
    them) and intentions with distinct string ids, the selected one among
    them, whose best-trajectory points are [t, x, y] rows and candidates
    sub-cost rows. A file written with [t, x, y, v, kappa, a] points and
    each intention's likelihood still loads: rows are read to their first
    three entries, and keys no stage reads are ignored.
    """
    records = []
    keys = ("selected_intention", "intentions", "z1", "z2")
    for where, record in iter_anchor_records(path, keys):
        for key in ("z1", "z2"):
            if jsonio.number(record, key, where) <= 0.0:
                raise ParseError(f"{where}: normalizer {key!r} must be positive")
        intentions = record["intentions"]
        if not isinstance(intentions, list) or not all(
            isinstance(entry, dict) and "intention_id" in entry for entry in intentions
        ):
            raise ParseError(f"{where}: 'intentions' must be a list of intention objects")
        ids = [jsonio.string(entry, "intention_id", where) for entry in intentions]
        if len(set(ids)) < len(ids):
            raise ParseError(f"{where}: repeated intention id")
        for entry in intentions:
            jsonio.rows(entry.get("best_trajectory"), "points", 3, where)
            jsonio.rows(entry, "candidates", 4, where)
        selected = record["selected_intention"]
        if selected not in ids:
            raise ParseError(f"{where}: selected intention {selected!r} not among intentions")
        records.append(record)
    return records
