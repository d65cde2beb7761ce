"""Max-margin tuning of the cost weights from logged ground truth.

The assumption is that observed human trajectories are statistically optimal:
for good weights, every sampled candidate should cost at least the ground
truth plus a small margin. The resulting objective is a hinge loss that is
convex and piecewise linear in the weights, so a projected subgradient
descent (weights clamped nonnegative) optimizes it directly; the margin
forbids the degenerate all-zero solution. Normalizers z1 and z2 stay frozen,
folded into the sub-costs, so only the three weights are learned.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, List, Optional, Sequence, Tuple

from . import jsonio
from .annotation import TrajectoryLabel, columns, join_on_anchor
from .costing import cost_acc, cost_centripetal, cost_collision
from .errors import ConfigError, JoinError, PipelineError
from .geometry import vertex_curvatures
from .scene import EgoPlan, Trajectory

# numpy is imported inside the functions that do array math, so importing
# this module, loading a TunerConfig or extracting examples does not load it
if TYPE_CHECKING:
    import numpy as np

SubCosts = Tuple[float, float, float]


@dataclass(frozen=True)
class TuningExample:
    """Sub-costs of one anchor's ground truth and its sampled candidates."""

    gt_subcosts: SubCosts
    candidate_subcosts: Tuple[SubCosts, ...]

    def __post_init__(self):
        if not self.candidate_subcosts:
            raise ValueError("a tuning example needs at least one candidate")
        for triple in (self.gt_subcosts, *self.candidate_subcosts):
            if any(not math.isfinite(v) or v < 0.0 for v in triple):
                raise ValueError(f"sub-costs must be finite and nonnegative, got {triple}")


@dataclass(frozen=True)
class TunerConfig:
    """Descent hyperparameters; the batch descent is deterministic."""

    delta: float = 0.1
    learning_rate: float = 0.01
    max_iters: int = 1000
    convergence_tol: float = 1e-8
    theta_init: Tuple[float, float, float] = (1.0, 1.0, 1.0)

    def __post_init__(self):
        if self.delta <= 0.0:
            raise ConfigError(f"margin delta must be positive, got {self.delta}")
        if self.learning_rate <= 0.0:
            raise ConfigError(f"learning_rate must be positive, got {self.learning_rate}")
        if self.max_iters < 0:
            raise ConfigError(f"max_iters must be nonnegative, got {self.max_iters}")
        if self.convergence_tol < 0.0:
            raise ConfigError(f"convergence_tol must be nonnegative, got {self.convergence_tol}")
        if len(self.theta_init) != 3:
            raise ConfigError("theta_init must have exactly 3 entries")
        if any(v < 0.0 for v in self.theta_init):
            raise ConfigError(f"theta_init entries must be nonnegative, got {self.theta_init}")

    @classmethod
    def from_file(cls, path: str) -> "TunerConfig":
        return jsonio.load_dataclass(cls, path)


def _stencil(times: Sequence[float], values: Sequence[float]) -> List[Tuple[float, float]]:
    """(numerator, time span) of the derivative estimate at every sample:
    central differences inside, second-order one-sided stencils at the ends."""
    pairs = [(-3.0 * values[0] + 4.0 * values[1] - values[2], times[2] - times[0])]
    pairs += [
        (values[i + 1] - values[i - 1], times[i + 1] - times[i - 1])
        for i in range(1, len(values) - 1)
    ]
    pairs.append((3.0 * values[-1] - 4.0 * values[-2] + values[-3], times[-1] - times[-3]))
    return pairs


def ground_truth_subcosts(
    label: TrajectoryLabel, ego: Optional[EgoPlan], z1: float, z2: float
) -> SubCosts:
    """Sub-costs of a labeled ground-truth trajectory.

    Speeds come from central finite differences of the label positions,
    accelerations from central differences of the speeds, and curvature from
    the circumradius of consecutive point triples, so the result is directly
    comparable with candidate sub-costs computed from exact profiles: both
    are costed as a Trajectory by the same three functions.
    """
    if len(label.times) < 3:
        raise ValueError(
            f"label for {label.obstacle_id!r}@{label.anchor_time} has {len(label.times)} points; "
            "finite-difference kinematics needs at least 3"
        )
    x_pairs, y_pairs = _stencil(label.times, label.xs), _stencil(label.times, label.ys)
    speeds = [math.hypot(nx, ny) / dt for (nx, dt), (ny, _) in zip(x_pairs, y_pairs)]
    accels = [n / dt for n, dt in _stencil(label.times, speeds)]
    curvatures = vertex_curvatures(label.xs, label.ys)
    truth = Trajectory(label.times, label.xs, label.ys, tuple(speeds), curvatures, tuple(accels))
    return (
        cost_acc(truth),
        cost_centripetal(truth, z1),
        cost_collision(truth, ego, z2, label.anchor_time),
    )


def _stack(examples: Sequence[TuningExample]) -> np.ndarray:
    """All (ground truth - candidate) sub-cost differences as one matrix."""
    import numpy as np

    # fromiter takes one row at a time, so the rows never exist all at once as lists
    return np.fromiter(
        (
            [g - c for g, c in zip(ex.gt_subcosts, cand)]
            for ex in examples
            for cand in ex.candidate_subcosts
        ),
        dtype=(float, 3),
    )


def _hinge(diffs: np.ndarray, theta: np.ndarray, delta: float) -> Tuple[float, np.ndarray]:
    """Hinge loss and subgradient over the stacked difference matrix."""
    margins = diffs @ theta + delta
    active = margins > 0.0
    return float(margins[active].sum()), diffs[active].sum(axis=0)


def hinge_objective(
    examples: Sequence[TuningExample], theta: Sequence[float], delta: float
) -> float:
    """Sum over every (anchor, candidate) pair of max(0, C(gt) - C(cand) + delta)."""
    import numpy as np

    return _hinge(_stack(examples), np.asarray(theta, dtype=float), delta)[0]


def hinge_subgradient(
    examples: Sequence[TuningExample], theta: Sequence[float], delta: float
) -> np.ndarray:
    """Subgradient of the hinge objective: the sum of (gt - candidate)
    sub-cost differences over strictly active terms."""
    import numpy as np

    return _hinge(_stack(examples), np.asarray(theta, dtype=float), delta)[1]


def tune_weights(
    examples: Sequence[TuningExample],
    config: TunerConfig,
) -> Tuple[np.ndarray, List[float]]:
    """Projected subgradient descent on the hinge objective.

    Takes the examples in the order given (extract_examples gives them in
    anchor-key order), since the summation order sets the last bits of the
    loss. Starts at config.theta_init, steps theta against the subgradient,
    clamping componentwise at zero, and stops at max_iters, at zero loss,
    or when the loss change over a full pass drops below convergence_tol.
    Returns the final weights and the per-iteration loss history (the first
    entry is the initial loss). The procedure is deterministic for fixed
    inputs and configuration. A non-finite loss at theta_init is a PipelineError
    (the inputs are at fault); after a step, a non-finite loss is a ConfigError,
    and so are non-finite weights, whose margins, all +-inf or nan, sum to inf or 0.
    """
    import numpy as np

    if not examples:
        raise ValueError("cannot tune on an empty example list")
    diffs = _stack(examples)
    theta = np.asarray(config.theta_init, dtype=float)
    with np.errstate(over="ignore", invalid="ignore"):  # non-finite results are refused below
        loss, grad = _hinge(diffs, theta, config.delta)
        if not math.isfinite(loss):
            raise PipelineError(f"non-finite tuning loss {loss}; inputs are corrupt")
        history = [loss]
        for _ in range(config.max_iters):
            if loss == 0.0:
                break
            theta = np.maximum(theta - config.learning_rate * grad, 0.0)
            new_loss, grad = _hinge(diffs, theta, config.delta)
            if not (math.isfinite(new_loss) and (new_loss or np.isfinite(theta).all())):
                raise ConfigError(f"learning_rate {config.learning_rate} overflows the descent")
            history.append(new_loss)
            converged = abs(new_loss - loss) < config.convergence_tol
            loss = new_loss
            if converged:
                break
    return theta, history


def extract_examples(
    prediction_records: Sequence[dict],
    dataset_records: Sequence[dict],
    ego: Optional[EgoPlan] = None,
) -> Tuple[List[TuningExample], int]:
    """Join prediction and dataset files on (obstacle_id, anchor_time).

    The examples come in the join's anchor-key order. Candidate sub-costs
    come from the cost rows embedded in the prediction records; ground-truth
    sub-costs are recomputed from each label with the same normalizers the
    predictions carry. Anchors present on only one side are skipped and
    counted; duplicate keys are an error.
    """
    joined, skipped = join_on_anchor(prediction_records, dataset_records)
    examples = []
    for key, pred, data in joined:
        label = TrajectoryLabel(*columns(data["future"], 3), obstacle_id=key[0], anchor_time=key[1])
        try:
            gt = ground_truth_subcosts(label, ego, float(pred["z1"]), float(pred["z2"]))
            candidates = tuple(
                tuple(c[:3]) for entry in pred["intentions"] for c in entry["candidates"]
            )
            examples.append(TuningExample(gt_subcosts=gt, candidate_subcosts=candidates))
        except (ValueError, OverflowError) as exc:
            raise JoinError(f"anchor {key}: {exc}") from exc
    return examples, skipped
