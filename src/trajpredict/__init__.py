"""Intention-conditioned vehicle trajectory prediction pipeline.

Candidate trajectories are sampled along lane paths with constant
acceleration speed profiles, ranked by posterior (intention prior times
exp(-cost) likelihood), and the cost weights are tuned from logged ground
truth with a max-margin hinge objective. An annotation stage labels logged
tracks and an evaluation stage scores predictions with ADE/FDE.
"""

from .geometry import Curve, Point2, curvature_at_s, point_at_s, project_point
from .scene import (
    EgoPlan,
    IntersectionExit,
    Lane,
    MapGraph,
    ObstacleState,
    ObstacleTrack,
    load_scene,
)
from .annotation import (
    ExitLabel,
    LaneSequenceLabel,
    TrajectoryLabel,
    build_dataset,
    label_exit_taken,
    label_future_trajectory,
    label_lane_sequence,
)
from .generation import (
    CandidateTrajectory,
    GenerationConfig,
    IntentionPrior,
    KinematicLimits,
    PathCandidate,
    SpeedProfile,
    heuristic_exit_priors,
    realize_trajectory,
    sample_profiles,
    search_paths,
)
from .costing import (
    CostBreakdown,
    CostWeights,
    PredictionResult,
    cost_acc,
    cost_centripetal,
    cost_collision,
    likelihood,
    rank_intentions,
    total_cost,
)
from .autotune import (
    TunerConfig,
    TuningExample,
    extract_examples,
    ground_truth_subcosts,
    hinge_objective,
    hinge_subgradient,
    tune_weights,
)
from .evaluation import GaussianPoint, ade, evaluate_run, fde, gaussian_nll, mse

__version__ = "0.1.0"
