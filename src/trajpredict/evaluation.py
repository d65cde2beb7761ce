"""Displacement-error metrics and the run-level evaluation report.

ADE and FDE compare predicted against actual future trajectories on a shared
time grid (no resampling: misaligned grids are an error, not silently
interpolated), and MSE is the loss-style metric over the shared prefix. All
three score point predictions, the only kind any stage produces.
"""

from __future__ import annotations

import math
from typing import List, Sequence

from .annotation import join_on_anchor, timed_points
from .costing import best_points_from_record
from .errors import CoverageError
from .scene import TIME_EPS, TimedPoint


def _check_alignment(pred: Sequence[TimedPoint], truth: Sequence[TimedPoint]):
    for (tp, _), (tt, _) in zip(pred, truth):
        if abs(tp - tt) > TIME_EPS:
            raise ValueError(f"time grids differ: {tp} vs {tt}")


def _check_coverage(pred: Sequence[TimedPoint], truth: Sequence[TimedPoint], horizon: float):
    if not pred or not truth:
        raise CoverageError("empty trajectory")
    if pred[-1][0] < horizon - TIME_EPS or truth[-1][0] < horizon - TIME_EPS:
        raise CoverageError(
            f"sequence ends at {min(pred[-1][0], truth[-1][0])}, before horizon {horizon}"
        )


def _displacements(
    pred: Sequence[TimedPoint], truth: Sequence[TimedPoint], horizon: float
) -> List[float]:
    """Distances between aligned points with relative time <= horizon."""
    _check_coverage(pred, truth, horizon)
    _check_alignment(pred, truth)
    return [pp.distance_to(tp) for (t, pp), (_, tp) in zip(pred, truth) if t <= horizon + TIME_EPS]


def ade(pred: Sequence[TimedPoint], truth: Sequence[TimedPoint], horizon: float) -> float:
    """Mean displacement over the points with relative time <= horizon."""
    distances = _displacements(pred, truth, horizon)
    return math.fsum(distances) / len(distances)


def fde(pred: Sequence[TimedPoint], truth: Sequence[TimedPoint], horizon: float) -> float:
    """Displacement at the last grid point with relative time <= horizon."""
    return _displacements(pred, truth, horizon)[-1]


def mse(pred: Sequence[TimedPoint], truth: Sequence[TimedPoint]) -> float:
    """Mean of squared x plus squared y displacements over equal-length
    sequences on the same time grid."""
    if len(pred) != len(truth):
        raise ValueError(f"length mismatch: {len(pred)} vs {len(truth)}")
    if not pred:
        raise ValueError("empty sequences")
    _check_alignment(pred, truth)
    return math.fsum(
        (pp.x - tp.x) ** 2 + (pp.y - tp.y) ** 2 for (_, pp), (_, tp) in zip(pred, truth)
    ) / len(pred)


def evaluate_run(
    prediction_records: Sequence[dict],
    dataset_records: Sequence[dict],
    horizons: Sequence[float],
) -> dict:
    """Per-horizon ADE/FDE report over the joined (obstacle, anchor) keys.

    Each joined anchor contributes its selected intention's best trajectory
    against the labeled future. Anchors whose label or prediction is too
    short for a horizon are excluded from that horizon only. An empty join
    produces a zero-count report rather than an error.
    """
    joined, skipped = join_on_anchor(prediction_records, dataset_records)

    ade_sums = {h: [] for h in horizons}
    fde_sums = {h: [] for h in horizons}
    mse_values = []
    for _, prediction, label in joined:
        pred_points = best_points_from_record(prediction)
        truth_points = timed_points(label["future"])
        shared = min(len(pred_points), len(truth_points))
        if shared:
            mse_values.append(mse(pred_points[:shared], truth_points[:shared]))
        for h in horizons:
            try:
                ade_value = ade(pred_points, truth_points, h)
                fde_value = fde(pred_points, truth_points, h)
            except CoverageError:
                continue
            ade_sums[h].append(ade_value)
            fde_sums[h].append(fde_value)

    horizon_entries = []
    for h in horizons:
        count = len(ade_sums[h])
        horizon_entries.append(
            {
                "h": h,
                "ade": math.fsum(ade_sums[h]) / count if count else 0.0,
                "fde": math.fsum(fde_sums[h]) / count if count else 0.0,
                "count": count,
            }
        )
    return {
        "horizons": horizon_entries,
        "mse": math.fsum(mse_values) / len(mse_values) if mse_values else None,
        "skipped": skipped,
    }
