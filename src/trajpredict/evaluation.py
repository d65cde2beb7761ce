"""Displacement-error metrics and the run-level evaluation report.

ADE and FDE compare predicted against actual future trajectories on a shared
time grid (no resampling: misaligned grids are an error, not silently
interpolated), and MSE is the loss-style metric over the shared prefix. All
three score point predictions, the only kind any stage produces, and read
the times, xs and ys of any two scene.Positions (a candidate, a label).
"""

from __future__ import annotations

import math
from typing import List, Sequence

from .annotation import columns, join_on_anchor
from .errors import CoverageError
from .scene import TIME_EPS, Positions, Trajectory


def _check_alignment(pred: Positions, truth: Positions):
    for tp, tt in zip(pred.times, truth.times):
        if abs(tp - tt) > TIME_EPS:
            raise ValueError(f"time grids differ: {tp} vs {tt}")


def _displacements(pred: Positions, truth: Positions, horizon: float) -> List[float]:
    """Distances between aligned points with relative time <= horizon."""
    if not pred.times or not truth.times:
        raise CoverageError("empty trajectory")
    if pred.times[-1] < horizon - TIME_EPS or truth.times[-1] < horizon - TIME_EPS:
        raise CoverageError(
            f"sequence ends at {min(pred.times[-1], truth.times[-1])}, before horizon {horizon}"
        )
    _check_alignment(pred, truth)
    return [
        math.hypot(px - tx, py - ty)
        for t, px, py, tx, ty in zip(pred.times, pred.xs, pred.ys, truth.xs, truth.ys)
        if t <= horizon + TIME_EPS
    ]


def ade(pred: Positions, truth: Positions, horizon: float) -> float:
    """Mean displacement over the points with relative time <= horizon."""
    distances = _displacements(pred, truth, horizon)
    return math.fsum(distances) / len(distances)


def fde(pred: Positions, truth: Positions, horizon: float) -> float:
    """Displacement at the last grid point with relative time <= horizon."""
    return _displacements(pred, truth, horizon)[-1]


def mse(pred: Positions, truth: Positions) -> float:
    """Mean of squared x plus squared y displacements over equal-length
    sequences on the same time grid."""
    if len(pred.times) != len(truth.times):
        raise ValueError(f"length mismatch: {len(pred.times)} vs {len(truth.times)}")
    if not pred.times:
        raise ValueError("empty sequences")
    return _shared_mse(pred, truth)


def _shared_mse(pred: Positions, truth: Positions) -> float:
    """mse over the nonempty prefix that pred and truth share."""
    _check_alignment(pred, truth)
    pairs = list(zip(pred.xs, pred.ys, truth.xs, truth.ys))
    return math.fsum((px - tx) ** 2 + (py - ty) ** 2 for px, py, tx, ty in pairs) / len(pairs)


def evaluate_run(
    prediction_records: Sequence[dict],
    dataset_records: Sequence[dict],
    horizons: Sequence[float],
) -> dict:
    """Per-horizon ADE/FDE report over the joined (obstacle, anchor) keys.

    Each joined anchor contributes its selected intention's best trajectory
    against the labeled future; the records are as load_prediction_records
    and load_dataset_records return them. Anchors whose label or prediction
    is too short for a horizon are excluded from that horizon only. An empty
    join produces a zero-count report rather than an error.
    """
    joined, skipped = join_on_anchor(prediction_records, dataset_records)

    ade_sums = {h: [] for h in horizons}
    fde_sums = {h: [] for h in horizons}
    mse_values = []
    for _, prediction, label in joined:
        selected = prediction["selected_intention"]
        best = next(e for e in prediction["intentions"] if e["intention_id"] == selected)
        pred = Trajectory(*columns(best["best_trajectory"]["points"], 6))
        truth = Positions(*columns(label["future"], 3))
        if pred.times and truth.times:
            mse_values.append(_shared_mse(pred, truth))
        for h in horizons:
            try:
                ade_value = ade(pred, truth, h)
                fde_value = fde(pred, truth, h)
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
