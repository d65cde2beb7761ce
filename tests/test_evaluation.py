import math
import random

import pytest

from trajpredict.errors import CoverageError
from trajpredict.evaluation import ade, evaluate_run, fde, mse
from trajpredict.scene import Positions


def timed(points):
    """Positions from (t, x, y) rows."""
    return Positions(*zip(*points))


def grid(fn_x, fn_y=lambda t: 0.0, n=30, res=0.1):
    return timed([(res * k, fn_x(res * k), fn_y(res * k)) for k in range(1, n + 1)])


class TestAde:
    def test_identical_sequences(self):
        seq = grid(lambda t: 10 * t)
        assert ade(seq, grid(lambda t: 10 * t), horizon=3.0) == 0.0

    def test_constant_offset(self):
        pred = grid(lambda t: 10 * t)
        truth = grid(lambda t: 10 * t, fn_y=lambda t: 2.0)
        assert ade(pred, truth, horizon=3.0) == pytest.approx(2.0)

    def test_linear_divergence_arithmetic_series(self):
        # 0.1*t divergence: displacements 0.01..0.10, an arithmetic series
        pred = grid(lambda t: 10 * t, n=10)
        truth = grid(lambda t: 10.1 * t, n=10)
        assert ade(pred, truth, horizon=1.0) == pytest.approx(0.055, abs=1e-9)

    def test_horizon_filters_points(self):
        pred = grid(lambda t: 10 * t)
        truth = grid(lambda t: 11 * t)
        assert ade(pred, truth, horizon=1.0) < ade(pred, truth, horizon=3.0)

    def test_short_sequence_raises(self):
        pred = grid(lambda t: 10 * t, n=10)
        truth = grid(lambda t: 10 * t, n=30)
        with pytest.raises(CoverageError):
            ade(pred, truth, horizon=3.0)

    def test_misaligned_grids_rejected(self):
        pred = grid(lambda t: 10 * t, n=10)
        truth = Positions([t + 0.05 for t in pred.times], pred.xs, pred.ys)
        with pytest.raises(ValueError, match="grids"):
            ade(pred, truth, horizon=0.5)

    def test_thirty_point_grid_includes_three_seconds(self):
        # 30 * 0.1 overshoots 3.0 by one float ulp; the grid tolerance keeps it
        pred = grid(lambda t: 10 * t, n=30)
        truth = grid(lambda t: 10 * t + 1.0, n=30)
        assert ade(pred, truth, horizon=3.0) == pytest.approx(1.0)

    def test_matches_brute_force_on_random_sequences(self):
        rng = random.Random(19)
        for _ in range(30):
            n = rng.randint(5, 40)
            pred, truth = [], []
            for k in range(1, n + 1):
                t = 0.1 * k
                pred.append((t, rng.uniform(-50, 50), rng.uniform(-50, 50)))
                truth.append((t, rng.uniform(-50, 50), rng.uniform(-50, 50)))
            h = 0.1 * rng.randint(1, n)
            kept = [
                math.hypot(px - qx, py - qy)
                for (t, px, py), (_, qx, qy) in zip(pred, truth)
                if t <= h + 1e-9
            ]
            pred, truth = timed(pred), timed(truth)
            assert ade(pred, truth, h) == pytest.approx(sum(kept) / len(kept), abs=1e-10)
            assert fde(pred, truth, h) == pytest.approx(kept[-1], abs=1e-10)

    def test_symmetry_and_translation_invariance(self):
        rng = random.Random(27)
        pred = grid(lambda t: 3 * t, fn_y=lambda t: t * t, n=20)
        truth = grid(lambda t: 2.5 * t, fn_y=lambda t: 0.8 * t, n=20)
        assert ade(pred, truth, 2.0) == ade(truth, pred, 2.0)
        dx, dy = rng.uniform(-5, 5), rng.uniform(-5, 5)
        moved_pred = Positions(pred.times, [x + dx for x in pred.xs], [y + dy for y in pred.ys])
        moved_truth = Positions(truth.times, [x + dx for x in truth.xs], [y + dy for y in truth.ys])
        assert ade(moved_pred, moved_truth, 2.0) == pytest.approx(ade(pred, truth, 2.0), abs=1e-9)
        assert fde(moved_pred, moved_truth, 2.0) == pytest.approx(fde(pred, truth, 2.0), abs=1e-9)


class TestFde:
    def test_identical_sequences(self):
        seq = grid(lambda t: 5 * t)
        assert fde(seq, grid(lambda t: 5 * t), horizon=3.0) == 0.0

    def test_linear_divergence_endpoint(self):
        pred = grid(lambda t: 10 * t, n=10)
        truth = grid(lambda t: 10.1 * t, n=10)
        assert fde(pred, truth, horizon=1.0) == pytest.approx(0.1)

    def test_horizon_between_grid_points_uses_last_covered(self):
        pred = grid(lambda t: 10 * t, n=10)
        truth = grid(lambda t: 10.1 * t, n=10)
        # horizon 0.95 covers grid points up to t = 0.9
        assert fde(pred, truth, horizon=0.95) == pytest.approx(0.09)


class TestMse:
    def test_identical(self):
        pts = timed([(0.1, 1, 2), (0.2, 3, 4)])
        assert mse(pts, timed([(0.1, 1, 2), (0.2, 3, 4)])) == 0.0

    def test_single_offset_point(self):
        assert mse(timed([(0.1, 0, 0)]), timed([(0.1, 3, 4)])) == 25.0

    def test_two_point_average(self):
        pred = timed([(0.1, 1, 0), (0.2, 0, 0)])
        truth = timed([(0.1, 0, 0), (0.2, 0, 2)])
        assert mse(pred, truth) == pytest.approx(2.5)

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError, match="mismatch"):
            mse(timed([(0.1, 0, 0)]), timed([(0.1, 0, 0), (0.2, 1, 1)]))

    def test_misaligned_grids_rejected(self):
        with pytest.raises(ValueError, match="time grids differ"):
            mse(timed([(0.1, 0, 0)]), timed([(0.2, 0, 0)]))

    def test_nonnegative_on_random_inputs(self):
        rng = random.Random(31)
        for _ in range(50):
            n = rng.randint(1, 20)
            pred = grid(lambda t: rng.uniform(-9, 9), lambda t: rng.uniform(-9, 9), n=n)
            truth = grid(lambda t: rng.uniform(-9, 9), lambda t: rng.uniform(-9, 9), n=n)
            assert mse(pred, truth) >= 0.0


def prediction_record(obstacle_id, anchor, points, intention="go"):
    return {
        "obstacle_id": obstacle_id,
        "anchor_time": anchor,
        "z1": 1.0,
        "z2": 1.0,
        "selected_intention": intention,
        "intentions": [
            {
                "intention_id": intention,
                "prior": 1.0,
                "min_cost": 0.0,
                "likelihood": 1.0,
                "posterior": 1.0,
                "best_trajectory": {
                    "profile": {"v0": 0.0, "a": 0.0, "duration": 1.0, "resolution": 0.1, "v_max": None},
                    "points": [[t, x, y, 0.0, 0.0, 0.0] for t, x, y in points],
                },
                "candidates": [[0.0, 0.0, 0.0, 0.0]],
            }
        ],
    }


def dataset_record(obstacle_id, anchor, points):
    return {
        "road_test_id": "r",
        "obstacle_id": obstacle_id,
        "anchor_time": anchor,
        "history": [],
        "future": [[t, x, y] for t, x, y in points],
        "exit_label": None,
        "lane_sequence_label": None,
    }


class TestEvaluateRun:
    def test_self_evaluation_is_zero(self):
        points = [[0.1 * k, 2.0 * k, 0.0] for k in range(1, 31)]
        report = evaluate_run(
            [prediction_record("veh", 0.0, points)],
            [dataset_record("veh", 0.0, points)],
            horizons=[1.0, 3.0],
        )
        assert [e["h"] for e in report["horizons"]] == [1.0, 3.0]
        for entry in report["horizons"]:
            assert entry["ade"] == 0.0 and entry["fde"] == 0.0 and entry["count"] == 1
        assert report["mse"] == 0.0
        assert report["skipped"] == 0

    def test_short_label_excluded_from_long_horizon(self):
        long_points = [[0.1 * k, 1.0 * k, 0.0] for k in range(1, 31)]
        short_points = [[0.1 * k, 1.0 * k, 0.0] for k in range(1, 11)]
        report = evaluate_run(
            [
                prediction_record("a", 0.0, long_points),
                prediction_record("b", 0.0, long_points),
            ],
            [
                dataset_record("a", 0.0, long_points),
                dataset_record("b", 0.0, short_points),
            ],
            horizons=[1.0, 3.0],
        )
        counts = {e["h"]: e["count"] for e in report["horizons"]}
        assert counts == {1.0: 2, 3.0: 1}

    def test_empty_join_reports_zero_counts(self):
        points = [[0.1 * k, 1.0 * k, 0.0] for k in range(1, 11)]
        report = evaluate_run(
            [prediction_record("a", 0.0, points)],
            [dataset_record("b", 5.0, points)],
            horizons=[1.0],
        )
        assert report["horizons"][0]["count"] == 0
        assert report["skipped"] == 2
        assert report["mse"] is None

    def test_known_offset_statistics(self):
        pred_points = [[0.1 * k, 1.0 * k, 0.0] for k in range(1, 31)]
        truth_points = [[0.1 * k, 1.0 * k, 2.0] for k in range(1, 31)]
        report = evaluate_run(
            [prediction_record("veh", 1.0, pred_points)],
            [dataset_record("veh", 1.0, truth_points)],
            horizons=[3.0],
        )
        assert report["horizons"][0]["ade"] == pytest.approx(2.0)
        assert report["horizons"][0]["fde"] == pytest.approx(2.0)
        assert report["mse"] == pytest.approx(4.0)
