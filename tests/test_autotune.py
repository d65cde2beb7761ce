import math
import random

import numpy as np
import pytest

from conftest import planted_examples, write_json
from trajpredict.annotation import TrajectoryLabel
from trajpredict.autotune import (
    TunerConfig,
    TuningExample,
    extract_examples,
    ground_truth_subcosts,
    hinge_objective,
    hinge_subgradient,
    tune_weights,
)
from trajpredict.costing import CostWeights, cost_acc, rank_intentions, result_to_record
from trajpredict.errors import ConfigError, JoinError
from trajpredict.generation import PathCandidate, SpeedProfile, realize_trajectory
from trajpredict.geometry import Curve, Point2
from trajpredict.scene import EgoPlan


def label_from_points(points, obstacle_id="veh", anchor=0.0):
    return TrajectoryLabel(
        obstacle_id=obstacle_id,
        anchor_time=anchor,
        future_points=tuple(points),
    )


class TestGroundTruthSubcosts:
    def test_constant_velocity_straight_is_free(self):
        points = [(0.1 * k, Point2(10.0 * 0.1 * k, 0.0)) for k in range(1, 31)]
        c_acc_v, c_cent, c_coll = ground_truth_subcosts(label_from_points(points), None, 1.0, 1.0)
        assert c_acc_v == pytest.approx(0.0, abs=1e-18)
        assert c_cent == pytest.approx(0.0, abs=1e-18)
        assert c_coll == 0.0

    def test_needs_three_points(self):
        points = [(0.1, Point2(0, 0)), (0.2, Point2(1, 0))]
        with pytest.raises(ValueError, match="at least 3"):
            ground_truth_subcosts(label_from_points(points), None, 1.0, 1.0)

    def test_accelerating_label_matches_profile_cost(self):
        path = PathCandidate(lane_ids=("l",), curve=Curve([(0, 0), (500, 0)]))
        profile = SpeedProfile(v0=5.0, a=1.0, duration=4.0, resolution=0.1, v_max=1e9)
        traj = realize_trajectory(path, profile)
        label = label_from_points(traj.points)
        c_acc_fd, _, _ = ground_truth_subcosts(label, None, 1.0, 1.0)
        assert c_acc_fd == pytest.approx(cost_acc(traj), rel=0.05)

    def test_circular_label_matches_analytic_centripetal(self):
        radius, speed, z1 = 20.0, 8.0, 7.0
        omega = speed / radius
        points = [
            (0.1 * k, Point2(radius * math.cos(omega * 0.1 * k), radius * math.sin(omega * 0.1 * k)))
            for k in range(1, 31)
        ]
        _, c_cent, _ = ground_truth_subcosts(label_from_points(points), None, z1, 1.0)
        analytic = 30 * (speed**2 / radius) ** 2 / z1
        assert c_cent == pytest.approx(analytic, rel=0.05)

    def test_collision_term_uses_anchor_offset(self):
        ego = EgoPlan(poses=((0.0, Point2(0, 0)), (100.0, Point2(0, 0))))
        points = [(0.1 * k, Point2(0.0, 0.0)) for k in range(1, 11)]
        _, _, c_coll = ground_truth_subcosts(
            label_from_points(points, anchor=5.0), ego, 1.0, 2.0
        )
        assert c_coll == pytest.approx(10.0 / 2.0)


def simple_example(gt, candidates, key=None):
    return TuningExample(gt_subcosts=gt, candidate_subcosts=tuple(candidates), key=key)


class TestHingeObjective:
    def test_cleared_margins_cost_nothing(self):
        ex = simple_example((1.0, 1.0, 1.0), [(3.0, 3.0, 3.0), (2.0, 2.0, 2.0)])
        assert hinge_objective([ex], (1.0, 1.0, 1.0), delta=0.1) == 0.0

    def test_zero_theta_pays_delta_per_candidate(self):
        examples = [
            simple_example((1.0, 0.5, 2.0), [(2.0, 1.0, 3.0)] * 3),
            simple_example((0.5, 0.5, 0.5), [(1.0, 1.0, 1.0)] * 4),
        ]
        assert hinge_objective(examples, (0.0, 0.0, 0.0), delta=0.1) == pytest.approx(7 * 0.1)

    def test_direct_substitution(self):
        ex = simple_example((1.0, 0.0, 0.0), [(3.0, 0.0, 0.0)])
        assert hinge_objective([ex], (1.0, 0.0, 0.0), delta=0.1) == 0.0
        # gt dearer than the candidate: hinge active with value 1 - 0.5 + 0.1
        ex2 = simple_example((1.0, 0.0, 0.0), [(0.5, 0.0, 0.0)])
        assert hinge_objective([ex2], (1.0, 0.0, 0.0), delta=0.1) == pytest.approx(0.6)

    def test_nonnegative_everywhere(self):
        rng = random.Random(4)
        examples = planted_examples(rng, 10)
        for _ in range(50):
            theta = [rng.uniform(0, 5) for _ in range(3)]
            assert hinge_objective(examples, theta, delta=0.1) >= 0.0

    def test_convexity_on_random_triples(self):
        rng = random.Random(6)
        examples = planted_examples(rng, 10)
        for _ in range(100):
            ta = np.array([rng.uniform(0, 5) for _ in range(3)])
            tb = np.array([rng.uniform(0, 5) for _ in range(3)])
            lam = rng.uniform(0, 1)
            mid = hinge_objective(examples, lam * ta + (1 - lam) * tb, 0.1)
            bound = lam * hinge_objective(examples, ta, 0.1) + (1 - lam) * hinge_objective(
                examples, tb, 0.1
            )
            assert mid <= bound + 1e-9


class TestHingeSubgradient:
    def test_zero_in_flat_region(self):
        ex = simple_example((1.0, 1.0, 1.0), [(3.0, 3.0, 3.0)])
        assert np.all(hinge_subgradient([ex], (1.0, 1.0, 1.0), 0.1) == 0.0)

    def test_single_active_term(self):
        ex = simple_example((1.0, 0.0, 0.0), [(0.5, 0.0, 0.0)])
        grad = hinge_subgradient([ex], (1.0, 0.0, 0.0), 0.1)
        assert grad == pytest.approx([0.5, 0.0, 0.0])

    def test_matches_central_differences(self):
        rng = random.Random(8)
        examples = planted_examples(rng, 8)
        diffs = []
        for ex in examples:
            gt = np.array(ex.gt_subcosts)
            for cand in ex.candidate_subcosts:
                diffs.append(gt - np.array(cand))
        diffs = np.array(diffs)
        checked = 0
        while checked < 50:
            theta = np.array([rng.uniform(0, 4) for _ in range(3)])
            margins = diffs @ theta + 0.1
            if np.min(np.abs(margins)) < 1e-6:  # too close to a kink
                continue
            analytic = hinge_subgradient(examples, theta, 0.1)
            h = 1e-6
            for i in range(3):
                e = np.zeros(3)
                e[i] = h
                fd = (
                    hinge_objective(examples, theta + e, 0.1)
                    - hinge_objective(examples, theta - e, 0.1)
                ) / (2 * h)
                assert abs(fd - analytic[i]) < 1e-4
            checked += 1


class TestTuneWeights:
    def test_already_optimal_returns_initial(self):
        ex = simple_example((1.0, 1.0, 1.0), [(3.0, 3.0, 3.0)])
        config = TunerConfig(delta=0.1)
        theta, history = tune_weights([ex], config)
        assert history == [0.0]
        assert theta == pytest.approx([1.0, 1.0, 1.0])

    def test_loss_monotone_for_small_steps(self):
        # one infeasible example: the loss floor is delta, reached monotonically
        ex = simple_example((1.0, 1.0, 1.0), [(0.5, 1.0, 1.0)])
        config = TunerConfig(delta=0.1, learning_rate=0.05, max_iters=100, convergence_tol=0.0)
        theta, history = tune_weights([ex], config)
        assert all(b <= a + 1e-12 for a, b in zip(history, history[1:]))
        assert history[-1] == pytest.approx(0.1, abs=1e-9)
        assert theta[0] == 0.0

    def test_planted_weights_recovered(self):
        rng = random.Random(12)
        examples = planted_examples(rng, 60)
        config = TunerConfig(delta=0.1, learning_rate=0.002, max_iters=3000, convergence_tol=0.0)
        theta, history = tune_weights(examples, config)
        assert history[-1] < 1e-6
        assert hinge_objective(examples, theta, 0.1) == history[-1]

    def test_weights_stay_nonnegative(self):
        rng = random.Random(14)
        examples = planted_examples(rng, 20)
        config = TunerConfig(delta=0.1, learning_rate=0.01, max_iters=500)
        theta, _ = tune_weights(examples, config)
        assert np.all(theta >= 0.0)

    def test_deterministic_given_inputs(self):
        rng = random.Random(16)
        examples = planted_examples(rng, 20)
        config = TunerConfig(delta=0.1, learning_rate=0.005, max_iters=200)
        first = tune_weights(examples, config)
        second = tune_weights(examples, config)
        assert np.array_equal(first[0], second[0]) and first[1] == second[1]

    def test_empty_examples_rejected(self):
        with pytest.raises(ValueError):
            tune_weights([], TunerConfig())

    def test_config_validation(self):
        with pytest.raises(ConfigError):
            TunerConfig(delta=0.0)
        with pytest.raises(ConfigError):
            TunerConfig(learning_rate=-1.0)


def fake_prediction_record(obstacle_id, anchor, n_points=12):
    class Prior:
        def __init__(self, intention_id, prior):
            self.intention_id = intention_id
            self.prior = prior

    path = PathCandidate(lane_ids=("l",), curve=Curve([(0, 0), (500, 0)]))
    profile = SpeedProfile(v0=5.0, a=1.0, duration=n_points * 0.1, resolution=0.1, v_max=30.0)
    traj = realize_trajectory(path, profile)
    weights = CostWeights(1.0, 1.0, 1.0, 2.0, 3.0)
    result = rank_intentions(obstacle_id, anchor, {"go": [traj]}, [Prior("go", 1.0)], None, weights)
    return result_to_record(result, weights)


def fake_dataset_record(obstacle_id, anchor, n_points=12):
    return {
        "road_test_id": "r",
        "obstacle_id": obstacle_id,
        "anchor_time": anchor,
        "history": [],
        "future": [[0.1 * k, 5.0 * 0.1 * k, 0.0] for k in range(1, n_points + 1)],
        "exit_label": None,
        "lane_sequence_label": None,
    }


class TestExtractExamples:
    def test_join_skips_unmatched(self):
        predictions = [fake_prediction_record("veh", float(k)) for k in range(5)]
        dataset = [fake_dataset_record("veh", float(k)) for k in range(3)]
        examples, skipped = extract_examples(predictions, dataset)
        assert len(examples) == 3
        assert skipped == 2
        assert all(len(ex.candidate_subcosts) == 1 for ex in examples)

    def test_zero_matches_is_empty_not_error(self):
        predictions = [fake_prediction_record("veh_a", 0.0)]
        dataset = [fake_dataset_record("veh_b", 0.0)]
        examples, skipped = extract_examples(predictions, dataset)
        assert examples == [] and skipped == 2

    def test_duplicate_prediction_keys_rejected(self):
        predictions = [fake_prediction_record("veh", 1.0), fake_prediction_record("veh", 1.0)]
        with pytest.raises(JoinError, match="duplicate"):
            extract_examples(predictions, [fake_dataset_record("veh", 1.0)])

    def test_duplicate_dataset_keys_rejected(self):
        dataset = [fake_dataset_record("veh", 1.0), fake_dataset_record("veh", 1.0)]
        with pytest.raises(JoinError, match="duplicate"):
            extract_examples([fake_prediction_record("veh", 1.0)], dataset)

    def test_nonpositive_normalizer_is_join_error(self):
        prediction = {**fake_prediction_record("veh", 1.0), "z1": 0.0}
        with pytest.raises(JoinError, match="z1 must be positive"):
            extract_examples([prediction], [fake_dataset_record("veh", 1.0)])

    def test_gt_subcosts_use_record_normalizers(self):
        examples, _ = extract_examples(
            [fake_prediction_record("veh", 0.0)], [fake_dataset_record("veh", 0.0)]
        )
        label_points = [(0.1 * k, Point2(5.0 * 0.1 * k, 0.0)) for k in range(1, 13)]
        expected = ground_truth_subcosts(
            label_from_points(label_points), None, z1=2.0, z2=3.0
        )
        assert examples[0].gt_subcosts == pytest.approx(expected)


class TestTunerConfigFile:
    def test_from_file(self, tmp_path):
        doc = {
            "delta": 0.2,
            "learning_rate": 0.005,
            "max_iters": 300,
            "convergence_tol": 1e-9,
            "theta_init": [1, 1, 1],
        }
        config = TunerConfig.from_file(write_json(tmp_path / "tuner.json", doc))
        assert config.delta == 0.2
        assert config.theta_init == (1.0, 1.0, 1.0)

    def test_unknown_keys_rejected(self, tmp_path):
        path = write_json(tmp_path / "tuner.json", {"delta": 0.1, "lr": 0.1})
        with pytest.raises(ConfigError, match="lr"):
            TunerConfig.from_file(path)
