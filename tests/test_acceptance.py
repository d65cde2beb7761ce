"""Acceptance suite: one test per release criterion.

Each test exercises its criterion at the stated tolerance, asserts the
stated runtime budget, and prints one PASS line. Run with

    pytest tests/test_acceptance.py -v -s
"""

import json
import math
import os
import random
import time
from pathlib import Path

import numpy as np
import pytest

from conftest import (
    PLANTED_THETA,
    intersection_map_dict,
    make_track,
    planted_examples,
    straight_track,
    write_json,
)
from trajpredict.annotation import label_exit_taken, label_future_trajectory
from trajpredict.autotune import (
    TunerConfig,
    hinge_objective,
    hinge_subgradient,
    tune_weights,
)
from trajpredict.cli import main
from trajpredict.costing import (
    CostWeights,
    cost_acc,
    cost_centripetal,
    cost_collision,
    rank_intentions,
)
from trajpredict.evaluation import ade, fde, mse
from trajpredict.generation import (
    CandidateTrajectory,
    PathCandidate,
    SpeedProfile,
    realize_trajectory,
)
from trajpredict.geometry import Curve
from trajpredict.scene import EgoPlan, Positions, load_map

FIXTURES = os.path.join(os.path.dirname(__file__), "fixtures")
GOLDEN = os.path.join(os.path.dirname(__file__), "golden")


class _budget:
    def __init__(self, name, seconds):
        self.name = name
        self.seconds = seconds

    def __enter__(self):
        self.start = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb):
        elapsed = time.perf_counter() - self.start
        if exc_type is None:
            assert elapsed < self.seconds, f"{self.name} took {elapsed:.1f}s, budget {self.seconds}s"
            print(f"ACCEPTANCE PASS: {self.name} ({elapsed:.2f}s)")
        return False


def synth_candidate(rows, a=0.0):
    t, x, y, v, k, acc = zip(*rows)
    profile = SpeedProfile(v0=rows[0][3], a=a, duration=rows[-1][0], resolution=rows[0][0])
    return CandidateTrajectory(t, x, y, v, k, acc, source_profile=profile)


class Prior:
    def __init__(self, intention_id, prior):
        self.intention_id = intention_id
        self.prior = prior


def test_criterion_1_posterior_contract():
    with _budget("1 posterior contract on the 3-exit fixture", 1.0):
        weights = CostWeights(1.0, 1.0, 1.0, 1.0, 1.0)
        rows = [(0.1 * (k + 1), k * 1.0, 0.0, 10.0, 0.01, 0.5) for k in range(30)]
        candidates = {
            name: [synth_candidate(rows)]
            for name in ("exit_e", "exit_n", "exit_s")
        }
        priors = [Prior("exit_e", 0.4), Prior("exit_n", 0.4), Prior("exit_s", 0.2)]
        record = rank_intentions("veh", 0.0, candidates, priors, None, weights)
        assert abs(math.fsum(e["posterior"] for e in record["intentions"]) - 1.0) <= 1e-9
        # identical candidates per intention: min-costs equalized, so the
        # likelihood cancels and the posterior reproduces the prior
        by_id = {e["intention_id"]: e["posterior"] for e in record["intentions"]}
        assert abs(by_id["exit_e"] - 0.4) <= 1e-9
        assert abs(by_id["exit_n"] - 0.4) <= 1e-9
        assert abs(by_id["exit_s"] - 0.2) <= 1e-9

        # the committed pipeline fixture carries the same prior triple
        with open(os.path.join(GOLDEN, "predictions.jsonl")) as fh:
            records = [json.loads(line) for line in fh]
        at_two = next(
            r for r in records if r["obstacle_id"] == "veh_1" and r["anchor_time"] == 2.0
        )
        assert {e["intention_id"]: e["prior"] for e in at_two["intentions"]} == pytest.approx(
            {"exit_e": 0.4, "exit_n": 0.4, "exit_s": 0.2}
        )
        for record in records:
            assert abs(math.fsum(e["posterior"] for e in record["intentions"]) - 1.0) <= 1e-9


def test_criterion_2_hinge_objective_properties():
    with _budget("2 hinge objective properties", 5.0):
        rng = random.Random(101)
        examples = planted_examples(rng, 20)
        total_candidates = sum(len(ex.candidate_subcosts) for ex in examples)

        # L(0) pays the margin once per candidate
        assert hinge_objective(examples, (0.0, 0.0, 0.0), 0.1) == pytest.approx(
            total_candidates * 0.1, abs=1e-12
        )
        # L = 0 exactly when every candidate clears the ground truth by delta
        assert hinge_objective(examples, PLANTED_THETA, 0.1) == 0.0
        violated = examples[0]
        gt = violated.gt_subcosts
        worst = min(
            sum(t * (c - g) for t, c, g in zip(PLANTED_THETA, cand, gt))
            for cand in violated.candidate_subcosts
        )
        assert hinge_objective([violated], PLANTED_THETA, worst + 1.0) > 0.0

        for _ in range(200):
            theta = [rng.uniform(0, 6) for _ in range(3)]
            assert hinge_objective(examples, theta, 0.1) >= 0.0

        for _ in range(100):
            ta = np.array([rng.uniform(0, 6) for _ in range(3)])
            tb = np.array([rng.uniform(0, 6) for _ in range(3)])
            lam = rng.uniform(0, 1)
            lhs = hinge_objective(examples, lam * ta + (1 - lam) * tb, 0.1)
            rhs = lam * hinge_objective(examples, ta, 0.1) + (1 - lam) * hinge_objective(
                examples, tb, 0.1
            )
            assert lhs <= rhs + 1e-9


def test_criterion_3_subgradient_matches_finite_differences():
    with _budget("3 subgradient vs central differences", 5.0):
        rng = random.Random(202)
        examples = planted_examples(rng, 15)
        diffs = np.array(
            [
                np.array(ex.gt_subcosts) - np.array(cand)
                for ex in examples
                for cand in ex.candidate_subcosts
            ]
        )
        checked = 0
        while checked < 50:
            theta = np.array([rng.uniform(0, 5) for _ in range(3)])
            if np.min(np.abs(diffs @ theta + 0.1)) < 1e-6:
                continue
            analytic = hinge_subgradient(examples, theta, 0.1)
            for i in range(3):
                e = np.zeros(3)
                e[i] = 1e-6
                fd = (
                    hinge_objective(examples, theta + e, 0.1)
                    - hinge_objective(examples, theta - e, 0.1)
                ) / 2e-6
                assert abs(fd - analytic[i]) < 1e-4
            checked += 1


def test_criterion_4_planted_weights_recovery():
    with _budget("4 planted-weights recovery and held-out ranking", 60.0):
        rng = random.Random(2024)
        train = planted_examples(rng, 200)
        held_out = planted_examples(rng, 100)
        config = TunerConfig(
            delta=0.1,
            learning_rate=0.002,
            max_iters=5000,
            convergence_tol=0.0,
            theta_init=(1.0, 1.0, 1.0),
        )
        theta, history = tune_weights(train, config)
        assert history[-1] < 1e-6

        wins = 0
        for ex in held_out:
            gt_cost = float(np.dot(theta, ex.gt_subcosts))
            best_candidate = min(float(np.dot(theta, c)) for c in ex.candidate_subcosts)
            if gt_cost < best_candidate:
                wins += 1
        assert wins >= 95, f"ground truth is argmin on only {wins}/100 held-out anchors"


def test_criterion_5_sampling_exactness():
    with _budget("5 closed-form sampling vs fine-step integration", 10.0):
        rng = random.Random(99)
        path = PathCandidate(lane_ids=("l",), curve=Curve([(0, 0), (1000, 0)]))
        h = 1e-5
        for _ in range(20):
            v0 = rng.uniform(0.0, 20.0)
            a = rng.uniform(-5.0, 4.0)
            v_max = rng.uniform(4.0, 25.0)
            profile = SpeedProfile(v0=v0, a=a, duration=8.0, resolution=0.1, v_max=v_max)
            traj = realize_trajectory(path, profile)
            s_oracle = 0.0
            for k, x in enumerate(traj.xs, start=1):
                mids = (k - 1) * 0.1 + (np.arange(10000) + 0.5) * h
                block = np.minimum(v_max, np.maximum(0.0, v0 + a * mids))
                s_oracle += float(block.sum()) * h
                assert abs(x - s_oracle) < 1e-9


def test_criterion_6_cost_formula_oracles():
    with _budget("6 cost formulas vs direct summation", 5.0):
        rng = random.Random(55)
        ego = EgoPlan(
            tuple(float(t) for t in range(12)),
            tuple(2.0 * t for t in range(12)),
            tuple(3.0 + t for t in range(12)),
        )
        for _ in range(50):
            n = rng.randint(5, 60)
            rows = [
                (
                    0.1 * (k + 1),
                    rng.uniform(-30, 30),
                    rng.uniform(-30, 30),
                    rng.uniform(0, 20),
                    rng.uniform(-0.2, 0.2),
                    rng.uniform(-4, 4),
                )
                for k in range(n)
            ]
            traj = synth_candidate(rows)
            z1 = rng.uniform(0.5, 200.0)
            z2 = rng.uniform(0.5, 200.0)
            anchor = rng.uniform(0.0, 4.0)

            acc_oracle = math.fsum(r[5] ** 2 for r in rows)
            assert abs(cost_acc(traj) - acc_oracle) <= 1e-10

            cent_oracle = math.fsum((r[3] ** 2 * r[4]) ** 2 for r in rows) / z1
            assert abs(cost_centripetal(traj, z1) - cent_oracle) <= 1e-10 * max(1.0, cent_oracle)

            coll_terms = []
            for t, x, y, *_ in rows:
                q = min(max(anchor + t, 0.0), 11.0)
                coll_terms.append(math.exp(-((x - 2.0 * q) ** 2 + (y - 3.0 - q) ** 2)))
            coll_oracle = math.fsum(coll_terms) / z2
            assert abs(cost_collision(traj, ego, z2, anchor) - coll_oracle) <= 1e-10

        # circular path: centripetal cost matches the analytic (v^2/R)^2 form
        radius = 10.0
        pts = [
            (radius * math.cos(2 * math.pi * k / 36), radius * math.sin(2 * math.pi * k / 36))
            for k in range(36)
        ]
        circle = PathCandidate(lane_ids=("l",), curve=Curve(pts))
        profile = SpeedProfile(v0=10.0, a=0.0, duration=3.0, resolution=0.1, v_max=30.0)
        traj = realize_trajectory(circle, profile)
        analytic = 30 * (10.0**2 / radius) ** 2
        assert cost_centripetal(traj, z1=1.0) == pytest.approx(analytic, rel=0.005)


def test_criterion_7_metric_correctness():
    with _budget("7 displacement metrics vs brute force", 5.0):
        rng = random.Random(77)
        for _ in range(50):
            n = rng.randint(3, 40)
            pred, truth = [], []
            for k in range(1, n + 1):
                t = 0.1 * k
                pred.append((t, rng.uniform(-40, 40), rng.uniform(-40, 40)))
                truth.append((t, rng.uniform(-40, 40), rng.uniform(-40, 40)))
            horizon = 0.1 * rng.randint(1, n)
            kept = [
                math.hypot(px - qx, py - qy)
                for (t, px, py), (_, qx, qy) in zip(pred, truth)
                if t <= horizon + 1e-9
            ]
            mse_oracle = math.fsum(
                (px - qx) ** 2 + (py - qy) ** 2 for (_, px, py), (_, qx, qy) in zip(pred, truth)
            ) / n
            pred, truth = Positions(*zip(*pred)), Positions(*zip(*truth))
            assert abs(ade(pred, truth, horizon) - math.fsum(kept) / len(kept)) <= 1e-10
            assert abs(fde(pred, truth, horizon) - kept[-1]) <= 1e-10
            got = mse(pred, truth)
            assert abs(got - mse_oracle) <= 1e-10 * max(1.0, mse_oracle)


def test_criterion_8_end_to_end_determinism(tmp_path):
    with _budget("8 pipeline determinism and golden files", 30.0):
        def run(into):
            os.makedirs(into, exist_ok=True)
            dataset = os.path.join(into, "dataset.jsonl")
            predictions = os.path.join(into, "predictions.jsonl")
            tuned = os.path.join(into, "tuned.json")
            report = os.path.join(into, "report.json")
            fx = lambda name: os.path.join(FIXTURES, name)
            assert main([
                "annotate", "--log", fx("obstacles.jsonl"), "--map", fx("map.json"),
                "--horizon", "3.0", "--stride", "1.0", "--out", dataset,
            ]) == 0
            assert main([
                "predict", "--scene", fx("obstacles.jsonl"), "--map", fx("map.json"),
                "--ego", fx("ego.jsonl"), "--priors", fx("priors.jsonl"),
                "--weights", fx("weights.json"), "--config", fx("genconfig.json"),
                "--stride", "1.0", "--out", predictions,
            ]) == 0
            assert main([
                "tune", "--predictions", predictions, "--dataset", dataset,
                "--tuner-config", fx("tunerconfig.json"), "--ego", fx("ego.jsonl"),
                "--out", tuned,
            ]) == 0
            assert main([
                "eval", "--predictions", predictions, "--dataset", dataset,
                "--horizons", "1,3", "--out", report,
            ]) == 0
            return [dataset, predictions, tuned, report]

        first = run(str(tmp_path / "run1"))
        second = run(str(tmp_path / "run2"))
        for a, b in zip(first, second):
            assert Path(a).read_bytes() == Path(b).read_bytes(), f"nondeterministic: {a}"
        for produced in first:
            golden = os.path.join(GOLDEN, os.path.basename(produced))
            assert Path(produced).read_bytes() == Path(golden).read_bytes(), (
                f"{produced} does not match the checked-in golden file"
            )


def test_criterion_9_annotation_fidelity(tmp_path):
    with _budget("9 annotation fidelity", 5.0):
        # every label point lies on the raw track's piecewise-linear interpolant
        rng = random.Random(88)
        for _ in range(10):
            rows = []
            t, x, y = 0.0, 0.0, 0.0
            for _ in range(90):
                rows.append((t, x, y, 0.0, 1.0))
                t = round(t + 0.1, 10)
                x += rng.uniform(-1.5, 1.5)
                y += rng.uniform(-1.5, 1.5)
            track = make_track("veh", rows)
            anchor = rng.choice([0.0, 0.7, 1.3, 2.0])
            label = label_future_trajectory(track, anchor, horizon=4.0, resolution=0.1)
            times = [r[0] for r in rows]
            for rel, x, y in zip(label.times, label.xs, label.ys):
                q = min(anchor + rel, times[-1])
                i = next(k for k in range(len(times) - 1) if times[k + 1] >= q - 1e-12)
                u = (q - times[i]) / (times[i + 1] - times[i])
                ex = rows[i][1] + u * (rows[i + 1][1] - rows[i][1])
                ey = rows[i][2] + u * (rows[i + 1][2] - rows[i][2])
                assert math.hypot(x - ex, y - ey) <= 1e-9

        # exit labels on the intersection fixture match hand-computed passages:
        # the eastbound track crosses x = 15 - 3 at t = 7.2 s, inside the 3 s
        # label window only for anchors 5, 6, and 7
        imap = load_map(write_json(tmp_path / "map.json", intersection_map_dict()))
        eastbound = straight_track("veh_1", v=10.0, n=120, x0=-60.0, y=0.0)
        expected = {5.0: "exit_e", 6.0: "exit_e", 7.0: "exit_e"}
        for anchor in [float(k) for k in range(9)]:
            label = label_exit_taken(eastbound, anchor, imap, horizon=3.0)
            assert (label.exit_id if label else None) == expected.get(anchor), anchor
