import json
import math
import random

import pytest

from trajpredict.annotation import columns
from trajpredict.costing import (
    CostWeights,
    cost_acc,
    cost_centripetal,
    cost_collision,
    rank_intentions,
    result_to_record,
    total_cost,
)
from trajpredict.generation import (
    CandidateTrajectory,
    PathCandidate,
    SpeedProfile,
    realize_trajectory,
)
from trajpredict.geometry import Curve
from trajpredict.scene import EgoPlan


def synth_trajectory(rows, a=0.0, v0=10.0):
    """Candidate with prescribed per-point (t, x, y, speed, curvature, accel)."""
    t, x, y, v, k, acc = zip(*rows)
    profile = SpeedProfile(v0=v0, a=a, duration=max(t), resolution=rows[0][0])
    return CandidateTrajectory(t, x, y, v, k, acc, source_profile=profile)


def constant_rows(n=30, accel=0.0, speed=10.0, curvature=0.0, x_far=0.0):
    return [(0.1 * (k + 1), x_far + k * 1.0, 0.0, speed, curvature, accel) for k in range(n)]


def static_ego(x=0.0, y=0.0):
    return EgoPlan((0.0, 100.0), (x, x), (y, y))


class TestSubCosts:
    def test_zero_acceleration_costs_nothing(self):
        assert cost_acc(synth_trajectory(constant_rows(accel=0.0))) == 0.0

    def test_unit_acceleration_sums_points(self):
        assert cost_acc(synth_trajectory(constant_rows(n=30, accel=1.0))) == 30.0

    def test_acc_matches_direct_summation(self):
        rng = random.Random(2)
        for _ in range(50):
            rows = [
                (0.1 * (k + 1), k * 1.0, 0.0, rng.uniform(0, 20), 0.0, rng.uniform(-4, 4))
                for k in range(rng.randint(3, 60))
            ]
            traj = synth_trajectory(rows)
            expected = sum(r[5] ** 2 for r in rows)
            assert cost_acc(traj) == pytest.approx(expected, abs=1e-10)

    def test_clamped_profile_counts_only_preclamp_points(self):
        path = PathCandidate(lane_ids=("l",), curve=Curve([(0, 0), (500, 0)]))
        profile = SpeedProfile(v0=10.0, a=2.0, duration=3.0, resolution=0.1, v_max=12.0)
        traj = realize_trajectory(path, profile)
        # clamp hits at t=1.0; accel applies to the 9 strictly pre-clamp points
        assert cost_acc(traj) == pytest.approx(9 * 4.0, abs=1e-12)

    def test_straight_path_has_no_centripetal_cost(self):
        assert cost_centripetal(synth_trajectory(constant_rows()), z1=1.0) == 0.0

    def test_circle_centripetal_analytic(self):
        rows = [(0.1 * (k + 1), 0.0, 0.0, 10.0, 0.1, 0.0) for k in range(30)]
        assert cost_centripetal(synth_trajectory(rows), z1=1.0) == pytest.approx(3000.0)

    def test_realized_circle_matches_analytic(self):
        radius = 10.0
        pts = [
            (radius * math.cos(2 * math.pi * k / 36), radius * math.sin(2 * math.pi * k / 36))
            for k in range(36)
        ]
        path = PathCandidate(lane_ids=("l",), curve=Curve(pts))
        profile = SpeedProfile(v0=10.0, a=0.0, duration=3.0, resolution=0.1, v_max=30.0)
        traj = realize_trajectory(path, profile)
        analytic = 30 * (10.0**2 / radius) ** 2
        assert cost_centripetal(traj, z1=1.0) == pytest.approx(analytic, rel=0.005)

    def test_doubling_z1_halves_cost(self):
        rows = constant_rows(curvature=0.05)
        traj = synth_trajectory(rows)
        assert cost_centripetal(traj, z1=2.0) == pytest.approx(
            cost_centripetal(traj, z1=1.0) / 2.0
        )

    def test_centripetal_matches_direct_summation(self):
        rng = random.Random(3)
        for _ in range(50):
            rows = [
                (
                    0.1 * (k + 1),
                    k * 1.0,
                    0.0,
                    rng.uniform(0, 20),
                    rng.uniform(-0.2, 0.2),
                    0.0,
                )
                for k in range(rng.randint(3, 60))
            ]
            z1 = rng.uniform(0.5, 100.0)
            expected = sum((r[3] ** 2 * r[4]) ** 2 for r in rows) / z1
            assert cost_centripetal(synth_trajectory(rows), z1) == pytest.approx(
                expected, abs=1e-10, rel=1e-12
            )

    def test_distant_obstacle_collision_negligible(self):
        traj = synth_trajectory(constant_rows(x_far=100.0))
        assert cost_collision(traj, static_ego(), z2=1.0) < 1e-300

    def test_coincident_every_step(self):
        rows = [(0.1 * (k + 1), 0.0, 0.0, 10.0, 0.0, 0.0) for k in range(30)]
        assert cost_collision(synth_trajectory(rows), static_ego(), z2=1.0) == pytest.approx(30.0)

    def test_single_coincident_point(self):
        rows = [(0.1, 0.0, 0.0, 10.0, 0.0, 0.0)] + [
            (0.1 * (k + 1), 100.0 + k, 0.0, 10.0, 0.0, 0.0) for k in range(1, 30)
        ]
        cost = cost_collision(synth_trajectory(rows), static_ego(), z2=2.0)
        assert cost == pytest.approx(0.5, abs=1e-9)

    def test_no_ego_plan_is_zero(self):
        assert cost_collision(synth_trajectory(constant_rows()), None, z2=1.0) == 0.0

    def test_collision_matches_term_oracle(self):
        rng = random.Random(5)
        ego = EgoPlan(
            tuple(float(t) for t in range(11)),
            tuple(t * 2.0 for t in range(11)),
            tuple(1.0 + t for t in range(11)),
        )
        for _ in range(50):
            rows = [
                (0.1 * (k + 1), rng.uniform(-20, 20), rng.uniform(-20, 20), 5.0, 0.0, 0.0)
                for k in range(rng.randint(3, 40))
            ]
            anchor = rng.uniform(0.0, 5.0)
            z2 = rng.uniform(0.5, 50.0)
            expected = 0.0
            for t, x, y, *_ in rows:
                q = anchor + t
                q = min(max(q, 0.0), 10.0)
                ex, ey = q * 2.0, 1.0 + q
                expected += math.exp(-((x - ex) ** 2 + (y - ey) ** 2))
            expected /= z2
            got = cost_collision(synth_trajectory(rows), ego, z2, anchor_time=anchor)
            assert got == pytest.approx(expected, abs=1e-10, rel=1e-12)

    def test_collision_nonincreasing_as_distance_grows(self):
        base = [(0.1, 3.0, 0.0, 10.0, 0.0, 0.0), (0.2, 4.0, 0.0, 10.0, 0.0, 0.0)]
        moved = [(0.1, 3.0, 0.0, 10.0, 0.0, 0.0), (0.2, 9.0, 0.0, 10.0, 0.0, 0.0)]
        ego = static_ego()
        assert cost_collision(synth_trajectory(moved), ego, 1.0) <= cost_collision(
            synth_trajectory(base), ego, 1.0
        )


class TestTotalCost:
    def test_zero_subcosts_zero_total(self):
        weights = CostWeights(z1=1.0, z2=1.0)
        *_, total = total_cost(synth_trajectory(constant_rows(x_far=1000.0)), None, weights)
        assert total == 0.0

    def test_unit_weights_sum_subcosts(self):
        traj = synth_trajectory(constant_rows(n=2, accel=1.0, curvature=0.1))
        acc, centripetal, collision, total = total_cost(
            traj, static_ego(1.0, 0.0).positions_at(traj.times), CostWeights()
        )
        assert (acc, centripetal) == (2.0, 200.0) and collision > 0.0
        assert total == acc + centripetal + collision

    def test_weighted_dot_product(self):
        traj = synth_trajectory(constant_rows(n=2, accel=1.0, curvature=0.1))
        weights = CostWeights(0.5, 2.0, 0.0, 1.0, 1.0)
        *_, total = total_cost(traj, static_ego(1.0, 0.0).positions_at(traj.times), weights)
        assert total == pytest.approx(0.5 * 2.0 + 2.0 * 200.0)

    def test_breakdown_is_linear_in_each_weight(self):
        rng = random.Random(9)
        rows = [
            (0.1 * (k + 1), k * 0.9, 0.2 * k, rng.uniform(0, 15), rng.uniform(-0.1, 0.1), rng.uniform(-3, 3))
            for k in range(25)
        ]
        traj = synth_trajectory(rows)
        ego = static_ego(5.0, 3.0)
        for _ in range(20):
            w = CostWeights(
                rng.uniform(0, 3), rng.uniform(0, 3), rng.uniform(0, 3), 2.0, 3.0
            )
            acc, centripetal, collision, total = total_cost(traj, ego.positions_at(traj.times), w)
            recomposed = (
                w.theta_acc * acc + w.theta_centripetal * centripetal + w.theta_collision * collision
            )
            assert total == pytest.approx(recomposed, abs=1e-12)


def ranked_posteriors(*costs):
    """(min_cost, posterior) of each intention that rank_intentions ranks under
    equal priors, one intention per cost, every cost in its acceleration term."""
    candidates = {f"i{k}": [trajectory_with_cost(c)] for k, c in enumerate(costs)}
    priors = [Prior(f"i{k}", 1.0) for k in range(len(costs))]
    result = rank_intentions("veh", 0.0, candidates, priors, None, CostWeights())
    return [(r.min_cost, r.posterior) for r in result.intentions]


class TestLikelihood:
    """The likelihood exp(-min cost), as the posteriors it weights show it."""

    def test_zero_cost_is_certain(self):
        assert ranked_posteriors(0.0) == [(0.0, 1.0)]

    def test_log_two_halves(self):
        (cost1, p1), (cost2, p2) = ranked_posteriors(0.0, math.log(2.0))
        assert p1 / p2 == pytest.approx(math.exp(cost2 - cost1), rel=1e-12)
        assert p1 / p2 == pytest.approx(2.0)

    def test_strictly_decreasing(self):
        rng = random.Random(1)
        for _ in range(50):
            c1 = rng.uniform(0, 10)
            c2 = c1 + rng.uniform(1e-6, 5)
            (cost1, p1), (cost2, p2) = ranked_posteriors(c1, c2)
            assert p1 / p2 == pytest.approx(math.exp(cost2 - cost1), rel=1e-9)
            assert p1 > p2


class Prior:
    def __init__(self, intention_id, prior):
        self.intention_id = intention_id
        self.prior = prior


def trajectory_with_cost(total, n=10, a_mag=None):
    """All cost in the acceleration term: accel = sqrt(total / n) per point."""
    accel = math.sqrt(total / n)
    rows = [(0.1 * (k + 1), 1000.0 + k, 0.0, 5.0, 0.0, accel) for k in range(n)]
    return synth_trajectory(rows, a=a_mag if a_mag is not None else accel)


class TestRankIntentions:
    def test_equal_costs_reproduce_priors(self):
        weights = CostWeights(1.0, 1.0, 1.0, 1.0, 1.0)
        candidates = {
            "right": [trajectory_with_cost(2.0)],
            "straight": [trajectory_with_cost(2.0)],
            "left": [trajectory_with_cost(2.0)],
        }
        priors = [Prior("right", 0.2), Prior("straight", 0.4), Prior("left", 0.4)]
        result = rank_intentions("veh", 0.0, candidates, priors, None, weights)
        by_id = {r.intention_id: r for r in result.intentions}
        assert by_id["right"].posterior == pytest.approx(0.2, abs=1e-9)
        assert by_id["straight"].posterior == pytest.approx(0.4, abs=1e-9)
        assert by_id["left"].posterior == pytest.approx(0.4, abs=1e-9)
        assert math.fsum(r.posterior for r in result.intentions) == pytest.approx(1.0, abs=1e-9)

    def test_cost_gap_reweights_priors(self):
        weights = CostWeights(1.0, 1.0, 1.0, 1.0, 1.0)
        candidates = {
            "a": [trajectory_with_cost(0.0)],
            "b": [trajectory_with_cost(math.log(3.0))],
        }
        result = rank_intentions(
            "veh", 0.0, candidates, [Prior("a", 0.5), Prior("b", 0.5)], None, weights
        )
        by_id = {r.intention_id: r for r in result.intentions}
        assert by_id["a"].posterior == pytest.approx(0.75, abs=1e-9)
        assert by_id["b"].posterior == pytest.approx(0.25, abs=1e-9)
        assert result.selected_intention == "a"

    def test_single_intention_is_certain(self):
        weights = CostWeights(1.0, 1.0, 1.0, 1.0, 1.0)
        result = rank_intentions(
            "veh",
            0.0,
            {"only": [trajectory_with_cost(7.0)]},
            [Prior("only", 1.0)],
            None,
            weights,
        )
        assert result.intentions[0].posterior == 1.0

    def test_missing_candidates_error_names_intention(self):
        weights = CostWeights()
        with pytest.raises(ValueError, match="ghost"):
            rank_intentions(
                "veh",
                0.0,
                {"go": [trajectory_with_cost(1.0)]},
                [Prior("go", 0.5), Prior("ghost", 0.5)],
                None,
                weights,
            )

    @pytest.mark.parametrize(
        "priors",
        [[], [Prior("go", -0.5), Prior("stop", 1.0)], [Prior("go", 0.0), Prior("stop", 0.0)]],
        ids=["empty", "negative", "zero_mass"],
    )
    def test_invalid_priors_are_refused(self, priors):
        candidates = {
            "go": [trajectory_with_cost(1.0)],
            "stop": [trajectory_with_cost(1.0)],
        }
        with pytest.raises(ValueError, match="priors"):
            rank_intentions("veh", 0.0, candidates, priors, None, CostWeights())

    def test_best_candidate_is_argmin_with_profile_tiebreak(self):
        weights = CostWeights(0.0, 1.0, 1.0, 1.0, 1.0)  # accel ignored: all totals zero
        fast = trajectory_with_cost(4.0, a_mag=2.0)
        slow = trajectory_with_cost(9.0, a_mag=1.0)
        result = rank_intentions(
            "veh", 0.0, {"go": [fast, slow]}, [Prior("go", 1.0)], None, weights
        )
        assert result.intentions[0].best_trajectory is slow  # tie on cost, smaller |a|

    def test_scaling_thetas_preserves_best_candidates(self):
        rng = random.Random(21)
        weights = CostWeights(1.0, 2.0, 3.0, 1.5, 2.5)
        scaled = CostWeights(2.0, 4.0, 6.0, 1.5, 2.5)
        ego = static_ego(3.0, 1.0)
        candidates = {}
        priors = []
        for name in ("i1", "i2", "i3"):
            candidates[name] = [
                synth_trajectory(
                    [
                        (
                            0.1 * (k + 1),
                            rng.uniform(-10, 10),
                            rng.uniform(-10, 10),
                            rng.uniform(0, 15),
                            rng.uniform(-0.1, 0.1),
                            rng.uniform(-3, 3),
                        )
                        for k in range(10)
                    ],
                    a=rng.uniform(-2, 2),
                )
                for _ in range(4)
            ]
            priors.append(Prior(name, 1.0 / 3.0))
        base = rank_intentions("veh", 0.0, candidates, priors, ego, weights)
        double = rank_intentions("veh", 0.0, candidates, priors, ego, scaled)
        for r1, r2 in zip(base.intentions, double.intentions):
            assert r1.best_trajectory is r2.best_trajectory
            assert r2.min_cost == pytest.approx(2.0 * r1.min_cost, rel=1e-12)

    def test_constant_cost_shift_leaves_posteriors_unchanged(self):
        weights = CostWeights(1.0, 1.0, 1.0, 1.0, 1.0)

        def posteriors(shift):
            candidates = {
                "a": [trajectory_with_cost(1.0 + shift)],
                "b": [trajectory_with_cost(2.5 + shift)],
            }
            result = rank_intentions(
                "veh", 0.0, candidates, [Prior("a", 0.3), Prior("b", 0.7)], None, weights
            )
            return [r.posterior for r in result.intentions]

        assert posteriors(0.0) == pytest.approx(posteriors(5.0), abs=1e-9)

    def test_huge_costs_do_not_underflow_the_normalizer(self):
        # exp(-C) underflows to 0 beyond C ~ 745; posteriors must survive
        weights = CostWeights(1.0, 1.0, 1.0, 1.0, 1.0)
        candidates = {
            "a": [trajectory_with_cost(2000.0)],
            "b": [trajectory_with_cost(2000.0 + math.log(3.0))],
        }
        result = rank_intentions(
            "veh", 0.0, candidates, [Prior("a", 0.5), Prior("b", 0.5)], None, weights
        )
        by_id = {r.intention_id: r for r in result.intentions}
        assert by_id["a"].posterior == pytest.approx(0.75, abs=1e-9)
        assert by_id["b"].posterior == pytest.approx(0.25, abs=1e-9)

    def test_zero_prior_on_the_cheapest_intention_gets_no_mass(self):
        # "a" is cheaper by far more than exp can span; its zero prior leaves
        # all the mass to "b" instead of a zero normalizer
        weights = CostWeights(1.0, 1.0, 1.0, 1.0, 1.0)
        candidates = {"a": [trajectory_with_cost(0.0)], "b": [trajectory_with_cost(2000.0)]}
        result = rank_intentions(
            "veh", 0.0, candidates, [Prior("a", 0.0), Prior("b", 1.0)], None, weights
        )
        by_id = {r.intention_id: r for r in result.intentions}
        assert (by_id["a"].posterior, by_id["b"].posterior) == (0.0, 1.0)
        assert result.selected_intention == "b"

    def test_posteriors_always_sum_to_one(self):
        rng = random.Random(33)
        weights = CostWeights(1.0, 1.0, 1.0, 1.0, 1.0)
        for _ in range(20):
            n_intentions = rng.randint(1, 5)
            candidates = {}
            priors = []
            for i in range(n_intentions):
                name = f"i{i}"
                candidates[name] = [
                    trajectory_with_cost(rng.uniform(0, 8))
                    for _ in range(rng.randint(1, 3))
                ]
                priors.append(Prior(name, rng.uniform(0.05, 1.0)))
            total = sum(p.prior for p in priors)
            priors = [Prior(p.intention_id, p.prior / total) for p in priors]
            result = rank_intentions("veh", 0.0, candidates, priors, None, weights)
            assert math.fsum(r.posterior for r in result.intentions) == pytest.approx(
                1.0, abs=1e-9
            )


class TestSerialization:
    def test_record_roundtrip(self):
        weights = CostWeights(1.0, 2.0, 3.0, 4.0, 5.0)
        path = PathCandidate(lane_ids=("l",), curve=Curve([(0, 0), (50, 0), (50, 50)]))
        profiles = {
            "a": SpeedProfile(v0=10.0, a=-1.0, duration=1.0, resolution=0.1),
            "b": SpeedProfile(v0=10.0, a=4.0, duration=1.0, resolution=0.1, v_max=12.0),
        }
        candidates = {name: [realize_trajectory(path, p)] for name, p in profiles.items()}
        result = rank_intentions(
            "veh", 1.5, candidates, [Prior("a", 0.6), Prior("b", 0.4)], None, weights
        )
        record = json.loads(json.dumps(result_to_record(result, weights)))
        assert record["obstacle_id"] == "veh"
        assert record["z1"] == 4.0 and record["z2"] == 5.0
        assert record["selected_intention"] == result.selected_intention
        # an unbounded v_max is written as null
        assert [e["best_trajectory"]["profile"]["v_max"] for e in record["intentions"]] == [
            None, 12.0
        ]
        for ranking, entry in zip(result.intentions, record["intentions"], strict=True):
            assert set(entry) == {
                "intention_id", "prior", "min_cost", "posterior", "best_trajectory", "candidates"
            }
            assert entry["min_cost"] == ranking.min_cost
            best = ranking.best_trajectory
            points = entry["best_trajectory"]["points"]
            assert len(points) == 10 and all(len(row) == 3 for row in points)
            assert points[0][0] == pytest.approx(0.1)
            assert columns(points, 3) == [tuple(best.times), tuple(best.xs), tuple(best.ys)]
            # t, v and a are the speed profile's own, which the record keeps
            profile = entry["best_trajectory"]["profile"]
            v_max = math.inf if profile["v_max"] is None else profile["v_max"]
            rebuilt = SpeedProfile(**{**profile, "v_max": v_max})
            assert rebuilt == best.source_profile
            assert (rebuilt.times, rebuilt.speeds, rebuilt.accels) == (
                best.times, best.speeds, best.accels
            )
