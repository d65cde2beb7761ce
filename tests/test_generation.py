import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import intersection_map_dict, straight_track, write_json, write_jsonl
from trajpredict.annotation import label_future_trajectory
from trajpredict.errors import AssociationError, ConfigError
from trajpredict.generation import (
    GenerationConfig,
    IntentionPrior,
    KinematicLimits,
    PathCandidate,
    SpeedProfile,
    heuristic_exit_priors,
    load_priors,
    normalize_priors,
    realize_trajectory,
    sample_profiles,
    search_paths,
)
from trajpredict.geometry import Curve, Point2, project_point
from trajpredict.scene import ObstacleState, load_map


def chain_map(tmp_path, lengths=(30.0, 30.0, 30.0), fork=False, cycle=False):
    x = 0.0
    lanes = []
    ids = ["lane_a", "lane_b", "lane_c"]
    for lane_id, length in zip(ids, lengths):
        lanes.append(
            {"id": lane_id, "centerline": [[x, 0.0], [x + length, 0.0]], "successors": []}
        )
        x += length
    lanes[0]["successors"] = ["lane_b"]
    lanes[1]["successors"] = ["lane_c"]
    if fork:
        lanes[1]["centerline"] = [[lengths[0], 0.0], [lengths[0] + lengths[1], 10.0]]
        lanes[2]["centerline"] = [[lengths[0], 0.0], [lengths[0] + lengths[2], -10.0]]
        lanes[0]["successors"] = ["lane_b", "lane_c"]
        lanes[1]["successors"] = []
    if cycle:
        lanes = lanes[:2]
        lanes[0]["successors"] = ["lane_b"]
        lanes[1]["successors"] = ["lane_a"]
        lanes[1]["centerline"] = [[lengths[0], 0.0], [lengths[0] + lengths[1], 0.0]]
    return load_map(write_json(tmp_path / "chain.json", {"lanes": lanes, "exits": []}))


def obstacle_at(x, y, heading=0.0, speed=10.0, obstacle_id="veh"):
    return ObstacleState(
        timestamp=0.0,
        position=Point2(x, y),
        heading=heading,
        speed=speed,
        obstacle_id=obstacle_id,
    )


@pytest.fixture
def imap(tmp_path):
    return load_map(write_json(tmp_path / "imap.json", intersection_map_dict()))


class TestPriors:
    def test_single_exit_gets_full_mass(self, tmp_path):
        doc = {
            "lanes": [{"id": "l1", "centerline": [[0, 0], [50, 0]], "successors": []}],
            "exits": [{"id": "e1", "x": 50.0, "y": 0.0, "heading": 0.0, "lane_id": "l1"}],
        }
        map_graph = load_map(write_json(tmp_path / "m.json", doc))
        track = straight_track(n=10, x0=0.0, y=0.0)
        (prior,) = heuristic_exit_priors(track, map_graph)
        assert prior.prior == 1.0

    def test_symmetric_exits_split_evenly(self, tmp_path):
        doc = {
            "lanes": [{"id": "l1", "centerline": [[0, 0], [50, 0]], "successors": []}],
            "exits": [
                {"id": "e_up", "x": 50.0, "y": 10.0, "heading": 0.0, "lane_id": "l1"},
                {"id": "e_down", "x": 50.0, "y": -10.0, "heading": 0.0, "lane_id": "l1"},
            ],
        }
        map_graph = load_map(write_json(tmp_path / "m.json", doc))
        track = straight_track(n=10, x0=0.0, y=0.0)
        priors = heuristic_exit_priors(track, map_graph)
        assert [p.prior for p in priors] == pytest.approx([0.5, 0.5])

    def test_file_priors_bypass_heuristic(self, tmp_path):
        path = write_jsonl(
            tmp_path / "priors.jsonl",
            [
                {
                    "obstacle_id": "veh",
                    "anchor_time": 2.0,
                    "intentions": [
                        {"id": "exit_e", "prior": 0.4},
                        {"id": "exit_n", "prior": 0.4},
                        {"id": "exit_s", "prior": 0.2},
                    ],
                }
            ],
        )
        table = load_priors(path)
        priors = table[("veh", 2.0)]
        assert [p.prior for p in priors] == pytest.approx([0.4, 0.4, 0.2])
        assert math.fsum(p.prior for p in priors) == pytest.approx(1.0, abs=1e-9)

    def test_normalization_rescales_and_rejects_negative(self):
        scaled = normalize_priors([IntentionPrior("a", 2.0), IntentionPrior("b", 6.0)])
        assert [p.prior for p in scaled] == pytest.approx([0.25, 0.75])
        with pytest.raises(ValueError):
            normalize_priors([IntentionPrior("a", -0.1), IntentionPrior("b", 1.1)])

    def test_sharper_temperature_concentrates_mass(self, imap):
        track = straight_track(n=10, x0=-60.0, y=0.0)
        flat = heuristic_exit_priors(track, imap, temperature=100.0)
        sharp = heuristic_exit_priors(track, imap, temperature=0.05)
        assert max(p.prior for p in sharp) > max(p.prior for p in flat)


class TestSearchPaths:
    def test_linear_chain_truncates_at_min_length(self, tmp_path):
        map_graph = chain_map(tmp_path)
        paths = search_paths("lane_a", obstacle_at(0.0, 0.3), map_graph, 50.0, 5)
        assert len(paths) == 1
        assert paths[0].lane_ids == ("lane_a", "lane_b")

    def test_fork_enumerates_both_branches(self, tmp_path):
        map_graph = chain_map(tmp_path, fork=True)
        paths = search_paths("lane_a", obstacle_at(0.0, 0.3), map_graph, 50.0, 5)
        assert sorted(p.lane_ids for p in paths) == [
            ("lane_a", "lane_b"),
            ("lane_a", "lane_c"),
        ]

    def test_cycle_terminates_without_repetition(self, tmp_path):
        map_graph = chain_map(tmp_path, cycle=True)
        paths = search_paths("lane_a", obstacle_at(0.0, 0.3), map_graph, 1000.0, 10)
        assert paths[0].lane_ids == ("lane_a", "lane_b")

    def test_off_map_obstacle_raises(self, tmp_path):
        # an opaque intention id needs the obstacle itself to associate
        map_graph = chain_map(tmp_path)
        with pytest.raises(AssociationError, match="associate"):
            search_paths("cruise", obstacle_at(0.0, 50.0), map_graph, 50.0, 5)

    def test_opaque_intention_roots_at_nearest_lane(self, tmp_path):
        map_graph = chain_map(tmp_path)
        paths = search_paths("cruise", obstacle_at(35.0, 0.4), map_graph, 40.0, 5)
        assert paths[0].lane_ids == ("lane_b", "lane_c")

    def test_curve_trimmed_to_projection(self, tmp_path):
        map_graph = chain_map(tmp_path)
        paths = search_paths("lane_a", obstacle_at(12.0, 0.5), map_graph, 40.0, 5)
        start = paths[0].curve.points[0]
        assert (start.x, start.y) == (12.0, 0.0)

    def test_exit_intention_routes_through_associated_lane(self, imap):
        paths = search_paths("exit_n", obstacle_at(-60.0, 0.0), imap, 60.0, 4)
        assert len(paths) == 1
        assert "ln_x_left" in paths[0].lane_ids
        assert paths[0].lane_ids[0] == "ln_approach_e"

    def test_exit_already_taken_continues_downstream(self, imap):
        # obstacle east of the intersection on the outbound lane: the straight
        # exit is behind it, so the path continues downstream from there
        paths = search_paths("exit_e", obstacle_at(20.0, 0.3), imap, 60.0, 4)
        assert len(paths) == 1
        assert paths[0].lane_ids == ("ln_out_e",)
        assert paths[0].curve.points[0].x == pytest.approx(20.0)

    def test_sideways_exit_intention_reroots_nearby(self, imap):
        # mid-turn obstacle, straight-exit hypothesis: rooted sequences never
        # reach the straight connector, so the search re-roots on it
        paths = search_paths("exit_e", obstacle_at(-10.0, 0.9), imap, 60.0, 4)
        assert len(paths) == 1
        assert paths[0].lane_ids == ("ln_x_straight", "ln_out_e")

    def test_unreachable_exit_intention_raises(self, imap):
        # obstacle on the outbound east lane cannot re-reach the north exit
        with pytest.raises(AssociationError, match="out of reach"):
            search_paths("exit_n", obstacle_at(20.0, 0.3), imap, 60.0, 4)

    def test_far_off_map_exit_intention_raises(self, imap):
        with pytest.raises(AssociationError):
            search_paths("exit_e", obstacle_at(500.0, 500.0), imap, 60.0, 4)

    def test_pinned_lane_sequence_intention(self, imap):
        paths = search_paths(
            "ln_approach_e->ln_x_straight", obstacle_at(-60.0, 0.0), imap, 200.0, 4
        )
        assert len(paths) == 1
        assert paths[0].lane_ids == ("ln_approach_e", "ln_x_straight", "ln_out_e")

    def test_pinned_sequence_requires_successor_link(self, imap):
        with pytest.raises(AssociationError, match="successor"):
            search_paths("ln_approach_e->ln_out_n", obstacle_at(-60.0, 0.0), imap, 50.0, 4)


class TestSampleProfiles:
    def test_all_within_limits(self):
        limits = KinematicLimits(a_min=-4.0, a_max=4.0, v_max=30.0)
        profiles = sample_profiles(10.0, [-2.0, 0.0, 2.0], 8.0, 0.1, limits)
        assert [p.a for p in profiles] == [-2.0, 0.0, 2.0]

    def test_out_of_limit_accelerations_dropped(self):
        limits = KinematicLimits(a_min=-4.0, a_max=4.0, v_max=30.0)
        assert sample_profiles(10.0, [-6.0], 8.0, 0.1, limits) == []

    def test_speed_clamps_match_closed_form_and_integration(self):
        rng = random.Random(17)
        for _ in range(20):
            v0 = rng.uniform(0.0, 20.0)
            a = rng.uniform(-5.0, 5.0)
            v_max = rng.uniform(5.0, 15.0)
            profile = SpeedProfile(v0=v0, a=a, duration=8.0, resolution=0.1, v_max=v_max)
            for t in (0.5, 1.7, 4.0, 8.0):
                _, v, _ = profile.state_at(t)
                assert v == pytest.approx(min(v_max, max(0.0, v0 + a * t)), abs=1e-12)


class TestSampleTimes:
    def test_grid_stops_at_the_duration(self):
        profile = SpeedProfile(v0=10.0, a=0.0, duration=0.38, resolution=0.1)
        assert profile.sample_times()[-1] <= 0.38

    @settings(max_examples=200, deadline=None)
    @given(resolution=st.floats(0.01, 1.0), steps=st.floats(1.0, 50.0))
    def test_candidate_times_equal_label_times(self, resolution, steps):
        horizon = resolution * steps
        path = PathCandidate("go", ("l",), Curve([(0, 0), (500, 0)]))
        profile = SpeedProfile(v0=10.0, a=0.0, duration=horizon, resolution=resolution)
        candidate = realize_trajectory(path, profile)
        label = label_future_trajectory(straight_track(n=2, dt=horizon + 1.0), 0.0, horizon, resolution)
        assert [p.t for p in candidate.points] == [t for t, _ in label.future_points]


class TestRealizeTrajectory:
    def _straight_path(self, length=500.0, intention="go"):
        return PathCandidate(
            intention_id=intention, lane_ids=("l",), curve=Curve([(0, 0), (length, 0)])
        )

    def test_uniform_motion_spacing(self):
        profile = SpeedProfile(v0=10.0, a=0.0, duration=3.0, resolution=0.1, v_max=30.0)
        traj = realize_trajectory(self._straight_path(), profile)
        assert len(traj.points) == 30
        for k, p in enumerate(traj.points, start=1):
            assert p.position.x == pytest.approx(1.0 * k, abs=1e-9)
            assert p.curvature == 0.0
            assert p.accel == 0.0

    def test_constant_acceleration_closed_form(self):
        profile = SpeedProfile(v0=5.0, a=2.0, duration=3.0, resolution=0.1, v_max=1e9)
        traj = realize_trajectory(self._straight_path(), profile)
        assert traj.points[-1].position.x == pytest.approx(24.0, abs=1e-9)

    def test_stops_and_saturates(self):
        profile = SpeedProfile(v0=2.0, a=-2.0, duration=3.0, resolution=0.1, v_max=30.0)
        traj = realize_trajectory(self._straight_path(), profile)
        assert traj.points[-1].position.x == pytest.approx(1.0, abs=1e-12)
        assert traj.points[-1].speed == 0.0
        assert traj.points[-1].accel == 0.0

    def test_arc_length_matches_fine_step_integration(self):
        rng = random.Random(41)
        for _ in range(20):
            v0 = rng.uniform(0.0, 20.0)
            a = rng.uniform(-5.0, 4.0)
            v_max = rng.uniform(4.0, 25.0)
            profile = SpeedProfile(v0=v0, a=a, duration=4.0, resolution=0.1, v_max=v_max)
            # midpoint-rule oracle at 1e-5 s steps
            h = 1e-5
            s_oracle = 0.0
            checkpoints = {}
            steps = int(round(4.0 / h))
            acc = []
            for i in range(steps):
                tm = (i + 0.5) * h
                acc.append(min(v_max, max(0.0, v0 + a * tm)))
                t_now = (i + 1) * h
                k = round(t_now / 0.1)
                if abs(t_now - k * 0.1) < h / 2 and k >= 1:
                    checkpoints[k] = math.fsum(acc) * h
            traj = realize_trajectory(self._straight_path(), profile)
            for k, p in enumerate(traj.points, start=1):
                assert abs(p.position.x - checkpoints[k]) < 1e-8

    def test_point_positions_stay_on_path(self, imap):
        profiles = sample_profiles(
            8.0, [-2.0, 0.0, 2.0], 4.0, 0.1, KinematicLimits(v_max=20.0)
        )
        paths = search_paths("exit_n", obstacle_at(-40.0, 0.0, speed=8.0), imap, 60.0, 4)
        for path in paths:
            for profile in profiles:
                traj = realize_trajectory(path, profile)
                for p in traj.points:
                    s, distance = project_point(path.curve, p.position)
                    if s < path.curve.length - 1e-6:
                        assert distance <= 1e-6

    def test_spacing_bounded_by_limits(self, imap):
        limits = KinematicLimits(a_min=-4.0, a_max=3.0, v_max=15.0)
        profiles = sample_profiles(10.0, [-4.0, -1.0, 0.0, 3.0], 4.0, 0.1, limits)
        path = self._straight_path()
        bound = limits.v_max * 0.1 + 0.5 * limits.a_max * 0.1**2
        for profile in profiles:
            traj = realize_trajectory(path, profile)
            prev = Point2(0.0, 0.0)
            for p in traj.points:
                assert prev.distance_to(p.position) <= bound + 1e-9
                prev = p.position

    def test_candidate_count_is_paths_times_profiles(self, imap):
        profiles = sample_profiles(
            10.0, [-2.0, -1.0, 0.0, 1.0], 4.0, 0.1, KinematicLimits()
        )
        state = obstacle_at(-60.0, 0.0)
        total = 0
        for intention in ("exit_e", "exit_n", "exit_s"):
            paths = search_paths(intention, state, imap, 60.0, 4)
            candidates = [realize_trajectory(p, pr) for p in paths for pr in profiles]
            assert len(candidates) == len(paths) * len(profiles)
            total += len(candidates)
        assert total == 12

    def test_overrun_extrapolates_past_path_end(self):
        short = PathCandidate(
            intention_id="go", lane_ids=("l",), curve=Curve([(0, 0), (5, 0)])
        )
        profile = SpeedProfile(v0=10.0, a=0.0, duration=2.0, resolution=0.1, v_max=30.0)
        traj = realize_trajectory(short, profile)
        assert traj.points[-1].position.x == pytest.approx(20.0, abs=1e-9)
        assert traj.points[-1].curvature == 0.0


class TestGenerationConfig:
    def test_roundtrip_from_file(self, tmp_path):
        doc = {
            "accel_set": [-2, 0, 1],
            "a_min": -6.0,
            "a_max": 4.0,
            "v_max": 25.0,
            "horizon_secs": 4.0,
            "resolution_secs": 0.1,
            "min_path_length_m": 60.0,
            "max_lanes": 4,
            "temperature": 1.0,
        }
        config = GenerationConfig.from_file(write_json(tmp_path / "gen.json", doc))
        assert config.accel_set == (-2.0, 0.0, 1.0)
        assert config.limits == KinematicLimits(a_min=-6.0, a_max=4.0, v_max=25.0)

    def test_horizon_shorter_than_resolution_rejected(self):
        with pytest.raises(ConfigError, match="horizon_secs"):
            GenerationConfig(horizon_secs=0.05, resolution_secs=0.1)

    def test_unknown_keys_rejected(self, tmp_path):
        path = write_json(tmp_path / "gen.json", {"acel_set": [1]})
        with pytest.raises(ConfigError, match="acel_set"):
            GenerationConfig.from_file(path)
