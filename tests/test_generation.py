import math
import os
import random
import re
from bisect import bisect_right
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import intersection_map_dict, straight_track, write_json, write_jsonl
from test_scene import reference_position_at
from trajpredict import jsonio
from trajpredict.annotation import (
    anchor_times,
    label_anchor,
    label_future_trajectory,
    load_dataset_records,
)
from trajpredict.autotune import extract_examples
from trajpredict.costing import (
    CostWeights,
    cost_collision,
    load_prediction_records,
    rank_intentions,
    total_cost,
)
from trajpredict.errors import AssociationError, ConfigError
from trajpredict.evaluation import evaluate_run
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
    _enumerate_sequences,
    sample_profiles,
    search_paths,
)
from trajpredict.geometry import Curve, Point2, project_point, vertex_curvatures
from trajpredict.scene import (
    DEFAULT_LATERAL_CAPTURE_M,
    EgoPlan,
    Lane,
    MapGraph,
    ObstacleState,
    load_ego_plan,
    load_map,
    load_scene,
    nearest_lane,
    time_grid,
)


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
        map_graph = chain_map(tmp_path)
        with pytest.raises(AssociationError, match="out of reach"):
            search_paths("lane_a", obstacle_at(0.0, 50.0), map_graph, 50.0, 5)

    @pytest.mark.parametrize("intention_id", ["cruise", "", "ln_approach_e->ln_x_lefty"])
    def test_an_id_naming_no_exit_and_no_lane_sequence_is_refused(self, imap, intention_id):
        message = f"intention {intention_id!r} names no exit and no lane sequence"
        with pytest.raises(AssociationError, match=f"^{re.escape(message)}$"):
            search_paths(intention_id, obstacle_at(-60.0, 0.0), imap, 60.0, 4)

    def test_curve_trimmed_to_projection(self, tmp_path):
        map_graph = chain_map(tmp_path)
        paths = search_paths("lane_a", obstacle_at(12.0, 0.5), map_graph, 40.0, 5)
        curve = paths[0].curve
        assert (curve.xs[0], curve.ys[0]) == (12.0, 0.0)

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
        assert paths[0].curve.xs[0] == pytest.approx(20.0)

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


def reference_reachable(map_graph, src, dst):
    """The search's per-call reachability test before the map kept a
    successor closure, kept as the reference the closure must match."""
    frontier = [src]
    seen = {src}
    while frontier:
        lane_id = frontier.pop()
        if lane_id == dst:
            return True
        for succ in map_graph.lanes[lane_id].successor_ids:
            if succ not in seen:
                seen.add(succ)
                frontier.append(succ)
    return False


def reference_exit_search(exit_id, start, map_graph, min_length, max_lanes):
    """search_paths' exit branch before the closure: reachability by
    reference_reachable, and the rooted sequences always enumerated before
    those missing the exit's lane are filtered out. Lane ids per path."""
    required_lane = map_graph.exits[exit_id].associated_lane_id

    def from_prefix(prefix, require=None):
        curve = map_graph.lanes[prefix[0]].centerline
        s0, distance = project_point(curve, start.position.x, start.position.y)
        if distance > DEFAULT_LATERAL_CAPTURE_M:
            raise AssociationError(
                f"intention {exit_id!r}: lanes {prefix[0]!r} "
                f"are out of reach for obstacle {start.obstacle_id!r}"
            )
        sequences = _enumerate_sequences(
            map_graph, prefix, curve.length - s0, min_length, max_lanes, require
        )
        return [seq for seq in sequences if require is None or require in seq]

    root = nearest_lane(map_graph, start.position.x, start.position.y)
    sequences = []
    if root is not None:
        require = required_lane
        if root == require or reference_reachable(map_graph, require, root):
            require = None
        sequences = from_prefix([root], require)
    if not sequences:
        sequences = from_prefix([required_lane])
    return sorted(set(sequences))


class TestSuccessorClosure:
    def test_matches_the_per_call_search_on_every_lane_pair(self):
        rng = random.Random(9)
        seen = dict.fromkeys(("self_loop", "cycle", "unreachable"), 0)
        for _ in range(500):
            ids = [f"l{k}" for k in range(rng.randint(1, 12))]
            density = rng.choice([0.05, 0.15, 0.4])
            lanes = {
                lane_id: Lane(
                    lane_id,
                    Curve([(k, 0.0), (k, 1.0)]),
                    tuple(succ for succ in ids if rng.random() < density),
                )
                for k, lane_id in enumerate(ids)
            }
            map_graph = MapGraph(lanes=lanes)
            for src in ids:
                for dst in ids:
                    reachable = reference_reachable(map_graph, src, dst)
                    assert (dst in map_graph.successor_closure[src]) == reachable
                    back = reference_reachable(map_graph, dst, src)
                    seen["cycle"] += src != dst and reachable and back
                    seen["unreachable"] += not reachable
                seen["self_loop"] += src in lanes[src].successor_ids
        assert min(seen.values()) >= 100, seen

    def test_exit_search_keeps_its_paths_and_errors(self, imap):
        outcomes = dict.fromkeys(("rooted", "re_rooted", "out_of_reach", "skipped"), 0)
        for exit_id in sorted(imap.exits):
            required = imap.exits[exit_id].associated_lane_id
            for i in range(-36, 37):
                for j in range(-36, 37):
                    start = obstacle_at(2.5 * i + 0.3, 2.5 * j + 0.1)
                    try:
                        expected = reference_exit_search(exit_id, start, imap, 60.0, 4)
                    except AssociationError as exc:
                        with pytest.raises(AssociationError) as got:
                            search_paths(exit_id, start, imap, 60.0, 4)
                        assert str(got.value) == str(exc)
                        outcomes["out_of_reach"] += 1
                        continue
                    paths = search_paths(exit_id, start, imap, 60.0, 4)
                    assert [p.lane_ids for p in paths] == expected
                    root = nearest_lane(imap, start.position.x, start.position.y)
                    outcomes["re_rooted" if expected[0][0] == required else "rooted"] += 1
                    outcomes["skipped"] += (
                        root is not None and required not in imap.successor_closure[root]
                    )
        assert min(outcomes.values()) >= 10, outcomes


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
            traj = realize_trajectory(PathCandidate(("l",), Curve([(0, 0), (1, 0)])), profile)
            for t, v in zip(traj.times, traj.speeds):
                assert v == pytest.approx(min(v_max, max(0.0, v0 + a * t)), abs=1e-12)


class TestSampleTimes:
    def test_grid_stops_at_the_duration(self):
        profile = SpeedProfile(v0=10.0, a=0.0, duration=0.38, resolution=0.1)
        assert profile.times[-1] <= 0.38

    @settings(max_examples=200, deadline=None)
    @given(resolution=st.floats(0.01, 1.0), steps=st.floats(1.0, 50.0))
    def test_candidate_times_equal_label_times(self, resolution, steps):
        horizon = resolution * steps
        path = PathCandidate(("l",), Curve([(0, 0), (500, 0)]))
        profile = SpeedProfile(v0=10.0, a=0.0, duration=horizon, resolution=resolution)
        candidate = realize_trajectory(path, profile)
        label = label_future_trajectory(straight_track(n=2, dt=horizon + 1.0), 0.0, horizon, resolution)
        assert list(candidate.times) == list(label.times)


class TestRealizeTrajectory:
    def _straight_path(self, length=500.0):
        return PathCandidate(lane_ids=("l",), curve=Curve([(0, 0), (length, 0)]))

    def test_uniform_motion_spacing(self):
        profile = SpeedProfile(v0=10.0, a=0.0, duration=3.0, resolution=0.1, v_max=30.0)
        traj = realize_trajectory(self._straight_path(), profile)
        assert len(traj.times) == 30
        for k, x in enumerate(traj.xs, start=1):
            assert x == pytest.approx(1.0 * k, abs=1e-9)
        assert set(traj.curvatures) == {0.0}
        assert set(traj.accels) == {0.0}

    def test_constant_acceleration_closed_form(self):
        profile = SpeedProfile(v0=5.0, a=2.0, duration=3.0, resolution=0.1, v_max=1e9)
        traj = realize_trajectory(self._straight_path(), profile)
        assert traj.xs[-1] == pytest.approx(24.0, abs=1e-9)

    def test_stops_and_saturates(self):
        profile = SpeedProfile(v0=2.0, a=-2.0, duration=3.0, resolution=0.1, v_max=30.0)
        traj = realize_trajectory(self._straight_path(), profile)
        assert traj.xs[-1] == pytest.approx(1.0, abs=1e-12)
        assert traj.speeds[-1] == 0.0
        assert traj.accels[-1] == 0.0

    def test_arc_length_matches_fine_step_integration(self):
        rng = random.Random(41)
        for _ in range(20):
            v0 = rng.uniform(0.0, 20.0)
            a = rng.uniform(-5.0, 4.0)
            v_max = rng.uniform(4.0, 25.0)
            profile = SpeedProfile(v0=v0, a=a, duration=4.0, resolution=0.1, v_max=v_max)
            # midpoint-rule oracle at 1e-5 s steps; each 0.1 s chunk is summed
            # exactly once and the distance at 0.1*k is the sum of k chunk sums
            h = 1e-5
            steps = int(round(4.0 / h))
            midpoints = (np.arange(steps) + 0.5) * h
            speeds = np.minimum(v_max, np.maximum(0.0, v0 + a * midpoints))
            chunk_sums = [math.fsum(chunk) for chunk in speeds.reshape(40, -1).tolist()]
            traj = realize_trajectory(self._straight_path(), profile)
            for k, x in enumerate(traj.xs, start=1):
                assert abs(x - math.fsum(chunk_sums[:k]) * h) < 1e-8

    def test_point_positions_stay_on_path(self, imap):
        limits = KinematicLimits(a_min=-6.0, a_max=4.0, v_max=20.0)
        profiles = sample_profiles(8.0, [-2.0, 0.0, 2.0], 4.0, 0.1, limits)
        paths = search_paths("exit_n", obstacle_at(-40.0, 0.0, speed=8.0), imap, 60.0, 4)
        for path in paths:
            for profile in profiles:
                traj = realize_trajectory(path, profile)
                for x, y in zip(traj.xs, traj.ys):
                    s, distance = project_point(path.curve, x, y)
                    if s < path.curve.length - 1e-6:
                        assert distance <= 1e-6

    def test_spacing_bounded_by_limits(self, imap):
        limits = KinematicLimits(a_min=-4.0, a_max=3.0, v_max=15.0)
        profiles = sample_profiles(10.0, [-4.0, -1.0, 0.0, 3.0], 4.0, 0.1, limits)
        path = self._straight_path()
        bound = limits.v_max * 0.1 + 0.5 * limits.a_max * 0.1**2
        for profile in profiles:
            traj = realize_trajectory(path, profile)
            prev = (0.0, 0.0)
            for position in zip(traj.xs, traj.ys):
                assert math.dist(prev, position) <= bound + 1e-9
                prev = position

    def test_candidate_count_is_paths_times_profiles(self, imap):
        limits = KinematicLimits(a_min=-6.0, a_max=4.0, v_max=25.0)
        profiles = sample_profiles(10.0, [-2.0, -1.0, 0.0, 1.0], 4.0, 0.1, limits)
        state = obstacle_at(-60.0, 0.0)
        total = 0
        for intention in ("exit_e", "exit_n", "exit_s"):
            paths = search_paths(intention, state, imap, 60.0, 4)
            candidates = [realize_trajectory(p, pr) for p in paths for pr in profiles]
            assert len(candidates) == len(paths) * len(profiles)
            total += len(candidates)
        assert total == 12

    def test_overrun_extrapolates_past_path_end(self):
        short = PathCandidate(lane_ids=("l",), curve=Curve([(0, 0), (5, 0)]))
        profile = SpeedProfile(v0=10.0, a=0.0, duration=2.0, resolution=0.1, v_max=30.0)
        traj = realize_trajectory(short, profile)
        assert traj.xs[-1] == pytest.approx(20.0, abs=1e-9)
        assert traj.curvatures[-1] == 0.0


# The per-point composition realize_trajectory replaced, kept as the
# reference it must match bit for bit: SpeedProfile.state_at, then
# point_at_s, then curvature_at_s, each solving one point from scratch.
def reference_state_at(profile, t):
    def speed_at(t):
        return min(profile.v_max, max(0.0, profile.v0 + profile.a * t))

    breaks = [0.0, t]
    if profile.a != 0.0:
        for bound in (0.0, profile.v_max):
            tc = (bound - profile.v0) / profile.a
            if 0.0 < tc < t:
                breaks.append(tc)
    breaks.sort()
    s = 0.0
    for t0, t1 in zip(breaks, breaks[1:]):
        s += 0.5 * (speed_at(t0) + speed_at(t1)) * (t1 - t0)
    v = speed_at(t)
    return s, v, profile.a if 0.0 < v < profile.v_max else 0.0


def reference_segment_index(curve, s):
    i = bisect_right(curve.cumulative_s, s) - 1
    return min(max(i, 0), len(curve.xs) - 2)


def reference_point_at_s(curve, s):
    i = reference_segment_index(curve, s)
    ax, ay, bx, by = curve.xs[i], curve.ys[i], curve.xs[i + 1], curve.ys[i + 1]
    seg = curve.cumulative_s[i + 1] - curve.cumulative_s[i]
    t = (s - curve.cumulative_s[i]) / seg
    return ax + t * (bx - ax), ay + t * (by - ay)


def reference_curvature_at_s(curve, s):
    if len(curve.xs) < 3 or s > curve.length:
        return 0.0
    i = reference_segment_index(curve, s)
    cum = curve.cumulative_s
    k = i if (s - cum[i]) <= (cum[i + 1] - s) else i + 1
    k = min(max(k, 1), len(curve.xs) - 2)
    return vertex_curvatures(curve.xs[k - 1 : k + 2], curve.ys[k - 1 : k + 2])[1]


def reference_rows(curve, profile):
    rows = []
    for t in time_grid(profile.duration, profile.resolution):
        s, v, a_eff = reference_state_at(profile, t)
        x, y = reference_point_at_s(curve, s)
        rows.append((t, x, y, v, reference_curvature_at_s(curve, s), a_eff))
    return rows


# Segment directions with exact unit lengths (3-4-5 triangles), so integer
# multiples give integer arc lengths and dyadic speeds and times land on
# vertices and on segment midpoints.
LATTICE_STEPS = [(1, 0), (0, 1), (-1, 0), (0, -1), (0.6, 0.8), (0.8, 0.6), (-0.6, 0.8), (0.8, -0.6)]


def lattice_curve(rng):
    x = y = 0.0
    pts = [(x, y)]
    for _ in range(rng.randint(1, 6)):
        dx, dy = rng.choice(LATTICE_STEPS)
        n = 5 * rng.randint(1, 3)
        x, y = x + n * dx, y + n * dy
        if (x, y) in pts:
            continue
        pts.append((x, y))
    if len(pts) < 2:
        pts.append((x + 5.0, y))
    return Curve(pts)


def random_curve(rng):
    x, y = rng.uniform(-50, 50), rng.uniform(-50, 50)
    pts = [(x, y)]
    for _ in range(rng.randint(1, 8)):
        heading = rng.uniform(-math.pi, math.pi)
        step = rng.uniform(0.5, 15.0)
        x, y = x + step * math.cos(heading), y + step * math.sin(heading)
        pts.append((x, y))
    return Curve(pts)


def oracle_profile(rng, kind):
    duration = rng.choice([0.5, 1.0, 2.0, 3.0])
    if kind == "random":
        return SpeedProfile(
            v0=rng.uniform(0.0, 20.0),
            a=rng.uniform(-6.0, 4.0),
            duration=rng.uniform(0.1, 3.0),
            resolution=rng.uniform(0.05, 0.5),
            v_max=rng.choice([math.inf, rng.uniform(2.0, 25.0)]),
        )
    if kind == "over_v_max":
        v_max = rng.uniform(1.0, 15.0)
        a = rng.choice([0.0, 0.0, rng.uniform(-4.0, 4.0)])
        return SpeedProfile(v_max + rng.uniform(0.1, 10.0), a, duration, 0.1, v_max)
    resolution = rng.choice([0.25, 0.5])
    if kind == "crossing_on_grid":
        tc = resolution * rng.randint(1, int(duration / resolution))
        a = rng.choice([0.5, 1.0, 2.0, 4.0])
        if rng.random() < 0.5:  # stops at tc
            return SpeedProfile(a * tc, -a, duration, resolution, rng.choice([math.inf, 30.0]))
        v0 = rng.choice([0.0, 1.0, 2.5])
        return SpeedProfile(v0, a, duration, resolution, v0 + a * tc)  # saturates at tc
    # "lattice": dyadic arc lengths at dyadic times
    return SpeedProfile(rng.choice([1.0, 2.0, 2.5, 5.0, 10.0]), 0.0, duration, resolution)


class TestRealizationOracle:
    def test_matches_the_per_point_composition_bit_for_bit(self):
        rng = random.Random(20201)
        seen = dict.fromkeys(
            ("over_v_max_a0", "crossing_on_grid", "past_end", "on_vertex", "midpoint_tie"), 0
        )
        kinds = ["random", "over_v_max", "crossing_on_grid", "lattice"]
        for n in range(10_000):
            kind = kinds[n % len(kinds)]
            lattice = kind in ("lattice", "crossing_on_grid")
            curve = lattice_curve(rng) if lattice else random_curve(rng)
            profile = oracle_profile(rng, kind)
            expected = reference_rows(curve, profile)
            traj = realize_trajectory(PathCandidate(("l",), curve), profile)
            got = list(zip(traj.times, traj.xs, traj.ys, traj.speeds, traj.curvatures, traj.accels))
            assert got == expected, (curve.xs, curve.ys, profile)

            times = profile.times
            arcs = [reference_state_at(profile, t)[0] for t in times]
            cum = curve.cumulative_s
            seen["over_v_max_a0"] += profile.v0 > profile.v_max and profile.a == 0.0
            if profile.a != 0.0:
                crossings = [(b - profile.v0) / profile.a for b in (0.0, profile.v_max)]
                seen["crossing_on_grid"] += any(tc in times for tc in crossings)
            seen["past_end"] += any(s > curve.length for s in arcs)
            seen["on_vertex"] += any(s in cum[1:] for s in arcs)
            seen["midpoint_tie"] += any(
                cum[i] < s < cum[i + 1] and s - cum[i] == cum[i + 1] - s
                for s in arcs
                for i in [bisect_right(cum, s) - 1]
                if i < len(cum) - 1
            )
        assert min(seen.values()) >= 100, seen


def reference_breakdown(curve, profile, ego, anchor_time, weights):
    """Sub-costs and total of one candidate as costing composed them per
    point before trajectories were columns: each realized row's distance to
    the ego pose at its absolute time, exp(-d*d), and fsum."""
    rows = reference_rows(curve, profile)
    c_acc = math.fsum(a * a for *_, a in rows)
    c_centripetal = math.fsum((v * v * k) ** 2 for _, _, _, v, k, _ in rows) / weights.z1
    c_collision = 0.0
    if ego is not None:
        terms = []
        for t, x, y, *_ in rows:
            q = reference_position_at(ego, anchor_time + t)
            d = math.hypot(x - q.x, y - q.y)
            terms.append(math.exp(-d * d))
        c_collision = math.fsum(terms) / weights.z2
    total = (
        weights.theta_acc * c_acc
        + weights.theta_centripetal * c_centripetal
        + weights.theta_collision * c_collision
    )
    return rows, (c_acc, c_centripetal, c_collision, total)


def coordinates(low, high):
    return st.floats(low, high, allow_nan=False, allow_infinity=False)


@st.composite
def oracle_cases(draw):
    """A random curve, speed profile, anchor time, weights and (or no) ego
    plan whose poses pass within a few meters of the curve's start."""
    x, y = draw(coordinates(-50.0, 50.0)), draw(coordinates(-50.0, 50.0))
    points = [(x, y)]
    for heading, step in draw(
        st.lists(st.tuples(coordinates(-math.pi, math.pi), coordinates(0.5, 15.0)), min_size=1, max_size=8)
    ):
        x, y = x + step * math.cos(heading), y + step * math.sin(heading)
        points.append((x, y))
    profile = SpeedProfile(
        v0=draw(coordinates(0.0, 20.0)),
        a=draw(coordinates(-6.0, 4.0)),
        duration=draw(coordinates(0.1, 3.0)),
        resolution=draw(coordinates(0.05, 0.5)),
        v_max=draw(st.one_of(st.just(math.inf), coordinates(2.0, 25.0))),
    )
    ego = None
    pose_times = draw(st.lists(coordinates(-5.0, 15.0), min_size=1, max_size=6, unique=True))
    if draw(st.booleans()):
        x0, y0 = points[0]
        poses = [
            (x0 + draw(coordinates(-3.0, 3.0)), y0 + draw(coordinates(-3.0, 3.0)))
            for _ in pose_times
        ]
        ego = EgoPlan(tuple(sorted(pose_times)), *zip(*poses))
    weights = CostWeights(
        draw(coordinates(0.0, 3.0)),
        draw(coordinates(0.0, 3.0)),
        draw(coordinates(0.0, 3.0)),
        z1=draw(coordinates(0.5, 5000.0)),
        z2=draw(coordinates(0.5, 50.0)),
    )
    return Curve(points), profile, draw(coordinates(-2.0, 5.0)), weights, ego


class TestColumnarCosting:
    @settings(max_examples=300, deadline=None)
    @given(case=oracle_cases())
    def test_realize_and_cost_match_the_per_point_composition_bit_for_bit(self, case):
        curve, profile, anchor_time, weights, ego = case
        rows, expected = reference_breakdown(curve, profile, ego, anchor_time, weights)
        traj = realize_trajectory(PathCandidate(("l",), curve), profile)
        columns = zip(traj.times, traj.xs, traj.ys, traj.speeds, traj.curvatures, traj.accels)
        assert list(columns) == rows
        ego_xy = None if ego is None else ego.positions_at([anchor_time + t for t in traj.times])
        assert total_cost(traj, ego_xy, weights) == expected
        if ego is not None:
            assert cost_collision(traj, ego, weights.z2, anchor_time) == expected[2]

    def test_realizing_and_ranking_build_no_point2(self, imap):
        limits = KinematicLimits(a_min=-6.0, a_max=4.0, v_max=25.0)
        profiles = sample_profiles(8.0, [-2.0, 0.0, 2.0], 4.0, 0.1, limits)
        state = obstacle_at(-40.0, 0.0, speed=8.0)
        ego = EgoPlan((0.0, 10.0), (-30.0, 30.0), (1.0, 1.0))
        priors = [IntentionPrior("exit_e", 0.5), IntentionPrior("exit_n", 0.5)]
        paths = {p.intention_id: search_paths(p.intention_id, state, imap, 60.0, 4) for p in priors}
        no_point2 = mock.patch.object(Point2, "__post_init__", side_effect=AssertionError("Point2"))
        with no_point2:
            with pytest.raises(AssertionError, match="Point2"):
                Point2(0.0, 0.0)
            candidates = {
                intention: [realize_trajectory(path, profile) for path in found for profile in profiles]
                for intention, found in paths.items()
            }
            result = rank_intentions("veh", 1.0, candidates, priors, ego, CostWeights())
        assert sum(len(c) for c in candidates.values()) == 3 * sum(map(len, paths.values()))
        assert result.selected_intention in ("exit_e", "exit_n")

    def test_lane_search_and_tuning_build_no_point2(self, imap):
        tests = os.path.dirname(__file__)
        golden = lambda name: os.path.join(tests, "golden", name)
        state = obstacle_at(-40.0, 0.0, speed=8.0)
        ego = load_ego_plan(os.path.join(tests, "fixtures", "ego.jsonl"))
        predictions = load_prediction_records(golden("predictions.jsonl"))
        dataset = load_dataset_records(golden("dataset.jsonl"))
        no_point2 = mock.patch.object(Point2, "__post_init__", side_effect=AssertionError("Point2"))
        with no_point2:
            paths = {exit_id: search_paths(exit_id, state, imap, 60.0, 4) for exit_id in imap.exits}
            examples, skipped = extract_examples(predictions, dataset, ego)
        assert sorted(paths) == ["exit_e", "exit_n", "exit_s"] and all(paths.values())
        # the cut at the obstacle is a new first vertex, not a vertex of the map
        starts = {(p.curve.xs[0], p.curve.ys[0]) for found in paths.values() for p in found}
        assert starts == {(-40.0, 0.0)}
        assert (len(examples), skipped) == (16, 6)

    def test_labeling_and_exit_priors_build_no_point2(self):
        tests = os.path.dirname(__file__)
        fixture = lambda name: os.path.join(tests, "fixtures", name)
        tracks, map_graph, _ = load_scene(fixture("obstacles.jsonl"), fixture("map.json"))
        priors = [heuristic_exit_priors(track, map_graph) for track in tracks]
        no_point2 = mock.patch.object(Point2, "__post_init__", side_effect=AssertionError("Point2"))
        with no_point2:
            labelled = [
                label_anchor(track, anchor, map_graph, road_test_id="obstacles", horizon=3.0)
                for track in tracks
                for anchor in anchor_times(track, 1.0)
            ]
            records = [r for r in labelled if r is not None]
            skipped = labelled.count(None)
            assert [heuristic_exit_priors(track, map_graph) for track in tracks] == priors
        assert len(priors) == 2 and skipped > 0
        with open(os.path.join(tests, "golden", "dataset.jsonl"), encoding="utf-8") as fh:
            assert "".join(jsonio.dumps(r) + "\n" for r in records) == fh.read()

    def test_loading_the_ego_plan_and_evaluating_build_no_point2(self):
        tests = os.path.dirname(__file__)
        golden = lambda name: os.path.join(tests, "golden", name)
        no_point2 = mock.patch.object(Point2, "__post_init__", side_effect=AssertionError("Point2"))
        with no_point2:
            ego = load_ego_plan(os.path.join(tests, "fixtures", "ego.jsonl"))
            report = evaluate_run(
                load_prediction_records(golden("predictions.jsonl")),
                load_dataset_records(golden("dataset.jsonl")),
                [1.0, 3.0],
            )
        assert len(ego.times) == len(ego.xs) == len(ego.ys) > 1
        with open(golden("report.json"), encoding="utf-8") as fh:
            assert jsonio.dumps(report) + "\n" == fh.read()

    def test_a_non_finite_coordinate_is_refused(self):
        # the curve's length overflows, so the lerp gives 0 * inf
        curve = Curve([(-1e308, 0.0), (1e308, 0.0)])
        assert curve.length == math.inf
        profile = SpeedProfile(v0=10.0, a=0.0, duration=1.0, resolution=0.1)
        with pytest.raises(ValueError, match="non-finite coordinates"):
            realize_trajectory(PathCandidate(("l",), curve), profile)


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

    def test_empty_accel_set_rejected(self):
        with pytest.raises(ConfigError, match="^accel_set must be nonempty$"):
            GenerationConfig(accel_set=())

    @pytest.mark.parametrize("accel_set", [(5.0,), (-6.5, 4.5)])
    def test_accel_set_without_an_admissible_acceleration_rejected(self, accel_set):
        with pytest.raises(ConfigError, match=r"no acceleration within \[a_min, a_max\] = \[-6.0, 4.0\]"):
            GenerationConfig(accel_set=accel_set)

    def test_accel_set_with_one_admissible_acceleration_accepted(self):
        assert GenerationConfig(accel_set=(5.0, 4.0, -7.0)).accel_set == (5.0, 4.0, -7.0)
