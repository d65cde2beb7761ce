import math
import os
import random
from bisect import bisect_right

import pytest

from conftest import make_track, write_json, write_jsonl
from trajpredict import scene
from trajpredict.errors import CoverageError, ParseError, SceneIntegrityError
from trajpredict.geometry import Curve, Point2, project_point
from trajpredict.scene import (
    DEFAULT_LATERAL_CAPTURE_M,
    MAX_GRID_TIMES,
    EgoPlan,
    Lane,
    MapGraph,
    load_map,
    load_obstacle_log,
    load_scene,
    nearest_lane,
    time_grid,
)


def state_row(obstacle_id, t, x, y, heading=0.0, speed=5.0):
    return {"obstacle_id": obstacle_id, "t": t, "x": x, "y": y, "heading": heading, "speed": speed}


class TestLoadScene:
    def test_fixture_scene(self, tmp_path):
        log = write_jsonl(
            tmp_path / "log.jsonl",
            [
                state_row("b", 0.0, 0.0, 0.0),
                state_row("a", 0.0, 1.0, 1.0),
                state_row("a", 0.5, 2.0, 1.0),
                state_row("b", 0.5, 0.5, 0.0),
            ],
        )
        map_doc = {
            "lanes": [
                {"id": "l1", "centerline": [[0, 0], [10, 0]], "successors": ["l2"]},
                {"id": "l2", "centerline": [[10, 0], [20, 0]], "successors": ["l3"]},
                {"id": "l3", "centerline": [[20, 0], [30, 0]], "successors": []},
            ],
            "exits": [],
        }
        map_path = write_json(tmp_path / "map.json", map_doc)
        tracks, map_graph, ego = load_scene(log, map_path)
        assert [t.obstacle_id for t in tracks] == ["a", "b"]
        assert len(map_graph.lanes) == 3
        assert ego is None
        assert tracks[0].states[0].timestamp == 0.0

    def test_out_of_order_rows_resorted(self, tmp_path):
        log = write_jsonl(
            tmp_path / "log.jsonl",
            [state_row("a", 1.0, 1.0, 0.0), state_row("a", 0.0, 0.0, 0.0)],
        )
        (track,) = load_obstacle_log(log)
        assert [st.timestamp for st in track.states] == [0.0, 1.0]

    def test_duplicate_timestamps_error_names_obstacle(self, tmp_path):
        log = write_jsonl(
            tmp_path / "log.jsonl",
            [state_row("veh_7", 1.0, 1.0, 0.0), state_row("veh_7", 1.0, 2.0, 0.0)],
        )
        with pytest.raises(SceneIntegrityError, match="veh_7"):
            load_obstacle_log(log)

    def test_dangling_successor_error_names_lane(self, tmp_path):
        doc = {"lanes": [{"id": "l1", "centerline": [[0, 0], [1, 0]], "successors": ["ghost"]}]}
        with pytest.raises(SceneIntegrityError, match="ghost"):
            load_map(write_json(tmp_path / "map.json", doc))

    def test_dangling_exit_lane_error(self, tmp_path):
        doc = {
            "lanes": [{"id": "l1", "centerline": [[0, 0], [1, 0]], "successors": []}],
            "exits": [{"id": "e1", "x": 0, "y": 0, "heading": 0.0, "lane_id": "nope"}],
        }
        with pytest.raises(SceneIntegrityError, match="nope"):
            load_map(write_json(tmp_path / "map.json", doc))

    def test_parse_error_carries_line_number(self, tmp_path):
        path = tmp_path / "log.jsonl"
        path.write_text('{"obstacle_id": "a", "t": 0, "x": 0, "y": 0, "heading": 0, "speed": 1}\nnot json\n')
        with pytest.raises(ParseError, match=r":2:"):
            load_obstacle_log(str(path))

    def test_missing_key_reported(self, tmp_path):
        log = write_jsonl(tmp_path / "log.jsonl", [{"obstacle_id": "a", "t": 0, "x": 0, "y": 0}])
        with pytest.raises(ParseError, match="heading"):
            load_obstacle_log(log)

    def test_negative_speed_rejected(self, tmp_path):
        log = write_jsonl(tmp_path / "log.jsonl", [state_row("a", 0.0, 0.0, 0.0, speed=-1.0)])
        with pytest.raises(ParseError, match="speed"):
            load_obstacle_log(log)

    def test_heading_wrapped_on_ingest(self, tmp_path):
        log = write_jsonl(tmp_path / "log.jsonl", [state_row("a", 0.0, 0.0, 0.0, heading=3 * math.pi)])
        (track,) = load_obstacle_log(log)
        assert track.states[0].heading == pytest.approx(math.pi)

    def test_unread_keys_are_ignored(self, tmp_path):
        row = state_row("a", 0.0, 0.0, 0.0)
        log = write_jsonl(tmp_path / "plain.jsonl", [row])
        extra = write_jsonl(tmp_path / "extra.jsonl", [{**row, "polygon": "not a polygon"}])
        assert load_obstacle_log(extra) == load_obstacle_log(log)
        lane = {"id": "l1", "centerline": [[0, 0], [1, 0]], "speed_limit": "fast"}
        exits = [
            {"id": "e1", "x": 1, "y": 0, "lane_id": "l1"},
            {"id": "e2", "x": 1, "y": 0, "lane_id": "l1", "heading": "east"},
        ]
        doc = {"lanes": [lane], "exits": exits, "intersection_polygon": 5}
        map_graph = load_map(write_json(tmp_path / "map.json", doc))
        assert list(map_graph.lanes) == ["l1"]
        assert sorted(map_graph.exits) == ["e1", "e2"]

    def test_deterministic_reload(self, tmp_path):
        rows = [state_row("a", k * 0.1, k * 1.0, 0.5, 0.1, 3.0) for k in range(20)]
        log = write_jsonl(tmp_path / "log.jsonl", rows)
        first = load_obstacle_log(log)
        second = load_obstacle_log(log)
        assert first == second

    def test_states_roundtrip_bit_identically(self, tmp_path):
        rows = [
            state_row("a", 0.1 * k, -7.25 + 0.37 * k, 1e-3 * k, 0.123456789, 4.2)
            for k in range(10)
        ]
        log = write_jsonl(tmp_path / "log.jsonl", rows)
        (track,) = load_obstacle_log(log)
        rewritten = write_jsonl(
            tmp_path / "log2.jsonl",
            [
                state_row(s.obstacle_id, s.timestamp, s.position.x, s.position.y, s.heading, s.speed)
                for s in track.states
            ],
        )
        (reloaded,) = load_obstacle_log(rewritten)
        assert reloaded == track


class TestTimeGrid:
    def test_stops_at_the_span(self):
        assert time_grid(0.38, 0.1) == [0.1, 2 * 0.1, 3 * 0.1]

    def test_rounding_below_a_multiple_keeps_the_last_step(self):
        assert 0.3 / 0.1 < 3.0
        assert len(time_grid(0.3, 0.1)) == 3

    def test_step_must_be_positive(self):
        with pytest.raises(ValueError):
            time_grid(1.0, 0.0)

    def test_tolerance_is_in_seconds(self):
        # a last time up to TIME_EPS seconds past the stop is kept, one further is not
        assert time_grid(4.0 - 1.5e-9, 2.0) == [2.0]
        assert time_grid(0.3 - 5e-10, 0.1) == [0.1, 2 * 0.1, 3 * 0.1]

    def test_matches_the_rule_at_the_edge_of_the_tolerance(self):
        rng = random.Random(11)
        for _ in range(20_000):
            step = 10 ** rng.uniform(-3, 1)
            # stop + TIME_EPS within a float spacing or two of start + k*step; at
            # epoch-like times TIME_EPS is below the spacing and is lost
            start = rng.choice([0.0, rng.uniform(-100.0, 100.0), rng.uniform(1e9, 2e9)])
            end = start + rng.randint(1, 300) * step
            spacing = math.ulp(end) * rng.choice([-1, 0, 1])
            stop = end + spacing - rng.choice([1e-9, 0.0])
            expected, k = [], 1
            while start + k * step <= stop + 1e-9:
                expected.append(start + k * step)
                k += 1
            assert time_grid(stop, step, start) == expected

    def test_start_offsets_every_time(self):
        assert time_grid(2.0, 0.5, start=0.75) == [1.25, 1.75]
        assert time_grid(1.0, 0.5, start=3.0) == []

    def test_grid_longer_than_the_ceiling_is_refused(self):
        assert len(time_grid(float(MAX_GRID_TIMES), 1.0)) == MAX_GRID_TIMES
        with pytest.raises(ValueError, match="more than"):
            time_grid(MAX_GRID_TIMES + 1.0, 1.0)
        with pytest.raises(ValueError, match="more than"):
            time_grid(1e12, 0.1)

    def test_step_lost_to_rounding_is_refused(self):
        # 1e20 + 1.0 rounds back to 1e20, so every time would repeat
        with pytest.raises(ValueError, match="lost to rounding"):
            time_grid(1e20, 1.0, start=1e20)
        with pytest.raises(ValueError, match="lost to rounding"):
            time_grid(1e100, 1.0)


class TestTrackInterpolation:
    def test_outside_span_is_coverage_error(self):
        track = make_track("a", [(0.0, 0.0, 0.0, 0.0, 5.0), (1.0, 5.0, 0.0, 0.0, 5.0)])
        for lookup in (track.position_at, track.state_at):
            with pytest.raises(CoverageError):
                lookup(1.5)

    def test_single_state_track_answers_at_its_time(self):
        track = make_track("a", [(2.0, 3.0, 4.0, 0.0, 5.0)])
        assert track.position_at(2.0) == Point2(3.0, 4.0)
        assert track.state_at(2.0) is track.states[0]

    def test_state_at_exact_timestamp(self):
        track = make_track("a", [(0.0, 0.0, 0.0, 0.0, 5.0), (1.0, 5.0, 0.0, 0.0, 5.0)])
        st = track.state_at(1.0)
        assert (st.position.x, st.speed) == (5.0, 5.0)

    def test_position_matches_dense_linear_oracle(self):
        rng = random.Random(3)
        rows = []
        t, x, y = 0.0, 0.0, 0.0
        for _ in range(12):
            rows.append((t, x, y, 0.0, 1.0))
            t += rng.uniform(0.1, 0.5)
            x += rng.uniform(-2, 2)
            y += rng.uniform(-2, 2)
        track = make_track("a", rows)
        for _ in range(50):
            q = rng.uniform(rows[0][0], rows[-1][0])
            times = [r[0] for r in rows]
            i = max(0, min(len(times) - 2, next(k for k in range(len(times) - 1) if times[k + 1] >= q)))
            u = (q - times[i]) / (times[i + 1] - times[i])
            expect_x = rows[i][1] + u * (rows[i + 1][1] - rows[i][1])
            expect_y = rows[i][2] + u * (rows[i + 1][2] - rows[i][2])
            p = track.position_at(q)
            assert p.x == pytest.approx(expect_x, abs=1e-12)
            assert p.y == pytest.approx(expect_y, abs=1e-12)

    def test_heading_interpolates_across_wrap(self):
        track = make_track(
            "a", [(0.0, 0.0, 0.0, math.pi - 0.1, 1.0), (1.0, 1.0, 0.0, -math.pi + 0.1, 1.0)]
        )
        st = track.state_at(0.5)
        assert abs(st.heading) == pytest.approx(math.pi, abs=1e-9)


def reference_position_at(ego, t):
    """EgoPlan.position_at before the plan was interpolated in bulk, kept as
    the reference positions_at must match bit for bit."""
    if t <= ego.times[0]:
        return Point2(ego.xs[0], ego.ys[0])
    if t >= ego.times[-1]:
        return Point2(ego.xs[-1], ego.ys[-1])
    i = min(max(bisect_right(ego.times, t) - 1, 0), len(ego.times) - 2)
    u = (t - ego.times[i]) / (ego.times[i + 1] - ego.times[i])
    u = min(max(u, 0.0), 1.0)
    a, b = Point2(ego.xs[i], ego.ys[i]), Point2(ego.xs[i + 1], ego.ys[i + 1])
    return Point2(a.x + u * (b.x - a.x), a.y + u * (b.y - a.y))


class TestEgoPlan:
    def test_interpolation_and_clamping(self):
        ego = EgoPlan((0.0, 2.0), (0, 4), (0, 0))
        (before, inside, after), ys = ego.positions_at([-5.0, 1.0, 99.0])
        assert inside == pytest.approx(2.0)
        assert before == 0.0
        assert after == 4.0
        assert ys == [0.0, 0.0, 0.0]

    def test_end_poses_are_returned_exactly(self):
        # a lerp at u = 1 gives 0.2 + (0.9 - 0.2) = 0.8999999999999999, not 0.9
        ego = EgoPlan((0.0, 1.0), (0.2, 0.9), (-0.2, -0.9))
        assert ego.positions_at([0.0, 1.0, 5.0]) == ([0.2, 0.9, 0.9], [-0.2, -0.9, -0.9])

    def test_descending_query_times_rejected(self):
        ego = EgoPlan((0.0, 2.0), (0, 4), (0, 0))
        with pytest.raises(ValueError, match="ascend"):
            ego.positions_at([1.0, 0.5])

    def test_matches_the_per_time_interpolation_bit_for_bit(self):
        rng = random.Random(8)
        seen = dict.fromkeys(("before", "after", "on_pose", "one_pose"), 0)
        for _ in range(2_000):
            n = rng.choice([1, 1, 2, 3, 5, 12])
            if rng.random() < 0.5:
                times = sorted(rng.sample(range(-20, 40), n))
            else:
                times = sorted({rng.uniform(-10.0, 20.0) for _ in range(n)})
            poses = [(rng.uniform(-50, 50), rng.uniform(-50, 50)) for _ in times]
            ego = EgoPlan(tuple(times), *zip(*poses))
            anchor = rng.choice([0.0, 0.5, rng.uniform(-5.0, 5.0)])
            grid = time_grid(rng.uniform(1.0, 30.0), rng.choice([0.1, 0.5, 1.0]))
            queries = sorted([anchor + t for t in grid] + rng.sample(times, min(len(times), 3)))
            expected = [reference_position_at(ego, t) for t in queries]
            assert ego.positions_at(queries) == ([p.x for p in expected], [p.y for p in expected])
            seen["before"] += queries[0] < times[0]
            seen["after"] += queries[-1] > times[-1]
            seen["on_pose"] += any(times[0] < t < times[-1] and t in times for t in queries)
            seen["one_pose"] += n == 1
        assert min(seen.values()) >= 100, seen

    def test_non_monotonic_rejected(self):
        with pytest.raises(SceneIntegrityError):
            EgoPlan((1.0, 1.0), (0, 1), (0, 0))

    def test_empty_plan_rejected(self):
        with pytest.raises(ValueError, match="no poses"):
            EgoPlan((), (), ())

    @pytest.mark.parametrize("x, y", [(math.nan, 0.0), (0.0, math.inf), (-math.inf, 1.0)])
    def test_non_finite_coordinate_rejected(self, x, y):
        with pytest.raises(ValueError, match="non-finite"):
            EgoPlan((0.0, 1.0), (0.0, x), (0.0, y))


def reference_nearest_lane(map_graph, position, lateral_capture=DEFAULT_LATERAL_CAPTURE_M):
    """nearest_lane before the box prefilter: every lane projected, in id
    order; kept as the reference nearest_lane must match."""
    best = None
    for lane_id in sorted(map_graph.lanes):
        _, distance = project_point(map_graph.lanes[lane_id].centerline, position)
        if distance > lateral_capture:
            continue
        if best is None or distance < best[0]:
            best = (distance, lane_id)
    return best[1] if best else None


def oracle_vertices(rng, kind, scale):
    if kind == "lattice":  # small integer vertices: exact distances and equidistant lanes
        x, y = rng.randint(-4, 4), rng.randint(-4, 4)
        pts = [(x, y)]
        for _ in range(rng.randint(1, 3)):
            dx, dy = rng.choice([(1, 0), (0, 1), (-1, 0), (0, -1), (1, 1)])
            n = rng.randint(1, 4)
            x, y = x + n * dx, y + n * dy
            pts.append((x, y))
        return pts
    if kind == "wide":
        # an axis-aligned segment from a, across the origin, to the nearer end b:
        # b - a rounds coarser than b, so a + (b - a) can round beyond b
        y, sign = rng.uniform(-scale, scale), rng.choice((-1.0, 1.0))
        ends = [-sign * rng.uniform(0.5, 1.0) * scale, sign * rng.uniform(0.25, 0.5) * scale]
        pts = [(x, y) for x in ends]
        return [(py, px) for px, py in pts] if rng.random() < 0.5 else pts
    cx, cy = rng.uniform(-scale, scale), rng.uniform(-scale, scale)  # "local"
    return [
        (cx + rng.uniform(-20, 20), cy + rng.uniform(-20, 20)) for _ in range(rng.randint(2, 4))
    ]


def oracle_map(rng, kind, scale):
    lanes = {}
    for lane_id in rng.sample("abcdef", rng.randint(1, 6)):
        try:
            lanes[lane_id] = Lane(lane_id, Curve(oracle_vertices(rng, kind, scale)))
        except ValueError:  # a duplicate vertex or a segment lost to rounding
            continue
    return MapGraph(lanes=lanes)


def step_ulps(value, ulps):
    for _ in range(abs(ulps)):
        value = math.nextafter(value, math.inf if ulps > 0 else -math.inf)
    return value


def oracle_position(rng, kind, map_graph, capture):
    """A position just inside or outside the capture distance of a box edge
    (on the extended line of the vertex that makes the edge), or one
    anywhere near the map: on the half-integer lattice for lattice maps."""
    lane = map_graph.lanes[rng.choice(sorted(map_graph.lanes))]
    x_min, y_min, x_max, y_max = lane.box
    if rng.random() < 0.6:
        longer = int(y_max - y_min > x_max - x_min)
        axis, side = rng.choice((longer, longer, longer, 1 - longer)), rng.choice((-1, 1))
        vertex = (min if side < 0 else max)(lane.centerline.points, key=lambda p: (p.x, p.y)[axis])
        coords = [vertex.x, vertex.y]
        coords[axis] = step_ulps(coords[axis] + side * capture, side * rng.randint(-3, 3))
        return Point2(*coords), "edge"
    pad = 2.0 * capture + 1.0
    if kind == "lattice":
        return Point2(rng.randint(-16, 16) / 2, rng.randint(-16, 16) / 2), "near"
    x, y = rng.uniform(x_min - pad, x_max + pad), rng.uniform(y_min - pad, y_max + pad)
    return Point2(x, y), "near"


class TestNearestLane:
    def test_matches_the_full_scan(self):
        rng = random.Random(60)
        seen = dict.fromkeys(
            ("edge", "tie", "beyond_end", "at_1e15", "exactly_capture", "outside_box"), 0
        )
        for n in range(10_000):
            kind = ("lattice", "wide", "local", "wide", "lattice", "wide")[n % 6]
            scale = 1e15 if n % 5 == 0 else rng.choice([1.0, 1e3, 1e6, 1e12, 1e15])
            map_graph = oracle_map(rng, kind, scale)
            if not map_graph.lanes:
                continue
            capture = rng.choice([2.0, 2.0, 0.5, 3.0, 0.0])
            for _ in range(3):
                position, where = oracle_position(rng, kind, map_graph, capture)
                expected = reference_nearest_lane(map_graph, position, capture)
                assert nearest_lane(map_graph, position, capture) == expected, (
                    map_graph.lanes, position, capture
                )
                if expected is None:
                    continue
                lane = map_graph.lanes[expected]
                s, distance = project_point(lane.centerline, position)
                kept = [
                    lane_id
                    for lane_id, other in map_graph.lanes.items()
                    if project_point(other.centerline, position)[1] == distance
                ]
                x_min, y_min, x_max, y_max = lane.box
                x, y = position.x, position.y
                gap = max(x_min - x, x - x_max, y_min - y, y - y_max)
                seen["edge"] += where == "edge"
                seen["tie"] += len(kept) > 1
                seen["beyond_end"] += s in (0.0, lane.centerline.length) and distance > 0.0
                seen["at_1e15"] += scale == 1e15
                seen["exactly_capture"] += distance == capture
                seen["outside_box"] += gap > capture  # kept although beyond the box by more than C
        assert min(seen.values()) >= 100, seen

    def test_a_far_position_projects_no_lane(self, monkeypatch):
        map_graph = load_map(os.path.join(os.path.dirname(__file__), "fixtures", "map.json"))
        calls = []

        def counting_project_point(curve, p):
            calls.append(curve)
            return project_point(curve, p)

        monkeypatch.setattr(scene, "project_point", counting_project_point)
        assert nearest_lane(map_graph, Point2(500.0, -500.0)) is None
        assert calls == []
        assert nearest_lane(map_graph, Point2(-60.0, 0.3)) == "ln_approach_e"
        assert 0 < len(calls) < len(map_graph.lanes)
