import math
import random

import pytest

from conftest import make_track, write_json, write_jsonl
from trajpredict.errors import CoverageError, ParseError, SceneIntegrityError
from trajpredict.geometry import Point2
from trajpredict.scene import (
    EgoPlan,
    load_map,
    load_obstacle_log,
    load_scene,
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

    def test_optional_polygon_roundtrips(self, tmp_path):
        row = state_row("a", 0.0, 0.0, 0.0)
        row["polygon"] = [[-1.0, -0.5], [1.0, -0.5], [1.0, 0.5], [-1.0, 0.5]]
        log = write_jsonl(tmp_path / "log.jsonl", [row])
        (track,) = load_obstacle_log(log)
        polygon = track.states[0].polygon
        assert [[p.x, p.y] for p in polygon] == row["polygon"]

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


class TestEgoPlan:
    def test_interpolation_and_clamping(self):
        ego = EgoPlan(poses=((0.0, Point2(0, 0)), (2.0, Point2(4, 0))))
        assert ego.position_at(1.0).x == pytest.approx(2.0)
        assert ego.position_at(-5.0).x == 0.0
        assert ego.position_at(99.0).x == 4.0

    def test_end_poses_are_returned_exactly(self):
        # a lerp at u = 1 gives 0.2 + (0.9 - 0.2) = 0.8999999999999999, not 0.9
        first, last = Point2(0.2, 0.0), Point2(0.9, 0.0)
        ego = EgoPlan(poses=((0.0, first), (1.0, last)))
        assert ego.position_at(1.0) == last
        assert ego.position_at(5.0) == last
        assert ego.position_at(0.0) == first

    def test_non_monotonic_rejected(self):
        with pytest.raises(SceneIntegrityError):
            EgoPlan(poses=((1.0, Point2(0, 0)), (1.0, Point2(1, 0))))
