import json
import math
import random

import pytest

from conftest import intersection_map_dict, make_track, straight_track, write_json
from trajpredict.annotation import (
    anchor_times,
    build_dataset,
    label_exit_taken,
    label_future_trajectory,
    label_lane_sequence,
)
from trajpredict.errors import CoverageError, SceneIntegrityError
from trajpredict.scene import load_map


@pytest.fixture
def imap(tmp_path):
    return load_map(write_json(tmp_path / "map.json", intersection_map_dict()))


class TestFutureTrajectoryLabel:
    def test_constant_velocity_interpolates_linearly(self):
        track = straight_track(v=10.0, n=120, x0=0.0, y=0.0)
        label = label_future_trajectory(track, anchor_time=0.0, horizon=3.0, resolution=0.1)
        assert len(label.times) == 30
        for k, (rel, x, y) in enumerate(zip(label.times, label.xs, label.ys), start=1):
            assert rel == pytest.approx(0.1 * k, abs=1e-12)
            assert x == pytest.approx(10.0 * 0.1 * k, abs=1e-9)
            assert y == 0.0

    def test_insufficient_coverage_raises(self):
        track = straight_track(n=11)  # covers t in [0, 1.0]
        with pytest.raises(CoverageError):
            label_future_trajectory(track, anchor_time=0.0, horizon=3.0)

    def test_anchor_before_track_start_raises(self):
        track = straight_track(n=50, t0=5.0)
        with pytest.raises(CoverageError):
            label_future_trajectory(track, anchor_time=0.0, horizon=1.0)

    def test_direction_change_matches_dense_oracle(self):
        # east for 2 s, then north-east
        rows = []
        for k in range(21):
            rows.append((0.1 * k, k * 1.0, 0.0, 0.0, 10.0))
        for k in range(1, 40):
            rows.append((2.0 + 0.1 * k, 20.0 + 0.7 * k, 0.7 * k, math.pi / 4, 10.0))
        track = make_track("a", rows)
        label = label_future_trajectory(track, anchor_time=0.55, horizon=3.0, resolution=0.1)
        times = [r[0] for r in rows]
        for rel, x, y in zip(label.times, label.xs, label.ys):
            q = 0.55 + rel
            i = next(k for k in range(len(times) - 1) if times[k + 1] >= q - 1e-12)
            u = (q - times[i]) / (times[i + 1] - times[i])
            ex = rows[i][1] + u * (rows[i + 1][1] - rows[i][1])
            ey = rows[i][2] + u * (rows[i + 1][2] - rows[i][2])
            assert math.hypot(x - ex, y - ey) <= 1e-9

    def test_label_points_lie_on_track_interpolant(self):
        rng = random.Random(5)
        rows = []
        t, x, y = 0.0, 0.0, 0.0
        for _ in range(80):
            rows.append((t, x, y, 0.0, 1.0))
            t = round(t + 0.1, 10)
            x += rng.uniform(-1, 1)
            y += rng.uniform(-1, 1)
        track = make_track("a", rows)
        label = label_future_trajectory(track, anchor_time=1.3, horizon=4.0)
        for rel, x, y in zip(label.times, label.xs, label.ys):
            qx, qy = track.position_at(1.3 + rel)
            assert math.hypot(x - qx, y - qy) <= 1e-9


class TestExitLabel:
    def test_captures_nearest_passage(self, imap):
        # eastbound through the intersection: passes exit_e at ~(15, 0.3)
        track = straight_track(v=10.0, n=120, x0=-60.0, y=0.3)
        label = label_exit_taken(track, anchor_time=0.0, map_graph=imap, horizon=8.0)
        assert label is not None and label.exit_id == "exit_e"

    def test_capture_time_matches_brute_force(self, imap):
        track = straight_track(v=10.0, n=120, x0=-60.0, y=0.3)
        # brute force: first dense sample within the capture radius
        target = imap.exits["exit_e"]
        first_hit = None
        for k in range(80000):
            t = k * 1e-4
            px, py = track.position_at(t)
            if math.hypot(px - target.x, py - target.y) <= 3.0:
                first_hit = t
                break
        assert first_hit is not None
        label = label_exit_taken(track, anchor_time=0.0, map_graph=imap, horizon=8.0)
        assert label is not None
        # the eastbound track reaches x = 15 - sqrt(9 - 0.09) at the capture boundary
        expected = (15.0 - math.sqrt(9.0 - 0.09) + 60.0) / 10.0
        assert first_hit == pytest.approx(expected, abs=1e-3)

    def test_stopping_track_has_no_label(self, imap):
        rows = [(0.1 * k, -60.0 + min(10.0 * 0.1 * k, 20.0), 0.0, 0.0, 10.0) for k in range(100)]
        track = make_track("a", rows)
        assert label_exit_taken(track, 0.0, imap, horizon=8.0) is None

    def test_earliest_passage_wins(self, imap):
        # eastbound track passes exit_e (t~7.2) long before it nears anything else
        track = straight_track(v=10.0, n=120, x0=-60.0, y=0.3)
        label = label_exit_taken(track, anchor_time=4.0, map_graph=imap, horizon=8.0)
        assert label.exit_id == "exit_e"

    def test_time_shift_equivariance(self, imap):
        base = straight_track(v=10.0, n=120, x0=-60.0, y=0.3)
        shifted_rows = [
            (st.timestamp + 100.0, st.position.x, st.position.y, st.heading, st.speed)
            for st in base.states
        ]
        shifted = make_track("veh", shifted_rows)
        a = label_exit_taken(base, 2.0, imap, horizon=8.0)
        b = label_exit_taken(shifted, 102.0, imap, horizon=8.0)
        assert a.exit_id == b.exit_id
        assert a.anchor_time + 100.0 == b.anchor_time


class TestLaneSequenceLabel:
    def test_follows_lane_and_successor(self, tmp_path):
        doc = {
            "lanes": [
                {"id": "lane_a", "centerline": [[0.0, 0.0], [50.0, 0.0]], "successors": ["lane_b"]},
                {"id": "lane_b", "centerline": [[50.0, 0.0], [100.0, 0.0]], "successors": []},
            ],
            "exits": [],
        }
        chain = load_map(write_json(tmp_path / "chain.json", doc))
        track = straight_track(v=10.0, n=100, x0=0.0, y=0.3)
        label = label_lane_sequence(track, 0.0, chain, horizon=8.0)
        assert label is not None
        assert label.lane_ids == ("lane_a", "lane_b")

    def test_off_map_track_has_no_label(self, imap):
        track = straight_track(v=10.0, n=60, x0=-60.0, y=500.0)
        assert label_lane_sequence(track, 0.0, imap, horizon=4.0) is None

    def test_weaving_within_one_lane_deduplicates(self, imap):
        rows = [
            (0.1 * k, -60.0 + 1.0 * k * 0.1 * 10, 0.4 * math.sin(k / 5.0), 0.0, 10.0)
            for k in range(40)
        ]
        track = make_track("a", rows)
        label = label_lane_sequence(track, 0.0, imap, horizon=3.0)
        assert label.lane_ids == ("ln_approach_e",)

    def test_matches_per_sample_nearest_oracle(self, imap):
        # independent oracle: densely interpolate the raw centerline vertices
        # and take the nearest lane by point-to-polyline distance
        raw = {
            lane["id"]: lane["centerline"] for lane in intersection_map_dict()["lanes"]
        }
        dense = {}
        for lane_id, vertices in raw.items():
            pts = []
            for (ax, ay), (bx, by) in zip(vertices, vertices[1:]):
                for u in range(400):
                    pts.append((ax + u / 400 * (bx - ax), ay + u / 400 * (by - ay)))
            pts.append(tuple(vertices[-1]))
            dense[lane_id] = pts

        track = straight_track(v=10.0, n=120, x0=-60.0, y=0.3)
        label = label_lane_sequence(track, 0.0, imap, horizon=8.0)
        seq = []
        for k in range(1, 81):
            px, py = track.position_at(0.1 * k)
            best = None
            for lane_id in sorted(dense):
                d = min(math.hypot(px - qx, py - qy) for qx, qy in dense[lane_id])
                if d <= 2.0 and (best is None or d < best[0] - 1e-6):
                    best = (d, lane_id)
            if best and (not seq or seq[-1] != best[1]):
                seq.append(best[1])
        assert label.lane_ids == tuple(seq)


class TestBuildDataset:
    def test_anchor_arithmetic(self, imap):
        # a "10 second" track sampled at 0.1 s covers [0, 9.9]
        track = straight_track(v=10.0, n=100, x0=-60.0, y=0.3)
        records, skipped = build_dataset(
            [track], imap, road_test_id="run1", stride=1.0, horizon=3.0
        )
        assert len(records) == 7
        assert [r["anchor_time"] for r in records] == [float(k) for k in range(7)]
        assert skipped == 3  # anchors 7, 8, 9 lack future coverage

    def test_empty_log_builds_empty_dataset(self, imap):
        records, skipped = build_dataset(
            [], imap, road_test_id="run1", stride=1.0, horizon=3.0
        )
        assert records == [] and skipped == 0

    def test_records_keyed_per_obstacle(self, imap):
        t1 = straight_track("veh_a", v=10.0, n=100, x0=-60.0, y=0.3)
        t2 = straight_track("veh_b", v=8.0, n=100, x0=-70.0, y=0.3)
        records, _ = build_dataset(
            [t2, t1], imap, road_test_id="run1", stride=2.0, horizon=3.0
        )
        keys = [(r["obstacle_id"], r["anchor_time"]) for r in records]
        assert keys == sorted(keys)
        assert {k[0] for k in keys} == {"veh_a", "veh_b"}

    def test_rerun_is_byte_identical(self, imap):
        track = straight_track(v=10.0, n=100, x0=-60.0, y=0.3)
        first, _ = build_dataset([track], imap, road_test_id="r", stride=1.0, horizon=3.0)
        second, _ = build_dataset([track], imap, road_test_id="r", stride=1.0, horizon=3.0)
        assert json.dumps(first) == json.dumps(second)

    def test_record_schema(self, imap):
        track = straight_track(v=10.0, n=100, x0=-60.0, y=0.3)
        records, _ = build_dataset([track], imap, road_test_id="r", stride=1.0, horizon=3.0)
        record = records[0]
        assert list(record) == [
            "road_test_id",
            "obstacle_id",
            "anchor_time",
            "history",
            "future",
            "exit_label",
            "lane_sequence_label",
        ]
        assert len(record["future"]) == 30
        assert record["history"][-1]["t"] <= record["anchor_time"] + 1e-9


class TestAnchorTimes:
    def test_grid_spans_track(self):
        track = straight_track(v=10.0, n=100)
        assert anchor_times(track, 1.0) == [float(k) for k in range(10)]

    def test_stride_must_be_positive(self):
        track = straight_track(n=10)
        with pytest.raises(ValueError):
            anchor_times(track, 0.0)

    def test_matches_the_anchor_loop_on_random_tracks(self):
        def loop_oracle(first, last, stride):
            """The anchor loop that anchor_times replaced."""
            anchors, k = [], 0
            while first + k * stride <= last + 1e-9:
                anchors.append(first + k * stride)
                k += 1
            return anchors

        rng = random.Random(7)
        for _ in range(10_000):
            stride = 10 ** rng.uniform(-3, 1)
            first = rng.uniform(-100.0, 100.0)
            # spans of up to 200 strides, most within rounding of the tolerance's edge
            steps = rng.randint(0, 200)
            last = first + steps * stride
            last += rng.choice([-1e-9, -1e-9, 0.0, 2e-9, -2e-9, rng.uniform(0, stride)])
            if last <= first:
                last = first + stride
            track = make_track("v", [(first, 0.0, 0.0, 0.0, 1.0), (last, 1.0, 0.0, 0.0, 1.0)])
            assert anchor_times(track, stride) == loop_oracle(first, last, stride)

    def test_stride_lost_to_rounding_is_refused_naming_the_obstacle(self):
        track = make_track("lone", [(1e20, 0.0, 0.0, 0.0, 1.0)])
        with pytest.raises(SceneIntegrityError, match="'lone'.*lost to rounding"):
            anchor_times(track, 1.0)
