import json
import math
import os
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import intersection_map_dict, make_track, straight_track, write_json
from trajpredict import annotation
from trajpredict.annotation import (
    anchor_times,
    label_anchor,
    label_exit_taken,
    label_future_trajectory,
    label_lane_sequence,
)
from trajpredict.cli import main
from trajpredict.errors import CoverageError, SceneIntegrityError
from trajpredict.geometry import Curve, project_point
from trajpredict.scene import (
    DEFAULT_LATERAL_CAPTURE_M,
    TIME_EPS,
    IntersectionExit,
    Lane,
    MapGraph,
    load_map,
    load_scene,
    time_grid,
)

FIXTURES = os.path.join(os.path.dirname(__file__), "fixtures")


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


class TestLabelGrid:
    def test_an_empty_label_grid_is_refused(self):
        """A horizon shorter than one resolution step labels nothing: every
        labeller refuses it, by the rule annotate checks before reading the log."""
        tracks, map_graph, _ = load_scene(
            os.path.join(FIXTURES, "obstacles.jsonl"), os.path.join(FIXTURES, "map.json")
        )
        message = "^the horizon must be at least one resolution step$"
        for horizon, resolution in ((0.05, 0.1), (0.0, 0.1), (-1.0, 0.1), (0.3, 0.5)):
            with pytest.raises(ValueError, match=message):
                annotation.label_times(horizon, resolution)
            with pytest.raises(ValueError, match=message):
                label_future_trajectory(tracks[0], 0.0, horizon, resolution)
            for track in tracks:
                for anchor in anchor_times(track, 1.0):
                    with pytest.raises(ValueError, match=message):
                        label_anchor(
                            track, anchor, map_graph, road_test_id="obstacles",
                            horizon=horizon, resolution=resolution,
                        )
        assert annotation.label_times(0.1, 0.1) == time_grid(0.1, 0.1) == [0.1]


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


def annotate_tracks(tmp_path, capsys, tracks, stride, horizon):
    """The records annotate writes for tracks, logged in the order given,
    on the imap fixture's map, and the counts it prints."""
    rows = [
        {"obstacle_id": tr.obstacle_id, "t": st.timestamp, "x": st.position.x,
         "y": st.position.y, "heading": st.heading, "speed": st.speed}
        for tr in tracks
        for st in tr.states
    ]
    log, out = tmp_path / "run1.jsonl", tmp_path / "dataset.jsonl"
    log.write_text("".join(json.dumps(r) + "\n" for r in rows), encoding="utf-8")
    argv = ["annotate", "--log", str(log), "--map", str(tmp_path / "map.json")]
    argv += ["--horizon", str(horizon), "--stride", str(stride), "--out", str(out)]
    assert main(argv) == 0
    counts = json.loads(capsys.readouterr().out)
    with open(out, encoding="utf-8") as fh:
        return [json.loads(line) for line in fh], counts


class TestBuildDataset:
    """The dataset annotate builds: label_anchor's record per (obstacle,
    anchor), in obstacle-id order, skipping anchors without coverage."""

    def test_anchor_arithmetic(self, imap):
        # a "10 second" track sampled at 0.1 s covers [0, 9.9]
        track = straight_track(v=10.0, n=100, x0=-60.0, y=0.3)
        labelled = [
            label_anchor(track, anchor, imap, road_test_id="run1", horizon=3.0)
            for anchor in anchor_times(track, 1.0)
        ]
        records = [r for r in labelled if r is not None]
        skipped = labelled.count(None)
        assert len(records) == 7
        assert [r["anchor_time"] for r in records] == [float(k) for k in range(7)]
        assert skipped == 3  # anchors 7, 8, 9 lack future coverage

    def test_empty_log_builds_empty_dataset(self, imap, tmp_path, capsys):
        records, counts = annotate_tracks(tmp_path, capsys, [], stride=1.0, horizon=3.0)
        assert records == [] and counts["records"] == counts["skipped"] == 0

    def test_records_keyed_per_obstacle(self, imap, tmp_path, capsys):
        t1 = straight_track("veh_a", v=10.0, n=100, x0=-60.0, y=0.3)
        t2 = straight_track("veh_b", v=8.0, n=100, x0=-70.0, y=0.3)
        records, _ = annotate_tracks(tmp_path, capsys, [t2, t1], stride=2.0, horizon=3.0)
        keys = [(r["obstacle_id"], r["anchor_time"]) for r in records]
        assert keys == sorted(keys)
        assert {k[0] for k in keys} == {"veh_a", "veh_b"}

    def test_rerun_is_byte_identical(self, imap):
        track = straight_track(v=10.0, n=100, x0=-60.0, y=0.3)
        label_all = lambda: [
            label_anchor(track, anchor, imap, road_test_id="r", horizon=3.0)
            for anchor in anchor_times(track, 1.0)
        ]
        first, second = label_all(), label_all()
        assert json.dumps(first) == json.dumps(second)

    def test_record_schema(self, imap):
        track = straight_track(v=10.0, n=100, x0=-60.0, y=0.3)
        record = label_anchor(track, 0.0, imap, road_test_id="r", horizon=3.0)
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


def _fixture_map_entries(dx=0.0, dy=0.0, tag=""):
    """The fixture map's lanes and exits, shifted by (dx, dy), ids suffixed by tag."""
    with open(os.path.join(FIXTURES, "map.json"), encoding="utf-8") as fh:
        doc = json.load(fh)
    lanes = {
        lane["id"] + tag: Lane(
            lane["id"] + tag,
            Curve([(x + dx, y + dy) for x, y in lane["centerline"]]),
            tuple(succ + tag for succ in lane["successors"]),
        )
        for lane in doc["lanes"]
    }
    exits = {
        ex["id"] + tag: IntersectionExit(
            ex["id"] + tag, ex["x"] + dx, ex["y"] + dy, ex["lane_id"] + tag
        )
        for ex in doc["exits"]
    }
    return lanes, exits


def _grid_map(spacing=150.0):
    """A 3x3 grid of copies of the fixture map, as the city_grid workload lays it out."""
    lanes, exits = {}, {}
    for gi in range(3):
        for gj in range(3):
            cell_lanes, cell_exits = _fixture_map_entries(gi * spacing, gj * spacing, f"_g{gi}{gj}")
            lanes.update(cell_lanes)
            exits.update(cell_exits)
    return MapGraph(lanes=lanes, exits=exits)


BOX_FILTER_MAPS = {"fixture": MapGraph(*_fixture_map_entries()), "grid": _grid_map()}


def full_scan_exit(track, anchor, map_graph, horizon, radius=annotation.DEFAULT_EXIT_CAPTURE_M):
    """label_exit_taken's exit id, testing every exit."""
    polyline = annotation._future_polyline(track, anchor, horizon)
    best = None
    for ex in map_graph.exit_order if polyline else ():
        t_hit = annotation._earliest_capture_time(polyline, ex.x, ex.y, radius)
        if t_hit is not None and (best is None or t_hit < best[0]):
            best = (t_hit, ex.exit_id)
    return best and best[1]


def full_scan_lanes(track, anchor, map_graph, horizon, resolution, capture):
    """label_lane_sequence's lane ids, projecting each sample on every lane."""
    sequence = []
    for rel in time_grid(horizon, resolution):
        t = anchor + rel
        if t > track.last_time + TIME_EPS:
            break
        x, y = track.position_at(t)
        best = None
        for lane in map_graph.lane_order:
            _, distance = project_point(lane.centerline, x, y)
            if distance <= capture and (best is None or distance < best[0]):
                best = (distance, lane.lane_id)
        if best and (not sequence or sequence[-1] != best[1]):
            sequence.append(best[1])
    return tuple(sequence) or None


@st.composite
def box_filter_cases(draw):
    """A map, a track over it and an anchor and horizon: tracks that pass an
    exit at the capture radius along an axis (the exit just beyond the
    radius, on it, or just inside), from near or far (up to 1e7 m, so the
    capture quadratic rounds); tracks that run along a side of a lane's box
    at about the lateral capture distance from it; and random walks that
    start on or off the map, some at large coordinates."""
    map_graph = BOX_FILTER_MAPS[draw(st.sampled_from(sorted(BOX_FILTER_MAPS)))]
    kind = draw(st.sampled_from(["exit", "lane", "walk"]))
    axis = draw(st.sampled_from([0, 1]))  # the track runs along this axis ...
    side = draw(st.sampled_from([-1.0, 1.0]))  # ... on this side of the target
    if kind == "exit":
        ex = draw(st.sampled_from(map_graph.exit_order))
        centre = (ex.x, ex.y)
        excess = draw(
            st.sampled_from([0.0, 1e-12, 1e-9, 1e-6, -1e-9])
            | st.floats(-1e-3, 1e-3)
            | st.floats(0.0, 1.0)
        )
        beside = centre[1 - axis] + side * (annotation.DEFAULT_EXIT_CAPTURE_M + excess)
        before, after = draw(st.floats(-1e7, 1e3)), draw(st.floats(-1e3, 1e7))
        ends = [centre[axis] + before, centre[axis], centre[axis] + after]
    elif kind == "lane":
        box = draw(st.sampled_from(map_graph.lane_order)).box  # (x_min, y_min, x_max, y_max)
        offset = DEFAULT_LATERAL_CAPTURE_M * draw(st.floats(0.0, 1.1))
        beside = box[3 - axis] + offset if side > 0 else box[1 - axis] - offset
        margin = draw(st.floats(0.0, 5.0))
        ends = [box[axis] - margin, box[axis], box[axis + 2], box[axis + 2] + margin]
    if kind == "walk":
        scale = draw(st.sampled_from([100.0, 1e4, 1e7]))
        step = st.tuples(st.floats(-scale, scale), st.floats(-scale, scale))
        steps = [draw(step)] + draw(st.lists(step, min_size=1, max_size=4))
        points = [tuple(map(sum, zip(*steps[: k + 1]))) for k in range(len(steps))]
    else:
        points = [(a, beside) if axis == 0 else (beside, a) for a in ends]
    if draw(st.booleans()):
        points.reverse()
    dt = draw(st.sampled_from([0.5, 1.0, 3.0]))
    rows = [(k * dt, x, y, 0.0, 10.0) for k, (x, y) in enumerate(points)]
    track = make_track("veh", rows)
    anchor = draw(st.sampled_from(track.times[:-1]))
    horizon = draw(st.floats(0.1, track.last_time - anchor + 1.0))
    return map_graph, track, anchor, horizon


class TestBoxFilters:
    @settings(max_examples=400, deadline=None, derandomize=True)
    @given(case=box_filter_cases())
    def test_the_box_filters_change_no_label(self, case):
        """The exit and lane prefilters give the full scans' labels, and
        label_anchor the labellers' own."""
        map_graph, track, anchor, horizon = case
        resolution = annotation.DEFAULT_RESOLUTION_S
        exit_label = label_exit_taken(track, anchor, map_graph, horizon)
        exit_id = exit_label and exit_label.exit_id
        assert exit_id == full_scan_exit(track, anchor, map_graph, horizon)
        lanes = label_lane_sequence(track, anchor, map_graph, horizon, resolution)
        capture = DEFAULT_LATERAL_CAPTURE_M
        expected = full_scan_lanes(track, anchor, map_graph, horizon, resolution, capture)
        assert (lanes and lanes.lane_ids) == expected
        record = label_anchor(track, anchor, map_graph, road_test_id="r", horizon=horizon)
        if record is not None:
            assert record["exit_label"] == exit_id
            assert record["lane_sequence_label"] == (list(expected) if expected else None)


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
