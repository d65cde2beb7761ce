import json
import math

import pytest

from trajpredict.geometry import Point2
from trajpredict.scene import ObstacleState, ObstacleTrack


def make_track(obstacle_id, rows):
    """Build a track from (t, x, y, heading, speed) tuples."""
    states = tuple(
        ObstacleState(
            timestamp=t,
            position=Point2(x, y),
            heading=heading,
            speed=speed,
            obstacle_id=obstacle_id,
        )
        for t, x, y, heading, speed in rows
    )
    return ObstacleTrack(obstacle_id=obstacle_id, states=states)


def straight_track(obstacle_id="veh", v=10.0, n=120, dt=0.1, x0=-60.0, y=0.3, t0=0.0):
    """Constant-velocity track heading east."""
    rows = [(round(t0 + k * dt, 6), x0 + v * k * dt, y, 0.0, v) for k in range(n)]
    return make_track(obstacle_id, rows)


def quarter_arc(center, radius, start_angle, end_angle, n):
    """Vertices on a circular arc, inclusive of both endpoints."""
    pts = []
    for k in range(n):
        ang = start_angle + (end_angle - start_angle) * k / (n - 1)
        pts.append([center[0] + radius * math.cos(ang), center[1] + radius * math.sin(ang)])
    return pts


def intersection_map_dict():
    """A 4-way intersection: east approach forking into left/straight/right
    connector lanes, each reaching an exit and an outbound lane."""
    left_arc = quarter_arc((-15.0, 15.0), 15.0, -math.pi / 2, 0.0, 13)
    right_arc = quarter_arc((-15.0, -15.0), 15.0, math.pi / 2, 0.0, 13)
    return {
        "lanes": [
            {
                "id": "ln_approach_e",
                "centerline": [[-80.0, 0.0], [-50.0, 0.0], [-15.0, 0.0]],
                "successors": ["ln_x_left", "ln_x_right", "ln_x_straight"],
            },
            {
                "id": "ln_x_straight",
                "centerline": [[-15.0, 0.0], [0.0, 0.0], [15.0, 0.0]],
                "successors": ["ln_out_e"],
            },
            {"id": "ln_x_left", "centerline": left_arc, "successors": ["ln_out_n"]},
            {"id": "ln_x_right", "centerline": right_arc, "successors": ["ln_out_s"]},
            {
                "id": "ln_out_e",
                "centerline": [[15.0, 0.0], [50.0, 0.0], [90.0, 0.0]],
                "successors": [],
            },
            {
                "id": "ln_out_n",
                "centerline": [[0.0, 15.0], [0.0, 50.0], [0.0, 90.0]],
                "successors": [],
            },
            {
                "id": "ln_out_s",
                "centerline": [[0.0, -15.0], [0.0, -50.0], [0.0, -90.0]],
                "successors": [],
            },
        ],
        "exits": [
            {"id": "exit_e", "x": 15.0, "y": 0.0, "heading": 0.0, "lane_id": "ln_x_straight"},
            {"id": "exit_n", "x": 0.0, "y": 15.0, "heading": math.pi / 2, "lane_id": "ln_x_left"},
            {"id": "exit_s", "x": 0.0, "y": -15.0, "heading": -math.pi / 2, "lane_id": "ln_x_right"},
        ],
        "intersection_polygon": [[-15.0, -15.0], [15.0, -15.0], [15.0, 15.0], [-15.0, 15.0]],
    }


@pytest.fixture
def intersection_map(tmp_path):
    from trajpredict.scene import load_map

    path = tmp_path / "map.json"
    path.write_text(json.dumps(intersection_map_dict()))
    return load_map(str(path))


def write_jsonl(path, rows):
    path.write_text("".join(json.dumps(r) + "\n" for r in rows))
    return str(path)


def write_json(path, doc):
    path.write_text(json.dumps(doc))
    return str(path)


PLANTED_THETA = (1.0, 2.0, 3.0)


def planted_examples(rng, count, delta=0.1, margin=0.4):
    """Synthetic tuning examples whose ground truth is strictly cheapest under
    PLANTED_THETA: every candidate clears it by at least delta + margin.

    Half the candidates dominate the ground truth componentwise; the other
    half are cheaper in the first sub-cost, so only a reweighted theta can
    separate them, which is what makes the fixture nontrivial at theta
    (1, 1, 1).
    """
    from trajpredict.autotune import TuningExample

    examples = []
    for j in range(count):
        gt = (rng.uniform(2.2, 3.0), rng.uniform(1.5, 2.5), rng.uniform(1.5, 2.5))
        candidates = []
        for _ in range(rng.randint(5, 10)):
            while True:
                if rng.random() < 0.5:
                    diff = (rng.uniform(0.2, 1.0), rng.uniform(0.2, 1.0), rng.uniform(0.2, 1.0))
                else:
                    diff = (rng.uniform(-2.0, -1.0), rng.uniform(0.3, 0.8), rng.uniform(0.4, 0.9))
                planted_gap = sum(d * t for d, t in zip(diff, PLANTED_THETA))
                if planted_gap >= delta + margin:
                    break
            candidates.append(tuple(g + d for g, d in zip(gt, diff)))
        examples.append(
            TuningExample(
                gt_subcosts=gt,
                candidate_subcosts=tuple(candidates),
            )
        )
    return examples
