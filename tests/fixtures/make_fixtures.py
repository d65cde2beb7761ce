"""Regenerate the committed fixture scene files.

Run from the repository root:

    python tests/fixtures/make_fixtures.py

The scene is a 4-way intersection with an eastbound through vehicle (veh_1),
an eastbound vehicle turning left to the north (veh_2), and an ego plan
crossing the intersection south to north just east of the centerline. All
outputs are deterministic; the golden pipeline outputs under tests/golden/
are produced from these files (see test_acceptance.py for the exact
commands).
"""

import json
import math
import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(__file__), ".."))
from conftest import intersection_map_dict

HERE = os.path.dirname(os.path.abspath(__file__))

APPROACH_SPEED = 10.0
TURN_RADIUS = 15.0
ARC_START_T = 4.5  # time veh_2 reaches the intersection entry at (-15, 0)
ARC_DURATION = TURN_RADIUS * (math.pi / 2) / APPROACH_SPEED


def veh_1_state(t):
    return -60.0 + APPROACH_SPEED * t, 0.0, 0.0


def veh_2_state(t):
    if t <= ARC_START_T:
        return -60.0 + APPROACH_SPEED * t, 0.0, 0.0
    if t <= ARC_START_T + ARC_DURATION:
        phi = APPROACH_SPEED * (t - ARC_START_T) / TURN_RADIUS
        x = -TURN_RADIUS + TURN_RADIUS * math.sin(phi)
        y = TURN_RADIUS - TURN_RADIUS * math.cos(phi)
        return x, y, phi
    return 0.0, TURN_RADIUS + APPROACH_SPEED * (t - ARC_START_T - ARC_DURATION), math.pi / 2


def obstacle_rows():
    rows = []
    for k in range(120):
        t = round(0.1 * k, 1)
        x, y, heading = veh_1_state(t)
        rows.append(
            {"obstacle_id": "veh_1", "t": t, "x": x, "y": y, "heading": heading, "speed": APPROACH_SPEED}
        )
    for k in range(100):
        t = round(0.1 * k, 1)
        x, y, heading = veh_2_state(t)
        rows.append(
            {"obstacle_id": "veh_2", "t": t, "x": x, "y": y, "heading": heading, "speed": APPROACH_SPEED}
        )
    return rows


def ego_rows():
    return [
        {"t": round(0.5 * k, 1), "x": 3.5, "y": -50.0 + 8.0 * 0.5 * k} for k in range(25)
    ]


def priors_rows():
    return [
        {
            "obstacle_id": "veh_1",
            "anchor_time": 2.0,
            "intentions": [
                {"id": "exit_e", "prior": 0.4},
                {"id": "exit_n", "prior": 0.4},
                {"id": "exit_s", "prior": 0.2},
            ],
        }
    ]


def main():
    n_points = 40  # horizon 4.0 s at 0.1 s resolution
    weights = {
        "theta_acc": 1.0,
        "theta_centripetal": 1.0,
        "theta_collision": 1.0,
        "z1": n_points * (15.0**2 * 0.05) ** 2,
        "z2": float(n_points),
    }
    genconfig = {
        "accel_set": [-2.0, -1.0, 0.0, 1.0],
        "a_min": -6.0,
        "a_max": 4.0,
        "v_max": 25.0,
        "horizon_secs": 4.0,
        "resolution_secs": 0.1,
        "min_path_length_m": 60.0,
        "max_lanes": 4,
        "temperature": 1.0,
    }
    tunerconfig = {
        "delta": 0.1,
        "learning_rate": 0.002,
        "max_iters": 2000,
        "convergence_tol": 0.0,
        "theta_init": [1.0, 1.0, 1.0],
    }

    def write(name, text):
        with open(os.path.join(HERE, name), "w", encoding="utf-8") as fh:
            fh.write(text)

    def jsonl(rows):
        return "".join(json.dumps(r) + "\n" for r in rows)

    write("map.json", json.dumps(intersection_map_dict(), indent=1) + "\n")
    write("obstacles.jsonl", jsonl(obstacle_rows()))
    write("ego.jsonl", jsonl(ego_rows()))
    write("priors.jsonl", jsonl(priors_rows()))
    write("weights.json", json.dumps(weights, indent=1) + "\n")
    write("genconfig.json", json.dumps(genconfig, indent=1) + "\n")
    write("tunerconfig.json", json.dumps(tunerconfig, indent=1) + "\n")
    print(f"fixtures written to {HERE}")


if __name__ == "__main__":
    main()
