"""Seeded workload generator for the benchmark.

Every workload is built from the fixture scene's own motion models
(`tests/fixtures/make_fixtures.py`) and map (`conftest.intersection_map_dict`),
imported rather than copied, so the benchmark scene tracks the fixture. Each
vehicle copy gets a seeded start-time offset and a lateral offset of at most
0.5 m, so no two copies repeat work exactly. The same seed always gives the
same bytes; the program under test only ever sees the written files.

Seed 0 is the development seed. Seed 1 is held out: use it to check a
later performance claim on inputs the change was not tuned against.
"""

from __future__ import annotations

import importlib.util
import json
import math
import os
import random
import sys
from dataclasses import dataclass, field
from typing import Dict, List, Optional

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
FIXTURES = os.path.join(ROOT, "tests", "fixtures")
DEV_SEED = 0
HELD_OUT_SEED = 1
MAX_LATERAL_OFFSET_M = 0.5
MAX_START_OFFSET_S = 2.0
PINNED_SEQUENCE = "ln_approach_e->ln_x_left"


def _fixture_module():
    """The fixture generator as a module; it imports conftest's map itself,
    and conftest imports the package, so `src` must be importable."""
    if SRC not in sys.path:
        sys.path.insert(0, SRC)
    spec = importlib.util.spec_from_file_location(
        "make_fixtures", os.path.join(FIXTURES, "make_fixtures.py")
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@dataclass(frozen=True)
class Workload:
    """Parameters of one workload; `why` says which layers it stresses."""

    name: str
    why: str
    copies: int
    grid: int = 1
    grid_spacing_m: float = 300.0
    ego: bool = True
    model_priors: bool = False
    stride: float = 0.5
    annotate_horizon: float = 3.0
    genconfig: Dict = field(default_factory=dict)


def _genconfig(accel_set, horizon) -> Dict:
    return {
        "accel_set": list(accel_set),
        "a_min": -6.0,
        "a_max": 4.0,
        "v_max": 25.0,
        "horizon_secs": horizon,
        "resolution_secs": 0.1,
        "min_path_length_m": 60.0,
        "max_lanes": 4,
        "temperature": 1.0,
    }


# Each workload keeps the per-anchor work of its full-size scene (horizon,
# accelerations, lanes, exits, stride) and cuts only the number of vehicle
# copies, so that one pass of the four stages takes 3-5 s. A run then holds
# a dozen passes or more, and their median repeats from run to run as well
# as this host allows: its speed drifts by +-20% within seconds and by
# +-10% over minutes.
WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="scaled_intersection",
            why="copies of one 7-lane intersection with an ego plan, an 8 s, "
            "6-acceleration horizon and a model-style priors file: realization and "
            "collision costing dominate predict, and the priors join is exercised",
            copies=3,
            model_priors=True,
            genconfig=_genconfig([-4.0, -2.0, -1.0, 0.0, 1.0, 2.0], 8.0),
        ),
        Workload(
            name="city_grid",
            why="3x3 grid of intersections (63 lanes, 27 exits), no ego plan, heuristic "
            "priors over every exit: lane search and lane association dominate",
            copies=1,
            grid=3,
            ego=False,
            stride=2.0,
            genconfig=_genconfig([-2.0, -1.0, 0.0, 1.0], 3.0),
        ),
    )
}


def _suffixed_map(base: dict, tag: str, dx: float, dy: float) -> dict:
    lane = lambda lane_id: f"{lane_id}{tag}"
    return {
        "lanes": [
            {
                "id": lane(entry["id"]),
                "centerline": [[x + dx, y + dy] for x, y in entry["centerline"]],
                "successors": [lane(s) for s in entry["successors"]],
            }
            for entry in base["lanes"]
        ],
        "exits": [
            {
                "id": f"{entry['id']}{tag}",
                "x": entry["x"] + dx,
                "y": entry["y"] + dy,
                "heading": entry["heading"],
                "lane_id": lane(entry["lane_id"]),
            }
            for entry in base["exits"]
        ],
        "intersection_polygon": [[x + dx, y + dy] for x, y in base["intersection_polygon"]],
    }


def _vehicle_rows(fx, obstacle_id, model, steps, rng, dx, dy) -> List[dict]:
    """One perturbed copy of a fixture vehicle: shifted in time, and offset
    sideways (normal to its heading) by a constant distance."""
    t_offset = round(rng.uniform(0.0, MAX_START_OFFSET_S), 3)
    lateral = rng.uniform(-MAX_LATERAL_OFFSET_M, MAX_LATERAL_OFFSET_M)
    rows = []
    for k in range(steps):
        t = round(0.1 * k, 1)
        x, y, heading = model(t)
        rows.append(
            {
                "obstacle_id": obstacle_id,
                "t": round(t + t_offset, 3),
                "x": x - lateral * math.sin(heading) + dx,
                "y": y + lateral * math.cos(heading) + dy,
                "heading": heading,
                "speed": fx.APPROACH_SPEED,
            }
        )
    return rows


def _priors_rows(obstacle_rows: List[dict], map_path: str, rng) -> List[dict]:
    """A model-style priors file: one row per log timestamp, anchor_time
    rounded to 3 decimals as a model writes it (not the bit-exact anchor).

    The stand-in model is the package's heading heuristic at that row, with
    a tenth of the mass moved to the pinned lane sequence and seeded noise
    on top, so that predictions depend on the scene and not mostly on the
    noise.
    """
    from trajpredict.generation import heuristic_exit_priors
    from trajpredict.geometry import Point2
    from trajpredict.scene import ObstacleState, ObstacleTrack, load_map

    map_graph = load_map(map_path)
    rows = []
    for row in obstacle_rows:
        state = ObstacleState(
            timestamp=row["t"], position=Point2(row["x"], row["y"]), heading=row["heading"],
            speed=row["speed"], obstacle_id=row["obstacle_id"],
        )
        track = ObstacleTrack(obstacle_id=row["obstacle_id"], states=(state,))
        priors = [(p.intention_id, 0.9 * p.prior) for p in heuristic_exit_priors(track, map_graph)]
        weights = [(i, w + rng.uniform(0.0, 0.02)) for i, w in priors + [(PINNED_SEQUENCE, 0.1)]]
        total = math.fsum(w for _, w in weights)
        rows.append(
            {
                "obstacle_id": row["obstacle_id"],
                "anchor_time": round(row["t"], 3),
                "intentions": [{"id": i, "prior": round(w / total, 6)} for i, w in weights],
            }
        )
    return rows


def _dumps(doc) -> str:
    return json.dumps(doc, sort_keys=True)


def generate(name: str, seed: int, out_dir: str) -> Dict[str, Optional[str]]:
    """Write one workload's input files under out_dir; returns their paths
    keyed by role (`map`, `log`, `ego`, `priors`, `weights`, `genconfig`,
    `tunerconfig`), with None for a role the workload does not use."""
    workload = WORKLOADS[name]
    fx = _fixture_module()
    rng = random.Random(f"{name}:{seed}")
    base = fx.intersection_map_dict()
    models = (("veh_1", fx.veh_1_state, 120), ("veh_2", fx.veh_2_state, 100))

    map_doc = {"lanes": [], "exits": [], "intersection_polygon": None}
    obstacle_rows: List[dict] = []
    for gi in range(workload.grid):
        for gj in range(workload.grid):
            dx, dy = gi * workload.grid_spacing_m, gj * workload.grid_spacing_m
            tag = f"_g{gi}{gj}" if workload.grid > 1 else ""
            cell = _suffixed_map(base, tag, dx, dy)
            map_doc["lanes"] += cell["lanes"]
            map_doc["exits"] += cell["exits"]
            if map_doc["intersection_polygon"] is None:
                map_doc["intersection_polygon"] = cell["intersection_polygon"]
            for copy in range(workload.copies):
                for vehicle, model, steps in models:
                    obstacle_id = f"{vehicle}{tag}_c{copy:02d}"
                    obstacle_rows += _vehicle_rows(fx, obstacle_id, model, steps, rng, dx, dy)

    horizon = workload.genconfig["horizon_secs"]
    n_points = int(round(horizon / workload.genconfig["resolution_secs"]))
    weights = {
        "theta_acc": 1.0,
        "theta_centripetal": 1.0,
        "theta_collision": 1.0,
        "z1": n_points * (15.0**2 * 0.05) ** 2,
        "z2": float(n_points),
    }
    with open(os.path.join(FIXTURES, "tunerconfig.json"), encoding="utf-8") as fh:
        tunerconfig = json.load(fh)

    os.makedirs(out_dir, exist_ok=True)
    paths: Dict[str, Optional[str]] = {"ego": None, "priors": None}

    def write(role, filename, text):
        path = os.path.join(out_dir, filename)
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
        paths[role] = path

    jsonl = lambda rows: "".join(_dumps(r) + "\n" for r in rows)
    write("map", "map.json", _dumps(map_doc) + "\n")
    write("log", "obstacles.jsonl", jsonl(obstacle_rows))
    if workload.ego:
        write("ego", "ego.jsonl", jsonl(fx.ego_rows()))
    if workload.model_priors:
        write("priors", "priors.jsonl", jsonl(_priors_rows(obstacle_rows, paths["map"], rng)))
    write("weights", "weights.json", _dumps(weights) + "\n")
    write("genconfig", "genconfig.json", _dumps(workload.genconfig) + "\n")
    write("tunerconfig", "tunerconfig.json", _dumps(tunerconfig) + "\n")
    return paths
