"""Self-tests of the benchmark itself (not part of the package's suite).

    python -m pytest -q bench/test_bench.py
"""

import json
import os
import sys

import pytest

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
sys.path[:0] = [p for p in (os.path.join(ROOT, "src"), BENCH) if p not in sys.path]

import checks  # noqa: E402
import runner  # noqa: E402
import workloads  # noqa: E402
from trajpredict.annotation import load_dataset_records  # noqa: E402
from trajpredict.costing import load_prediction_records  # noqa: E402
from trajpredict.scene import load_ego_plan, load_map  # noqa: E402

FIXTURES = os.path.join(ROOT, "tests", "fixtures")
GOLDEN = os.path.join(ROOT, "tests", "golden")


def _read_all(paths):
    out = {}
    for role, path in paths.items():
        if path is not None:
            with open(path, "rb") as fh:
                out[role] = fh.read()
    return out


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_generator_is_deterministic_per_seed(tmp_path, name):
    first = _read_all(workloads.generate(name, 0, str(tmp_path / "a")))
    again = _read_all(workloads.generate(name, 0, str(tmp_path / "b")))
    other = _read_all(workloads.generate(name, workloads.HELD_OUT_SEED, str(tmp_path / "c")))
    assert first == again
    assert first["log"] != other["log"]
    assert first.keys() == other.keys()


def test_city_grid_map_and_model_priors_keys(tmp_path):
    city = workloads.generate("city_grid", 0, str(tmp_path / "city"))
    doc = json.loads(_read_all(city)["map"])
    assert (len(doc["lanes"]), len(doc["exits"])) == (63, 27)

    scaled = workloads.generate("scaled_intersection", 0, str(tmp_path / "scaled"))
    rows = [json.loads(line) for line in _read_all(scaled)["priors"].splitlines()]
    # the model-style file keeps 3-decimal anchor times, never the exact anchor floats
    assert all(row["anchor_time"] == round(row["anchor_time"], 3) for row in rows)
    assert all(len(row["intentions"]) == 4 for row in rows)
    assert all(row["intentions"][-1]["id"] == workloads.PINNED_SEQUENCE for row in rows)


def test_runner_survives_a_child_flooding_stderr(tmp_path):
    size = 256 * 1024  # well past a 64 KiB pipe buffer
    code = (
        "import sys\n"
        f"sys.stderr.write('e' * {size})\n"
        f"sys.stdout.write('o' * {size})\n"
    )
    child = runner.run_child([sys.executable, "-c", code], str(tmp_path / "flood"), timeout_s=60)
    assert child.returncode == 0
    assert os.path.getsize(child.stderr_path) == size
    assert os.path.getsize(child.stdout_path) == size


def test_spawner_reports_each_childs_own_peak_rss(tmp_path):
    # This test process is far larger than `python -c pass`; a child started
    # from it directly would report at least this process's size.
    grow = "b = bytearray(80 * 1024 * 1024); b[::4096] = bytes(len(b[::4096]))"
    with runner.Spawner() as spawner:
        big = spawner.run_child([sys.executable, "-c", grow], str(tmp_path / "big"), timeout_s=60)
        small = spawner.run_child([sys.executable, "-c", "pass"], str(tmp_path / "small"), 60)
    assert big.returncode == small.returncode == 0
    assert big.maxrss_mb > 80
    assert small.maxrss_mb < 25


def test_runner_kills_a_child_past_its_timeout(tmp_path):
    child = runner.run_child(
        [sys.executable, "-c", "import time; time.sleep(30)"], str(tmp_path / "slow"), timeout_s=0.5
    )
    assert child.returncode == -9
    assert child.wall_s < 10


def _golden():
    predictions = load_prediction_records(os.path.join(GOLDEN, "predictions.jsonl"))
    dataset = load_dataset_records(os.path.join(GOLDEN, "dataset.jsonl"))
    return predictions, dataset


def test_intent_top1_on_golden_outputs():
    # By hand from tests/golden: six joined anchors carry an exit label.
    # veh_1 at 5, 6, 7 s is labelled exit_e and predicted exit_e (3 hits);
    # veh_2 at 4, 5, 6 s is labelled exit_n and predicted exit_e, exit_e,
    # exit_n (1 hit). So 4 of 6.
    predictions, dataset = _golden()
    map_graph = load_map(os.path.join(FIXTURES, "map.json"))
    assert checks.intent_top1(predictions, dataset, map_graph) == (4, 6)


def test_lane_sequence_intention_counts_as_the_exit_it_contains():
    map_graph = load_map(os.path.join(FIXTURES, "map.json"))
    assert checks.exit_of_intention("ln_approach_e->ln_x_left", map_graph) == "exit_n"
    assert checks.exit_of_intention("exit_s", map_graph) == "exit_s"
    assert checks.exit_of_intention("ln_out_e", map_graph) is None


def test_hinge_per_pair_on_golden_outputs():
    # 16 joined anchors: 12 with three intentions x 4 accelerations (12
    # candidates each) and 4 with one intention (4 each): 12*12 + 4*4 = 160
    # pairs. The tuner's reported final_loss is the summed hinge at the
    # weights it wrote, so the mean times the pairs must reproduce it.
    predictions, dataset = _golden()
    ego = load_ego_plan(os.path.join(FIXTURES, "ego.jsonl"))
    tuned = checks.load_json(os.path.join(GOLDEN, "tuned.json"))
    delta = checks.load_json(os.path.join(FIXTURES, "tunerconfig.json"))["delta"]
    per_pair, pairs = checks.hinge_per_pair(
        predictions, dataset, ego, checks.tuned_theta(tuned), delta
    )
    assert pairs == 160
    assert per_pair * pairs == pytest.approx(tuned["final_loss"], rel=1e-12)
    assert per_pair == pytest.approx(0.019571307652389548, rel=1e-12)


def test_golden_predictions_pass_the_record_checks():
    predictions, _ = _golden()
    grid = [(r["obstacle_id"], r["anchor_time"]) for r in predictions]
    assert checks.check_predictions(predictions, grid) == (0, [])

    broken = json.loads(json.dumps(predictions[0]))
    broken["intentions"][0]["posterior"] += 1e-6
    failed, problems = checks.check_predictions([broken], grid[:1])
    assert failed == 1 and "sum to" in problems[0]

    off_grid = dict(predictions[0], anchor_time=predictions[0]["anchor_time"] + 1e-12)
    failed, problems = checks.check_predictions([off_grid], grid[:1])
    assert failed == 1 and "anchor grid" in problems[0]
