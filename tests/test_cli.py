import json
import math
import os

import pytest

from conftest import write_json, write_jsonl
from trajpredict.cli import main

FIXTURES = os.path.join(os.path.dirname(__file__), "fixtures")
GOLDEN = os.path.join(os.path.dirname(__file__), "golden")


def fixture(name):
    return os.path.join(FIXTURES, name)


def golden(name):
    return os.path.join(GOLDEN, name)


def run_annotate(tmp_path, out="dataset.jsonl", **overrides):
    args = {
        "--log": fixture("obstacles.jsonl"),
        "--map": fixture("map.json"),
        "--horizon": "3.0",
        "--stride": "1.0",
        "--out": str(tmp_path / out),
    }
    args.update(overrides)
    argv = ["annotate"]
    for key, value in args.items():
        argv += [key, value]
    return main(argv), str(tmp_path / out)


def run_predict(tmp_path, out="predictions.jsonl", **overrides):
    args = {
        "--scene": fixture("obstacles.jsonl"),
        "--map": fixture("map.json"),
        "--ego": fixture("ego.jsonl"),
        "--priors": fixture("priors.jsonl"),
        "--weights": fixture("weights.json"),
        "--config": fixture("genconfig.json"),
        "--stride": "1.0",
        "--out": str(tmp_path / out),
    }
    args.update(overrides)
    argv = ["predict"]
    for key, value in args.items():
        argv += [key, value]
    return main(argv), str(tmp_path / out)


def run_tune(tmp_path, out="tuned.json", **overrides):
    """Tune on the golden predictions and dataset of the fixture scene."""
    args = {
        "--predictions": golden("predictions.jsonl"),
        "--dataset": golden("dataset.jsonl"),
        "--tuner-config": fixture("tunerconfig.json"),
        "--ego": fixture("ego.jsonl"),
        "--out": str(tmp_path / out),
    }
    args.update(overrides)
    argv = ["tune"]
    for key, value in args.items():
        argv += [key, value]
    return main(argv), str(tmp_path / out)


def edit_document(**changes):
    return lambda text: json.dumps({**json.loads(text), **changes})


def edit_first_line(**changes):
    def edit(text):
        first, rest = text.split("\n", 1)
        return json.dumps({**json.loads(first), **changes}) + "\n" + rest

    return edit


# Each case corrupts one input of one stage. JSON-lines inputs must be
# reported with their line, JSON documents with their file.
MALFORMED_INPUTS = [
    pytest.param(
        run_predict,
        "--priors",
        fixture("priors.jsonl"),
        edit_first_line(intentions=[{"id": "exit_e", "prior": math.nan}]),
        1,
        id="nan_prior",
    ),
    pytest.param(
        run_tune,
        "--dataset",
        golden("dataset.jsonl"),
        lambda text: "5\n" + text,
        1,
        id="non_object_dataset_line",
    ),
    pytest.param(
        run_predict,
        "--config",
        fixture("genconfig.json"),
        edit_document(horizon_secs=math.nan),
        None,
        id="nan_horizon",
    ),
    pytest.param(
        run_tune,
        "--tuner-config",
        fixture("tunerconfig.json"),
        edit_document(theta_init=["a", 1, 1]),
        None,
        id="string_theta_init",
    ),
    pytest.param(
        run_tune,
        "--predictions",
        golden("predictions.jsonl"),
        edit_first_line(z1=0.0),
        1,
        id="zero_normalizer",
    ),
    pytest.param(
        run_predict,
        "--weights",
        fixture("weights.json"),
        lambda text: text.replace('"z1": 5062.5', '"z1": 1e400'),
        5,
        id="overflowing_normalizer",
    ),
    pytest.param(
        run_predict,
        "--priors",
        fixture("priors.jsonl"),
        edit_first_line(obstacle_id=["x"]),
        1,
        id="list_prior_obstacle_id",
    ),
    pytest.param(
        run_predict,
        "--priors",
        fixture("priors.jsonl"),
        edit_first_line(intentions=[{"id": 5, "prior": 1.0}]),
        1,
        id="numeric_intention_id",
    ),
    pytest.param(
        run_tune,
        "--dataset",
        golden("dataset.jsonl"),
        edit_first_line(anchor_time=None),
        1,
        id="null_dataset_anchor_time",
    ),
    pytest.param(
        run_tune,
        "--predictions",
        golden("predictions.jsonl"),
        edit_first_line(obstacle_id=5),
        1,
        id="numeric_prediction_obstacle_id",
    ),
    pytest.param(
        run_tune,
        "--predictions",
        golden("predictions.jsonl"),
        lambda text: text.replace('"candidates":[[', '"candidates":[[-1.0,', 1),
        None,
        id="negative_candidate_subcost",
    ),
]


@pytest.mark.parametrize("runner, flag, source, edit, line", MALFORMED_INPUTS)
def test_malformed_input_is_reported_with_its_file(
    tmp_path, capsys, runner, flag, source, edit, line
):
    bad = tmp_path / ("bad_" + os.path.basename(source))
    with open(source, encoding="utf-8") as fh:
        bad.write_text(edit(fh.read()), encoding="utf-8")
    code, out = runner(tmp_path, **{flag: str(bad)})
    assert code in (1, 2)
    location = f"{bad}:{line}:" if line else str(bad)
    assert capsys.readouterr().err.startswith(f"error: {location}")
    assert not os.path.exists(out)


class TestAnnotateCommand:
    def test_fixture_record_count(self, tmp_path, capsys):
        code, out = run_annotate(tmp_path)
        assert code == 0
        summary = json.loads(capsys.readouterr().out)
        assert summary["records"] == 16 and summary["skipped"] == 6
        assert len(open(out).read().splitlines()) == 16

    def test_missing_required_flag_is_usage_error(self, tmp_path):
        assert main(["annotate", "--map", fixture("map.json")]) == 2

    def test_zero_horizon_is_usage_error(self, tmp_path):
        code, _ = run_annotate(tmp_path, **{"--horizon": "0"})
        assert code == 2

    def test_missing_file_is_data_error(self, tmp_path):
        code = main(
            [
                "annotate",
                "--log",
                str(tmp_path / "nope.jsonl"),
                "--map",
                fixture("map.json"),
                "--horizon",
                "3.0",
                "--stride",
                "1.0",
                "--out",
                str(tmp_path / "d.jsonl"),
            ]
        )
        assert code == 1

    def test_dangling_map_reference_is_data_error(self, tmp_path):
        bad_map = write_json(
            tmp_path / "bad.json",
            {"lanes": [{"id": "l1", "centerline": [[0, 0], [1, 0]], "successors": ["ghost"]}]},
        )
        code, _ = run_annotate(tmp_path, **{"--map": bad_map})
        assert code == 1


class TestPredictCommand:
    def test_posteriors_sum_to_one(self, tmp_path, capsys):
        code, out = run_predict(tmp_path)
        assert code == 0
        records = [json.loads(line) for line in open(out)]
        assert len(records) == 22
        for record in records:
            total = math.fsum(e["posterior"] for e in record["intentions"])
            assert abs(total - 1.0) <= 1e-9

    def test_supplied_priors_override_heuristic(self, tmp_path):
        _, out = run_predict(tmp_path)
        records = [json.loads(line) for line in open(out)]
        at_two = next(
            r for r in records if r["obstacle_id"] == "veh_1" and r["anchor_time"] == 2.0
        )
        priors = {e["intention_id"]: e["prior"] for e in at_two["intentions"]}
        assert priors == pytest.approx({"exit_e": 0.4, "exit_n": 0.4, "exit_s": 0.2})

    def test_records_sorted_by_key(self, tmp_path):
        _, out = run_predict(tmp_path)
        keys = [
            (r["obstacle_id"], r["anchor_time"])
            for r in (json.loads(line) for line in open(out))
        ]
        assert keys == sorted(keys)

    def test_empty_scene_produces_empty_output(self, tmp_path):
        empty = tmp_path / "empty.jsonl"
        empty.write_text("")
        code, out = run_predict(tmp_path, **{"--scene": str(empty)})
        assert code == 0
        assert open(out).read() == ""

    def test_rerun_is_byte_identical(self, tmp_path):
        _, first = run_predict(tmp_path, out="a.jsonl")
        _, second = run_predict(tmp_path, out="b.jsonl")
        assert open(first, "rb").read() == open(second, "rb").read()

    def test_off_map_obstacles_skipped_not_fatal(self, tmp_path, capsys):
        log = write_jsonl(
            tmp_path / "offmap.jsonl",
            [
                {"obstacle_id": "lost", "t": 0.1 * k, "x": 500.0 + k, "y": 500.0, "heading": 0.0, "speed": 10.0}
                for k in range(30)
            ],
        )
        code, out = run_predict(tmp_path, **{"--scene": log})
        assert code == 0
        assert open(out).read() == ""
        captured = capsys.readouterr()
        assert "lost" in captured.err
        assert json.loads(captured.out)["skipped"] == 3


class TestTuneCommand:
    def _predictions_and_dataset(self, tmp_path):
        _, dataset = run_annotate(tmp_path)
        _, predictions = run_predict(tmp_path)
        return predictions, dataset

    def test_writes_tuned_weights(self, tmp_path, capsys):
        predictions, dataset = self._predictions_and_dataset(tmp_path)
        out = str(tmp_path / "tuned.json")
        code = main(
            [
                "tune",
                "--predictions",
                predictions,
                "--dataset",
                dataset,
                "--tuner-config",
                fixture("tunerconfig.json"),
                "--ego",
                fixture("ego.jsonl"),
                "--out",
                out,
            ]
        )
        assert code == 0
        tuned = json.load(open(out))
        assert set(tuned) == {
            "theta_acc",
            "theta_centripetal",
            "theta_collision",
            "z1",
            "z2",
            "final_loss",
            "iterations",
        }
        assert tuned["z1"] == 5062.5 and tuned["z2"] == 40.0
        assert all(tuned[k] >= 0.0 for k in ("theta_acc", "theta_centripetal", "theta_collision"))

    def test_tuned_weights_feed_predict(self, tmp_path):
        code, tuned = run_tune(tmp_path)
        assert code == 0
        code, _ = run_predict(tmp_path, **{"--weights": tuned})
        assert code == 0

    def test_empty_join_is_data_error(self, tmp_path, capsys):
        predictions, _ = self._predictions_and_dataset(tmp_path)
        other_dataset = write_jsonl(
            tmp_path / "other.jsonl",
            [
                {
                    "road_test_id": "r",
                    "obstacle_id": "nobody",
                    "anchor_time": 0.0,
                    "history": [],
                    "future": [[0.1, 0.0, 0.0]],
                    "exit_label": None,
                    "lane_sequence_label": None,
                }
            ],
        )
        code = main(
            [
                "tune",
                "--predictions",
                predictions,
                "--dataset",
                other_dataset,
                "--tuner-config",
                fixture("tunerconfig.json"),
                "--out",
                str(tmp_path / "t.json"),
            ]
        )
        assert code == 1
        assert "no tuning examples" in capsys.readouterr().err

    def test_rerun_identical(self, tmp_path):
        predictions, dataset = self._predictions_and_dataset(tmp_path)
        outs = []
        for name in ("t1.json", "t2.json"):
            out = str(tmp_path / name)
            assert (
                main(
                    [
                        "tune",
                        "--predictions",
                        predictions,
                        "--dataset",
                        dataset,
                        "--tuner-config",
                        fixture("tunerconfig.json"),
                        "--ego",
                        fixture("ego.jsonl"),
                        "--out",
                        out,
                    ]
                )
                == 0
            )
            outs.append(open(out, "rb").read())
        assert outs[0] == outs[1]


class TestEvalCommand:
    def test_self_evaluation_is_zero(self, tmp_path, capsys):
        _, dataset = run_annotate(tmp_path)
        # predictions whose best trajectory is the label itself
        records = []
        for line in open(dataset):
            r = json.loads(line)
            records.append(
                {
                    "obstacle_id": r["obstacle_id"],
                    "anchor_time": r["anchor_time"],
                    "z1": 1.0,
                    "z2": 1.0,
                    "selected_intention": "truth",
                    "intentions": [
                        {
                            "intention_id": "truth",
                            "prior": 1.0,
                            "min_cost": 0.0,
                            "likelihood": 1.0,
                            "posterior": 1.0,
                            "best_trajectory": {
                                "profile": {"v0": 0, "a": 0, "duration": 3.0, "resolution": 0.1, "v_max": None},
                                "points": [[t, x, y, 0.0, 0.0, 0.0] for t, x, y in r["future"]],
                            },
                            "candidates": [[0.0, 0.0, 0.0, 0.0]],
                        }
                    ],
                }
            )
        predictions = write_jsonl(tmp_path / "self.jsonl", records)
        out = str(tmp_path / "report.json")
        code = main(
            ["eval", "--predictions", predictions, "--dataset", dataset, "--horizons", "1,3", "--out", out]
        )
        assert code == 0
        report = json.load(open(out))
        assert [e["h"] for e in report["horizons"]] == [1.0, 3.0]
        for entry in report["horizons"]:
            assert entry["ade"] == 0.0 and entry["fde"] == 0.0 and entry["count"] == 16

    def test_horizons_parsing_contract(self, tmp_path):
        _, dataset = run_annotate(tmp_path)
        _, predictions = run_predict(tmp_path)
        out = str(tmp_path / "report.json")
        code = main(
            ["eval", "--predictions", predictions, "--dataset", dataset, "--horizons", "1,3", "--out", out]
        )
        assert code == 0
        assert len(json.load(open(out))["horizons"]) == 2

    def test_malformed_horizons_is_usage_error(self, tmp_path):
        _, dataset = run_annotate(tmp_path)
        _, predictions = run_predict(tmp_path)
        code = main(
            [
                "eval",
                "--predictions",
                predictions,
                "--dataset",
                dataset,
                "--horizons",
                "1;;3",
                "--out",
                str(tmp_path / "r.json"),
            ]
        )
        assert code == 2

    def test_prints_aligned_table(self, tmp_path, capsys):
        _, dataset = run_annotate(tmp_path)
        _, predictions = run_predict(tmp_path)
        capsys.readouterr()
        main(
            [
                "eval",
                "--predictions",
                predictions,
                "--dataset",
                dataset,
                "--horizons",
                "1,3",
                "--out",
                str(tmp_path / "r.json"),
            ]
        )
        lines = capsys.readouterr().out.splitlines()
        assert "horizon" in lines[0] and "ade" in lines[0] and "fde" in lines[0]
        assert len(lines) == 3


class TestCliContract:
    def test_help_exits_zero(self):
        assert main(["--help"]) == 0

    def test_unknown_command_is_usage_error(self):
        assert main(["frobnicate"]) == 2

    def test_outputs_written_atomically(self, tmp_path):
        code, out = run_annotate(tmp_path)
        assert code == 0
        leftovers = [p for p in os.listdir(tmp_path) if p.endswith(".tmp")]
        assert leftovers == []

    def test_stale_tmp_directory_does_not_block_output(self, tmp_path):
        os.mkdir(tmp_path / "dataset.jsonl.tmp")
        code, out = run_annotate(tmp_path)
        assert code == 0
        assert os.path.isfile(out)
        assert sorted(os.listdir(tmp_path)) == ["dataset.jsonl", "dataset.jsonl.tmp"]

    def test_inputs_not_mutated(self, tmp_path):
        before = open(fixture("obstacles.jsonl"), "rb").read()
        run_annotate(tmp_path)
        run_predict(tmp_path)
        assert open(fixture("obstacles.jsonl"), "rb").read() == before
