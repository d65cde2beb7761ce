import contextlib
import functools
import io
import json
import math
import operator
import os
import random
import signal
import subprocess
import sys
import time
import warnings
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import trajpredict
from conftest import make_track, write_json, write_jsonl
from trajpredict import annotation, cli, costing, generation, scene
from trajpredict.cli import main
from trajpredict.generation import GenerationConfig
from trajpredict.geometry import project_point
from trajpredict.scene import EgoPlan, time_grid

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


def run_eval(tmp_path, out="report.json", **overrides):
    """Evaluate the golden predictions against the golden dataset."""
    args = {
        "--predictions": golden("predictions.jsonl"),
        "--dataset": golden("dataset.jsonl"),
        "--out": str(tmp_path / out),
    }
    args.update(overrides)
    argv = ["eval"]
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


def edit_first_map_entry(kind, **changes):
    def edit(text):
        doc = json.loads(text)
        doc[kind][0].update(changes)
        return json.dumps(doc)

    return edit


def bare_overflow(text):
    """text with each JSON string "1e400" or "-1e400" written as the bare
    literal, which json.dumps cannot write and which decodes to inf or -inf."""
    return text.replace('"1e400"', "1e400").replace('"-1e400"', "-1e400")


def append_state(**changes):
    """Append a copy of the log's first state with changes applied."""
    return lambda text: text + json.dumps({**json.loads(text.split("\n", 1)[0]), **changes}) + "\n"


def edit_log_rows(change):
    """Apply change(index, row) to every row of an obstacle log."""

    def edit(text):
        rows = [json.loads(line) for line in text.splitlines()]
        return "".join(json.dumps(change(k, row)) + "\n" for k, row in enumerate(rows))

    return edit


def _overflowing_veh_1_step(k, row):
    """veh_1's 4th and 5th rows at x = 1.7e308 and -1.7e308: each is finite,
    but an interpolated position between them is not."""
    return {**row, "x": {3: 1.7e308, 4: -1.7e308}.get(k, row["x"])}


def _far_veh_1(k, row):
    """veh_1 shifted by 1e200 m, beyond the norm of the rows annotate writes."""
    return {**row, "x": row["x"] + 1e200} if row["obstacle_id"] == "veh_1" else row


def repeat_first_intention(text):
    """text with the first record's first intention repeated at its end."""
    first, rest = text.split("\n", 1)
    record = json.loads(first)
    record["intentions"].append(record["intentions"][0])
    return json.dumps(record) + "\n" + rest


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
        "--tuner-config",
        fixture("tunerconfig.json"),
        edit_document(max_iters=0, theta_init=[-1.0, 1.0, 1.0]),
        None,
        id="negative_theta_init",
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
    pytest.param(
        run_tune,
        "--dataset",
        golden("dataset.jsonl"),
        edit_first_line(future=[[0.1, 1.0]]),
        1,
        id="short_future_row_tune",
    ),
    pytest.param(
        run_eval,
        "--dataset",
        golden("dataset.jsonl"),
        edit_first_line(future=[[0.1, 1.0]]),
        1,
        id="short_future_row_eval",
    ),
    pytest.param(
        run_eval,
        "--predictions",
        golden("predictions.jsonl"),
        lambda text: text.replace('"points":[[', '"points":[[0.1,1.0],[', 1),
        1,
        id="short_point_row",
    ),
    pytest.param(
        run_tune,
        "--predictions",
        golden("predictions.jsonl"),
        lambda text: text.replace('"candidates":[[', '"candidates":[[1.0],[', 1),
        1,
        id="short_candidate_row",
    ),
    pytest.param(
        run_tune,
        "--predictions",
        golden("predictions.jsonl"),
        repeat_first_intention,
        1,
        id="repeated_intention_id_tune",
    ),
    pytest.param(
        run_eval,
        "--predictions",
        golden("predictions.jsonl"),
        repeat_first_intention,
        1,
        id="repeated_intention_id_eval",
    ),
    pytest.param(
        run_tune,
        "--dataset",
        golden("dataset.jsonl"),
        edit_first_line(future=[[0.1, "x", 0.0]]),
        1,
        id="string_future_entry_tune",
    ),
    pytest.param(
        run_eval,
        "--dataset",
        golden("dataset.jsonl"),
        edit_first_line(future=[[0.1, "x", 0.0]]),
        1,
        id="string_future_entry_eval",
    ),
    pytest.param(
        run_tune,
        "--dataset",
        golden("dataset.jsonl"),
        edit_first_line(future=[[0.1, 10**400, 0.0]]),
        1,
        id="huge_int_future_entry_tune",
    ),
    pytest.param(
        run_eval,
        "--dataset",
        golden("dataset.jsonl"),
        edit_first_line(future=[[0.1, 10**400, 0.0]]),
        1,
        id="huge_int_future_entry_eval",
    ),
    pytest.param(
        run_eval,
        "--dataset",
        golden("dataset.jsonl"),
        edit_first_line(future=[[0.1, 1e200, 0.0]]),
        1,
        id="huge_float_future_entry",
    ),
    pytest.param(
        run_eval,
        "--dataset",
        golden("dataset.jsonl"),
        edit_first_line(future=[[0.2, 1.0, 0.0], [0.1, 2.0, 0.0]]),
        1,
        id="unordered_future_times",
    ),
    pytest.param(
        run_eval,
        "--predictions",
        golden("predictions.jsonl"),
        lambda text: text.replace('"points":[[0.1,', '"points":[[0.15,', 1),
        None,
        id="misaligned_best_trajectory_time",
    ),
    pytest.param(
        run_tune,
        "--predictions",
        golden("predictions.jsonl"),
        lambda text: text.replace('"candidates":[[', '"candidates":[[null,', 1),
        1,
        id="null_candidate_entry",
    ),
    pytest.param(
        run_tune,
        "--predictions",
        golden("predictions.jsonl"),
        lambda text: text.replace('"candidates":[[', '"candidates":[["1.5",', 1),
        1,
        id="string_candidate_entry",
    ),
    pytest.param(
        run_eval,
        "--predictions",
        golden("predictions.jsonl"),
        lambda text: text.replace('"points":[[', '"points":[[null,', 1),
        1,
        id="null_selected_point_entry",
    ),
    pytest.param(
        run_tune,
        "--predictions",
        golden("predictions.jsonl"),
        edit_first_line(intentions=5),
        1,
        id="numeric_intentions_tune",
    ),
    pytest.param(
        run_eval,
        "--predictions",
        golden("predictions.jsonl"),
        edit_first_line(intentions=5),
        1,
        id="numeric_intentions_eval",
    ),
    pytest.param(
        run_predict,
        "--map",
        fixture("map.json"),
        edit_document(lanes=5),
        None,
        id="numeric_map_lanes",
    ),
    pytest.param(
        run_predict,
        "--map",
        fixture("map.json"),
        edit_first_map_entry("exits", lane_id=["x"]),
        None,
        id="list_exit_lane_id",
    ),
    pytest.param(
        run_predict,
        "--map",
        fixture("map.json"),
        edit_first_map_entry("lanes", successors=5),
        None,
        id="numeric_lane_successors",
    ),
    pytest.param(
        run_predict,
        "--map",
        fixture("map.json"),
        edit_first_map_entry("exits", x=10**400),
        None,
        id="huge_int_exit_x",
    ),
    pytest.param(
        run_predict,
        "--map",
        fixture("map.json"),
        edit_first_map_entry("lanes", centerline=[[10**400, 0.0], [0.0, 0.0]]),
        None,
        id="huge_int_centerline_coordinate",
    ),
    pytest.param(
        run_annotate,
        "--map",
        fixture("map.json"),
        edit_first_map_entry("exits", x="1.5"),
        None,
        id="string_exit_x",
    ),
    pytest.param(
        run_annotate,
        "--map",
        fixture("map.json"),
        edit_first_map_entry("exits", y=True),
        None,
        id="boolean_exit_y",
    ),
    pytest.param(
        run_predict,
        "--weights",
        fixture("weights.json"),
        edit_document(theta_acc=10**400),
        None,
        id="huge_int_weight",
    ),
    pytest.param(
        run_predict,
        "--weights",
        fixture("weights.json"),
        edit_document(z1="5062.5"),
        None,
        id="string_normalizer",
    ),
    pytest.param(
        run_predict,
        "--weights",
        fixture("weights.json"),
        edit_document(theta_acc=True),
        None,
        id="boolean_weight",
    ),
    pytest.param(
        run_predict,
        "--weights",
        fixture("weights.json"),
        edit_document(theta_acc=1e308),
        None,
        id="weight_overflowing_the_cost",
    ),
    pytest.param(
        run_predict,
        "--weights",
        fixture("weights.json"),
        edit_document(z1=1e-308),
        None,
        id="normalizer_overflowing_the_cost",
    ),
    pytest.param(
        run_predict,
        "--config",
        fixture("genconfig.json"),
        edit_document(temperature=5e-324),
        None,
        id="temperature_giving_nan_priors",
    ),
    pytest.param(
        run_predict,
        "--config",
        fixture("genconfig.json"),
        edit_document(horizon_secs=1e12),
        None,
        id="candidate_grid_beyond_the_ceiling",
    ),
    pytest.param(
        run_predict,
        "--config",
        fixture("genconfig.json"),
        # 84,000 times by 4 accelerations: 1,008,000 points on the first anchor's third exit
        edit_document(horizon_secs=8400),
        None,
        id="candidate_points_beyond_the_ceiling",
    ),
    pytest.param(
        run_annotate,
        "--log",
        fixture("obstacles.jsonl"),
        append_state(t=1e100),
        None,
        id="huge_timestamp_annotate",
    ),
    pytest.param(
        run_predict,
        "--scene",
        fixture("obstacles.jsonl"),
        append_state(t=1e100),
        None,
        id="huge_timestamp_predict",
    ),
    pytest.param(
        run_annotate,
        "--log",
        fixture("obstacles.jsonl"),
        append_state(obstacle_id="lone", t=1e20),
        None,
        id="stride_lost_to_rounding_annotate",
    ),
    pytest.param(
        run_predict,
        "--map",
        fixture("map.json"),
        edit_first_map_entry("lanes", centerline=[[1e-170, 0], [0, 0], [0, -5]]),
        None,
        id="centerline_segment_whose_square_underflows",
    ),
    pytest.param(
        run_predict,
        "--priors",
        fixture("priors.jsonl"),
        edit_first_line(
            intentions=[{"id": "exit_e", "prior": 1e308}, {"id": "exit_n", "prior": 1e308}]
        ),
        1,
        id="priors_whose_total_overflows",
    ),
    pytest.param(
        run_predict,
        "--scene",
        fixture("obstacles.jsonl"),
        append_state(obstacle_id="lone", t=1e20),
        None,
        id="stride_lost_to_rounding_predict",
    ),
    pytest.param(
        run_predict,
        "--scene",
        fixture("obstacles.jsonl"),
        edit_log_rows(_overflowing_veh_1_step),
        4,
        id="log_positions_whose_difference_overflows",
    ),
    pytest.param(
        run_annotate,
        "--log",
        fixture("obstacles.jsonl"),
        edit_log_rows(_far_veh_1),
        1,
        id="log_position_beyond_the_row_norm",
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


# An obstacle-log position is bounded as the rows annotate writes are, so a
# dataset that annotate writes is one that tune and eval read.
@pytest.mark.parametrize("runner, flag", [(run_annotate, "--log"), (run_predict, "--scene")])
@pytest.mark.parametrize(
    "change, message",
    [
        pytest.param(
            _overflowing_veh_1_step,
            "4: position (1.7e+308, 0.0) must have a norm of at most 1e+100",
            id="difference_overflows",
        ),
        pytest.param(
            _far_veh_1,
            "1: position (1e+200, 0.0) must have a norm of at most 1e+100",
            id="beyond_the_row_norm",
        ),
    ],
)
def test_log_position_beyond_the_row_norm_is_refused(
    tmp_path, capsys, runner, flag, change, message
):
    bad = tmp_path / "bad_obstacles.jsonl"
    with open(fixture("obstacles.jsonl"), encoding="utf-8") as fh:
        bad.write_text(edit_log_rows(change)(fh.read()), encoding="utf-8")
    code, out = runner(tmp_path, **{flag: str(bad)})
    assert code == 1
    assert capsys.readouterr().err == f"error: {bad}:{message}\n"
    assert not os.path.exists(out)


# A JSON-lines record is decoded without checking for overflowing literals:
# the reader of each number refuses one with the record's line.
@pytest.mark.parametrize(
    "runner, flag, source, edit, message",
    [
        pytest.param(
            run_annotate,
            "--log",
            fixture("obstacles.jsonl"),
            lambda text: bare_overflow(edit_first_line(x="1e400")(text)),
            "key 'x' must be a finite number, got inf",
            id="obstacle_x",
        ),
        pytest.param(
            run_predict,
            "--priors",
            fixture("priors.jsonl"),
            lambda text: bare_overflow(
                edit_first_line(intentions=[{"id": "exit_e", "prior": "1e400"}])(text)
            ),
            "key 'prior' must be a finite number, got inf",
            id="prior",
        ),
        pytest.param(
            run_tune,
            "--predictions",
            golden("predictions.jsonl"),
            lambda text: text.replace('"candidates":[[', '"candidates":[[1e400,', 1),
            "'candidates' must be a list of rows of 4+ numbers of norm at most 1e+100",
            id="candidate_row",
        ),
    ],
)
def test_overflowing_record_number_is_refused_by_its_reader(
    tmp_path, capsys, runner, flag, source, edit, message
):
    bad = tmp_path / ("bad_" + os.path.basename(source))
    with open(source, encoding="utf-8") as fh:
        bad.write_text(edit(fh.read()), encoding="utf-8")
    code, out = runner(tmp_path, **{flag: str(bad)})
    assert code == 1
    assert capsys.readouterr().err == f"error: {bad}:1: {message}\n"
    assert not os.path.exists(out)


# hypot takes true and false as 1 and 0, so rows() refuses booleans itself
@pytest.mark.parametrize(
    "runner, flag, source, edit, where, message",
    [
        pytest.param(
            run_annotate,
            "--map",
            fixture("map.json"),
            edit_first_map_entry("lanes", centerline=[[-80.0, 0.0], [-50.0, False], [-15.0, 0.0]]),
            " lane 'ln_approach_e'",
            "'centerline' must be a list of rows of 2+ numbers",
            id="map_centerline",
        ),
        pytest.param(
            run_eval,
            "--dataset",
            golden("dataset.jsonl"),
            lambda text: text.replace('"future":[[0.1,-59.0,0.0]', '"future":[[0.1,-59.0,true]', 1),
            "1",
            "'future' must be a list of rows of 3+ numbers",
            id="dataset_future",
        ),
        pytest.param(
            run_tune,
            "--predictions",
            golden("predictions.jsonl"),
            lambda text: text.replace('"candidates":[[160.0,0.0,', '"candidates":[[160.0,true,', 1),
            "1",
            "'candidates' must be a list of rows of 4+ numbers",
            id="candidate_row",
        ),
    ],
)
def test_boolean_row_entry_is_refused_by_its_reader(
    tmp_path, capsys, runner, flag, source, edit, where, message
):
    with open(source, encoding="utf-8") as fh:
        text = fh.read()
    bad = tmp_path / ("bad_" + os.path.basename(source))
    bad.write_text(edit(text), encoding="utf-8")
    assert bad.read_text(encoding="utf-8") != text
    code, out = runner(tmp_path, **{flag: str(bad)})
    assert code == 1
    assert capsys.readouterr().err == f"error: {bad}:{where}: {message} of norm at most 1e+100\n"
    assert not os.path.exists(out)


@pytest.mark.parametrize(
    "runner, flag, source, line",
    [
        # far enough into the file that text mode has read past it in chunks
        pytest.param(run_eval, "--predictions", golden("predictions.jsonl"), 12, id="jsonl"),
        pytest.param(run_tune, "--tuner-config", fixture("tunerconfig.json"), 7, id="document"),
    ],
)
def test_invalid_utf8_is_reported_with_its_line(tmp_path, capsys, runner, flag, source, line):
    with open(source, "rb") as fh:
        lines = fh.read().split(b"\n")
    lines[line - 1] = lines[line - 1].replace(b"1", b"\xff1", 1)
    bad = tmp_path / ("bad_" + os.path.basename(source))
    bad.write_bytes(b"\n".join(lines))
    code, out = runner(tmp_path, **{flag: str(bad)})
    assert code == 1
    assert capsys.readouterr().err == f"error: {bad}:{line}: invalid UTF-8 byte 0xff\n"
    assert not os.path.exists(out)


@pytest.mark.parametrize("runner", [run_eval, run_tune])
def test_selected_intention_outside_the_intentions_is_reported_with_its_line(
    tmp_path, capsys, runner
):
    with open(golden("predictions.jsonl"), encoding="utf-8") as fh:
        text = fh.read()
    bad = tmp_path / "bad_predictions.jsonl"
    bad.write_text(
        text.replace('"selected_intention":"exit_e"', '"selected_intention":"exit_q"'),
        encoding="utf-8",
    )
    code, out = runner(tmp_path, **{"--predictions": str(bad)})
    assert code == 1
    assert capsys.readouterr().err == (
        f"error: {bad}:1: selected intention 'exit_q' not among intentions\n"
    )
    assert not os.path.exists(out)


def test_overflowing_descent_step_is_blamed_on_the_tuner_config(tmp_path, capsys):
    config = write_json(tmp_path / "tuner.json", {"learning_rate": 1e308, "max_iters": 5})
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # a numpy RuntimeWarning fails the run
        code, out = run_tune(tmp_path, **{"--tuner-config": config})
    assert code == 2
    assert capsys.readouterr().err == (
        f"error: {config}: learning_rate 1e+308 overflows the descent\n"
    )
    assert not os.path.exists(out)


NON_FINITE_COSTS = "the generation config gives non-finite sub-costs"


@pytest.mark.parametrize(
    "flag, source, edit, message",
    [
        pytest.param(
            "--config",
            "genconfig.json",
            edit_document(accel_set=[1e300], a_max=1e300, v_max=1e300),
            NON_FINITE_COSTS,
            id="acceleration_whose_square_overflows",
        ),
        pytest.param(
            "--config",
            "genconfig.json",
            # each squared acceleration is finite, their sum is not
            edit_document(accel_set=[1e154], a_max=1e300, v_max=1e300),
            NON_FINITE_COSTS,
            id="accelerations_whose_sum_overflows",
        ),
        pytest.param(
            "--weights",
            "weights.json",
            edit_document(theta_acc=1e308),
            "the weights give non-finite costs",
            id="weight_overflowing_the_total",
        ),
    ],
)
def test_non_finite_costs_name_the_file_at_fault(tmp_path, capsys, flag, source, edit, message):
    bad = tmp_path / ("bad_" + source)
    with open(fixture(source), encoding="utf-8") as fh:
        bad.write_text(edit(fh.read()), encoding="utf-8")
    code, out = run_predict(tmp_path, **{flag: str(bad)})
    assert code == 2
    assert capsys.readouterr().err.startswith(f"error: {bad}: {message} for obstacle 'veh_1'")
    assert not os.path.exists(out)


def test_accel_set_without_an_admissible_acceleration_is_blamed_on_the_config(tmp_path, capsys):
    bad = tmp_path / "bad_genconfig.json"
    with open(fixture("genconfig.json"), encoding="utf-8") as fh:
        bad.write_text(edit_document(accel_set=[5.0])(fh.read()), encoding="utf-8")
    code, out = run_predict(tmp_path, **{"--config": str(bad)})
    assert code == 2
    assert capsys.readouterr() == (
        "",
        f"error: {bad}: accel_set has no acceleration within [a_min, a_max] = [-6.0, 4.0]\n",
    )
    assert not os.path.exists(out)


def test_refusal_on_a_later_anchor_leaves_no_output(tmp_path, monkeypatch, capsys):
    # veh_1 from 6 s on reaches one lane path per anchor (160 points), veh_2 at
    # its first anchor three (480): the ceiling of 300 refuses veh_2 after
    # veh_1's records have gone to the temp file
    rows = [json.loads(line) for line in Path(fixture("obstacles.jsonl")).read_text(encoding="utf-8").splitlines()]
    log = write_jsonl(
        tmp_path / "log.jsonl", [r for r in rows if r["obstacle_id"] == "veh_2" or r["t"] >= 6.0]
    )
    written = []
    to_record = costing.result_to_record

    def counting_result_to_record(result, weights):
        written.append(result.obstacle_id)
        return to_record(result, weights)

    monkeypatch.setattr(cli, "MAX_GRID_TIMES", 300)
    monkeypatch.setattr(costing, "result_to_record", counting_result_to_record)
    monkeypatch.setattr(cli, "_process_count", lambda: 1)  # a forked share's calls are not counted here
    code, out = run_predict(tmp_path, **{"--scene": log})
    assert code == 2
    assert "would hold more than 300 points" in capsys.readouterr().err
    assert written == ["veh_1"] * 6
    assert sorted(os.listdir(tmp_path)) == ["log.jsonl"]


@pytest.mark.parametrize(
    "runner, flag, value",
    [
        (run_annotate, "--stride", "nan"),
        (run_annotate, "--horizon", "nan"),
        (run_annotate, "--resolution", "nan"),
        (run_annotate, "--resolution", "inf"),
        (run_predict, "--stride", "nan"),
        (run_eval, "--horizons", "nan"),
        (run_eval, "--horizons", "1,nan"),
        (run_eval, "--horizons", "inf"),
    ],
)
def test_non_finite_number_is_usage_error(tmp_path, capsys, runner, flag, value):
    code, out = runner(tmp_path, **{flag: value})
    assert code == 2
    assert capsys.readouterr().err.startswith(f"error: {flag} ")
    assert not os.path.exists(out)


JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats(allow_nan=False) | st.text(),
    lambda inner: st.lists(inner) | st.dictionaries(st.text(), inner),
    max_leaves=4,
)
# the fuzz tests write these strings out as bare literals (bare_overflow)
PLANTED_VALUES = st.sampled_from(["1e400", "-1e400"]) | JSON_VALUES


@settings(max_examples=25, deadline=None, derandomize=True)
@given(data=st.data())
def test_any_row_entry_is_read_or_reported(tmp_path_factory, data):
    """One entry of one row of a golden tune/eval input becomes any JSON value."""
    name = data.draw(st.sampled_from(["dataset.jsonl", "predictions.jsonl"]))
    with open(golden(name), encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    index = data.draw(st.integers(0, len(lines) - 1))
    record = json.loads(lines[index])
    row_lists = [record.get("future")] + [
        rows
        for entry in record.get("intentions", [])
        for rows in (entry["best_trajectory"]["points"], entry["candidates"])
    ]
    row = data.draw(st.sampled_from([row for rows in row_lists if rows for row in rows]))
    row[data.draw(st.integers(0, len(row) - 1))] = data.draw(PLANTED_VALUES)
    lines[index] = bare_overflow(json.dumps(record))

    tmp = tmp_path_factory.mktemp("fuzz")
    bad = tmp / name
    bad.write_text("\n".join(lines) + "\n", encoding="utf-8")
    flag = "--dataset" if name == "dataset.jsonl" else "--predictions"
    # a short descent keeps each example fast; the loaders are what is fuzzed
    short_tuner = write_json(tmp / "tuner.json", {"max_iters": 10})
    inputs = {"--predictions": golden("predictions.jsonl"), "--dataset": golden("dataset.jsonl")}
    inputs[flag] = str(bad)
    for runner, extra in ((run_tune, {"--tuner-config": short_tuner}), (run_eval, {})):
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code, _ = runner(tmp, **inputs, **extra)
        assert code in (0, 1, 2)
        if code:
            # a loader names the line; a refused join names both files
            loader = f"error: {bad}:{index + 1}:"
            join = f"error: {inputs['--predictions']}, {inputs['--dataset']}: "
            assert err.getvalue().startswith((loader, join))


PREDICT_INPUTS = {
    "--map": fixture("map.json"),
    "--scene": fixture("obstacles.jsonl"),
    "--ego": fixture("ego.jsonl"),
    "--priors": fixture("priors.jsonl"),
    "--weights": fixture("weights.json"),
    "--config": fixture("genconfig.json"),
}


def entry_paths(value, path=()):
    """The key path of every entry nested in value, at any depth."""
    if isinstance(value, list):
        value = dict(enumerate(value))
    if isinstance(value, dict):
        for key, entry in value.items():
            yield path + (key,)
            yield from entry_paths(entry, path + (key,))


@settings(max_examples=150, deadline=None, derandomize=True)
@given(data=st.data())
def test_any_predict_input_entry_is_read_or_reported(tmp_path_factory, data):
    """One entry, at any depth, of one document of a predict input becomes any JSON value."""
    flag = data.draw(st.sampled_from(sorted(PREDICT_INPUTS)))
    with open(PREDICT_INPUTS[flag], encoding="utf-8") as fh:
        text = fh.read()
    jsonl = PREDICT_INPUTS[flag].endswith(".jsonl")
    docs = [json.loads(line) for line in text.splitlines()] if jsonl else [json.loads(text)]
    doc = docs[data.draw(st.integers(0, len(docs) - 1))]
    path = data.draw(st.sampled_from(list(entry_paths(doc))))
    parent = functools.reduce(operator.getitem, path[:-1], doc)
    parent[path[-1]] = data.draw(PLANTED_VALUES)

    bad = tmp_path_factory.mktemp("fuzz") / os.path.basename(PREDICT_INPUTS[flag])
    bad.write_text(bare_overflow("".join(json.dumps(d) + "\n" for d in docs)), encoding="utf-8")
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code, _ = run_predict(bad.parent, **{flag: str(bad), "--stride": "2.0"})
    assert code in (0, 1, 2)
    if code:
        assert err.getvalue().startswith(f"error: {bad}")


def old_shape_predictions(tmp_path, monkeypatch):
    """The golden predictions in the shape written before a best trajectory held
    only [t, x, y] rows: each row with its candidate's v, kappa and a after
    them, and each intention with its likelihood exp(-min_cost)."""
    record_of = costing.result_to_record

    def old_record(result, weights):
        record = record_of(result, weights)
        for ranking, entry in zip(result.intentions, record["intentions"]):
            best = ranking.best_trajectory
            entry["best_trajectory"]["points"] = [
                list(row)
                for row in zip(
                    best.times, best.xs, best.ys, best.speeds, best.curvatures, best.accels
                )
            ]
            # the likelihood went between min_cost and posterior
            tail = {key: entry.pop(key) for key in ("posterior", "best_trajectory", "candidates")}
            entry.update(likelihood=math.exp(-ranking.min_cost), **tail)
        return record

    with monkeypatch.context() as patch:
        patch.setattr(costing, "result_to_record", old_record)
        code, path = run_predict(tmp_path, out="old_predictions.jsonl")
    assert code == 0
    return path


def test_unread_record_keys_do_not_change_tune_and_eval(tmp_path, monkeypatch):
    with open(golden("dataset.jsonl"), encoding="utf-8") as fh:
        records = [json.loads(line) for line in fh]
    for record in records:
        del record["road_test_id"], record["history"]
    lean = write_jsonl(tmp_path / "lean.jsonl", records)
    old = old_shape_predictions(tmp_path, monkeypatch)
    with open(old, encoding="utf-8") as fh:
        entries = [entry for line in fh for entry in json.loads(line)["intentions"]]
    assert all("likelihood" in entry for entry in entries)
    assert {len(row) for entry in entries for row in entry["best_trajectory"]["points"]} == {6}
    for inputs in ({"--dataset": lean}, {"--predictions": old}):
        for runner, name in ((run_tune, "tuned.json"), (run_eval, "report.json")):
            code, out = runner(tmp_path, **inputs)
            assert code == 0
            assert Path(out).read_bytes() == Path(golden(name)).read_bytes()


def rewrite_times(name, tmp_path, edit):
    """A copy of a golden file with edit applied to every row time."""
    with open(golden(name), encoding="utf-8") as fh:
        records = [json.loads(line) for line in fh]
    for record in records:
        row_lists = [record.get("future")] + [
            entry["best_trajectory"]["points"] for entry in record.get("intentions", [])
        ]
        for rows in filter(None, row_lists):
            for row in rows:
                row[0] = edit(row[0])
    return write_jsonl(tmp_path / name, records)


def test_rounded_times_tune_and_evaluate(tmp_path):
    """Times written rounded (0.3 for 0.30000000000000004) stay aligned."""
    inputs = {
        flag: rewrite_times(name, tmp_path, lambda t: round(t, 6))
        for flag, name in (("--predictions", "predictions.jsonl"), ("--dataset", "dataset.jsonl"))
    }
    assert run_tune(tmp_path, **inputs)[0] == 0
    code, out = run_eval(tmp_path, **inputs)
    assert code == 0
    assert Path(out).read_bytes() == Path(golden("report.json")).read_bytes()


def test_overflowing_ground_truth_is_refused_at_the_join(tmp_path, capsys):
    # a bent path sampled every 1e-120 s: speeds of 1e120 overflow the sub-costs
    future = [[1e-120, 0.0, 0.0], [2e-120, 1.0, 0.0], [3e-120, 1.0, 1.0], [4e-120, 2.0, 1.0]]
    bad = tmp_path / "bad_dataset.jsonl"
    with open(golden("dataset.jsonl"), encoding="utf-8") as fh:
        bad.write_text(edit_first_line(future=future)(fh.read()), encoding="utf-8")
    code, out = run_tune(tmp_path, **{"--dataset": str(bad)})
    assert code == 1
    assert capsys.readouterr().err.startswith(
        f"error: {golden('predictions.jsonl')}, {bad}: anchor ('veh_1', 0.0):"
    )
    assert not os.path.exists(out)


def test_ground_truth_whose_curvature_underflows_is_refused_at_the_join(tmp_path, capsys):
    # a turn 1e-110 m across: the product of the triple's distances underflows to 0
    future = [[0.1, 0.0, 0.0], [0.2, 1e-110, 0.0], [0.3, 1e-110, 1e-110], [0.4, 0.0, 1e-110]]
    bad = tmp_path / "bad_dataset.jsonl"
    with open(golden("dataset.jsonl"), encoding="utf-8") as fh:
        bad.write_text(edit_first_line(future=future)(fh.read()), encoding="utf-8")
    code, out = run_tune(tmp_path, **{"--dataset": str(bad)})
    assert code == 1
    assert "curvature" in capsys.readouterr().err
    assert not os.path.exists(out)


class TestAnnotateCommand:
    def test_fixture_record_count(self, tmp_path, capsys):
        code, out = run_annotate(tmp_path)
        assert code == 0
        summary = json.loads(capsys.readouterr().out)
        assert summary["records"] == 16 and summary["skipped"] == 6
        assert len(Path(out).read_text().splitlines()) == 16

    def test_missing_required_flag_is_usage_error(self, tmp_path):
        assert main(["annotate", "--map", fixture("map.json")]) == 2

    def test_ego_flag_is_usage_error(self, tmp_path):
        code, out = run_annotate(tmp_path, **{"--ego": fixture("ego.jsonl")})
        assert code == 2 and not os.path.exists(out)

    def test_zero_horizon_is_usage_error(self, tmp_path):
        code, _ = run_annotate(tmp_path, **{"--horizon": "0"})
        assert code == 2

    def test_label_grid_beyond_the_ceiling_is_usage_error(self, tmp_path, capsys):
        # the second horizon is shorter than the 0.1 s resolution: an empty grid
        for horizon in ("1e12", "0.05"):
            code, out = run_annotate(tmp_path, **{"--horizon": horizon})
            assert code == 2 and not os.path.exists(out)
            assert capsys.readouterr().err.startswith("error: --horizon/--resolution: ")
        code, out = run_annotate(tmp_path, **{"--horizon": "0.05"})
        assert (code, os.listdir(tmp_path)) == (2, [])
        assert capsys.readouterr() == (
            "", "error: --horizon/--resolution: the horizon must be at least one resolution step\n"
        )

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
        records = [json.loads(line) for line in Path(out).read_text().splitlines()]
        assert len(records) == 22
        for record in records:
            total = math.fsum(e["posterior"] for e in record["intentions"])
            assert abs(total - 1.0) <= 1e-9

    def test_supplied_priors_override_heuristic(self, tmp_path):
        _, out = run_predict(tmp_path)
        records = [json.loads(line) for line in Path(out).read_text().splitlines()]
        at_two = next(
            r for r in records if r["obstacle_id"] == "veh_1" and r["anchor_time"] == 2.0
        )
        priors = {e["intention_id"]: e["prior"] for e in at_two["intentions"]}
        assert priors == pytest.approx({"exit_e": 0.4, "exit_n": 0.4, "exit_s": 0.2})

    def test_records_sorted_by_key(self, tmp_path):
        _, out = run_predict(tmp_path)
        keys = [
            (r["obstacle_id"], r["anchor_time"])
            for r in (json.loads(line) for line in Path(out).read_text().splitlines())
        ]
        assert keys == sorted(keys)

    def test_empty_scene_produces_empty_output(self, tmp_path):
        empty = tmp_path / "empty.jsonl"
        empty.write_text("")
        code, out = run_predict(tmp_path, **{"--scene": str(empty)})
        assert code == 0
        assert Path(out).read_text() == ""

    def test_rerun_is_byte_identical(self, tmp_path):
        _, first = run_predict(tmp_path, out="a.jsonl")
        _, second = run_predict(tmp_path, out="b.jsonl")
        assert Path(first).read_bytes() == Path(second).read_bytes()

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
        assert Path(out).read_text() == ""
        captured = capsys.readouterr()
        assert "lost" in captured.err
        assert json.loads(captured.out)["skipped"] == 3

    def test_obstacle_too_far_for_squared_distances_is_skipped(self):
        # every squared distance to the map overflows, so no lane may capture it;
        # the log loader refuses such a position, so predict's anchor loop runs
        # on tracks built in memory
        tracks, map_graph, ego = scene.load_scene(
            fixture("obstacles.jsonl"), fixture("map.json"), fixture("ego.jsonl")
        )
        far = lambda tr: [(s.timestamp, 1e200, s.position.y, s.heading, s.speed) for s in tr.states]
        tracks = [make_track("veh_2", far(t)) if t.obstacle_id == "veh_2" else t for t in tracks]
        weights = costing.CostWeights.from_file(fixture("weights.json"))
        config = GenerationConfig.from_file(fixture("genconfig.json"))
        priors_table = generation.load_priors(fixture("priors.jsonl"))
        predicted, skipped, diagnostics = [], 0, []
        for track in tracks:
            for anchor in annotation.anchor_times(track, 1.0):
                result = cli._candidates_for_anchor(
                    track, anchor, map_graph, ego, weights, config, priors_table, diagnostics
                )
                if result is None:
                    skipped += 1
                else:
                    predicted.append(result.obstacle_id)
        assert predicted and all(oid == "veh_1" for oid in predicted)
        assert skipped == 10
        assert sum(message.startswith("veh_2@") for message in diagnostics) > 10
        assert "veh_2@9.0: no realizable intention" in diagnostics

    def test_a_mistyped_intention_id_is_skipped_at_its_anchor(self, tmp_path, capsys):
        typo = "ln_approach_e->ln_x_lefty"
        with open(fixture("priors.jsonl"), encoding="utf-8") as fh:
            priors = tmp_path / "priors.jsonl"
            priors.write_text(fh.read().replace('"exit_s"', json.dumps(typo)), encoding="utf-8")
        code, out = run_predict(tmp_path, **{"--priors": str(priors)})
        assert code == 0
        message = f"predict: veh_1@2.0: intention {typo!r} names no exit and no lane sequence\n"
        assert message in capsys.readouterr().err
        records = [json.loads(line) for line in Path(out).read_text().splitlines()]
        at_two = next(r for r in records if (r["obstacle_id"], r["anchor_time"]) == ("veh_1", 2.0))
        assert sorted(e["intention_id"] for e in at_two["intentions"]) == ["exit_e", "exit_n"]

    def test_lanes_that_do_not_join_skip_the_intention(self, tmp_path, capsys):
        # each lane loads, but the joined curve loses a vertex to rounding after 1e50
        doc = json.loads(Path(fixture("map.json")).read_text(encoding="utf-8"))
        doc["lanes"][2]["centerline"][11][1] = 1e50
        code, out = run_predict(tmp_path, **{"--map": write_json(tmp_path / "map.json", doc)})
        assert code == 0 and os.path.exists(out)
        assert "do not form one curve" in capsys.readouterr().err

    def test_ego_is_interpolated_once_per_grid_time_per_anchor(self, tmp_path, monkeypatch):
        counts = {"anchors": 0, "candidate_points": 0, "ego_times": 0}
        rank, positions_at = costing.rank_intentions, EgoPlan.positions_at

        def counting_rank(obstacle_id, anchor, candidates_by_intention, *rest):
            counts["anchors"] += 1
            for candidates in candidates_by_intention.values():
                counts["candidate_points"] += sum(len(c.times) for c in candidates)
            return rank(obstacle_id, anchor, candidates_by_intention, *rest)

        def counting_positions_at(ego, times):
            times = list(times)
            counts["ego_times"] += len(times)
            return positions_at(ego, times)

        monkeypatch.setattr(costing, "rank_intentions", counting_rank)
        monkeypatch.setattr(EgoPlan, "positions_at", counting_positions_at)
        monkeypatch.setattr(cli, "_process_count", lambda: 1)  # count every anchor's calls here
        code, _ = run_predict(tmp_path)
        assert code == 0
        config = GenerationConfig.from_file(fixture("genconfig.json"))
        grid = time_grid(config.horizon_secs, config.resolution_secs)
        assert counts["anchors"] == 22
        assert counts["ego_times"] == counts["anchors"] * len(grid)
        # one interpolation per candidate point would be several times as many
        assert counts["candidate_points"] > 2 * counts["ego_times"]


    def test_association_never_projects_a_far_lane(self, tmp_path, monkeypatch):
        # the far copy has lanes only: an exit there would make its lane a
        # re-root target, which search_paths projects by design
        doc = json.loads(Path(fixture("map.json")).read_text(encoding="utf-8"))
        far = [
            {
                "id": f"far_{lane['id']}",
                "centerline": [[x + 300.0, y] for x, y in lane["centerline"]],
                "successors": [f"far_{succ}" for succ in lane["successors"]],
            }
            for lane in doc["lanes"]
        ]
        both = write_json(tmp_path / "both.json", {**doc, "lanes": doc["lanes"] + far})
        projected = []

        def counting_project_point(curve, x, y):
            projected.append(curve)
            return project_point(curve, x, y)

        for module in (scene, generation):
            monkeypatch.setattr(module, "project_point", counting_project_point)
        monkeypatch.setattr(cli, "_process_count", lambda: 1)  # see every anchor's projections
        assert run_annotate(tmp_path, out="near.jsonl")[0] == 0
        assert run_annotate(tmp_path, out="both.jsonl", **{"--map": both})[0] == 0
        assert run_predict(tmp_path, out="near_p.jsonl")[0] == 0
        assert run_predict(tmp_path, out="both_p.jsonl", **{"--map": both})[0] == 0
        assert projected
        assert all(x < 150.0 for curve in projected for x in curve.xs)
        for near, far_too in (("near.jsonl", "both.jsonl"), ("near_p.jsonl", "both_p.jsonl")):
            assert (tmp_path / near).read_bytes() == (tmp_path / far_too).read_bytes()


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
        tuned = json.loads(Path(out).read_text())
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

    def test_the_join_orders_the_examples(self, tmp_path):
        """Shuffled input lines tune to the golden weights: the anchor-key
        order of the join, not the files' line order, sets the summation order."""
        rng = random.Random(24)
        shuffled = {}
        for flag, name in (("--predictions", "predictions.jsonl"), ("--dataset", "dataset.jsonl")):
            lines = Path(golden(name)).read_text(encoding="utf-8").splitlines(keepends=True)
            original = list(lines)
            rng.shuffle(lines)
            assert lines != original
            shuffled[flag] = str(tmp_path / f"shuffled_{name}")
            Path(shuffled[flag]).write_text("".join(lines), encoding="utf-8")
        code, out = run_tune(tmp_path, **shuffled)
        assert code == 0
        assert Path(out).read_bytes() == Path(golden("tuned.json")).read_bytes()

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
            outs.append(Path(out).read_bytes())
        assert outs[0] == outs[1]


class TestEvalCommand:
    def test_self_evaluation_is_zero(self, tmp_path, capsys):
        _, dataset = run_annotate(tmp_path)
        # predictions whose best trajectory is the label itself
        records = []
        for line in Path(dataset).read_text().splitlines():
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
                            "posterior": 1.0,
                            "best_trajectory": {
                                "profile": {"v0": 0, "a": 0, "duration": 3.0, "resolution": 0.1, "v_max": None},
                                "points": [[t, x, y] for t, x, y in r["future"]],
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
        report = json.loads(Path(out).read_text())
        assert [e["h"] for e in report["horizons"]] == [1.0, 3.0]
        for entry in report["horizons"]:
            assert entry["ade"] == 0.0 and entry["fde"] == 0.0 and entry["count"] == 16

    def test_horizon_before_the_first_grid_time_counts_no_anchor(self, tmp_path):
        code, out = run_eval(tmp_path, **{"--horizons": "0.05,1"})
        assert code == 0
        with open(out, encoding="utf-8") as fh:
            report = json.load(fh)
        with open(golden("report.json"), encoding="utf-8") as fh:
            expected = json.load(fh)
        assert report["horizons"][0] == {"h": 0.05, "ade": None, "fde": None, "count": 0}
        assert report["horizons"][1] == expected["horizons"][0]

    def test_horizons_parsing_contract(self, tmp_path):
        _, dataset = run_annotate(tmp_path)
        _, predictions = run_predict(tmp_path)
        out = str(tmp_path / "report.json")
        code = main(
            ["eval", "--predictions", predictions, "--dataset", dataset, "--horizons", "1,3", "--out", out]
        )
        assert code == 0
        assert len(json.loads(Path(out).read_text())["horizons"]) == 2

    def test_malformed_horizons_is_usage_error(self, tmp_path, capsys):
        # a repeated horizon would score every anchor twice under it
        for horizons in ("1;;3", "3,3"):
            code, out = run_eval(tmp_path, **{"--horizons": horizons})
            assert code == 2
            assert capsys.readouterr().err.startswith("error: --horizons")
            assert not os.path.exists(out)

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
    def test_annotate_predict_and_eval_do_not_import_numpy(self, tmp_path):
        """Only tune does array math, so only tune may pay for numpy's import."""
        annotate = ["annotate", "--log", fixture("obstacles.jsonl"), "--map", fixture("map.json")]
        annotate += ["--horizon", "3.0", "--stride", "1.0", "--out", str(tmp_path / "d.jsonl")]
        predict = ["predict", "--scene", fixture("obstacles.jsonl"), "--map", fixture("map.json")]
        predict += ["--ego", fixture("ego.jsonl"), "--priors", fixture("priors.jsonl")]
        predict += ["--weights", fixture("weights.json"), "--config", fixture("genconfig.json")]
        predict += ["--stride", "1.0", "--out", str(tmp_path / "p.jsonl")]
        evaluate = ["eval", "--predictions", golden("predictions.jsonl")]
        evaluate += ["--dataset", golden("dataset.jsonl"), "--out", str(tmp_path / "r.json")]
        script = (
            "import sys, trajpredict, trajpredict.cli\n"
            f"codes = [trajpredict.cli.main(argv) for argv in {[annotate, predict, evaluate]!r}]\n"
            "print(codes, 'numpy' in sys.modules)\n"
        )
        src = os.path.dirname(os.path.dirname(trajpredict.__file__))
        result = subprocess.run(
            [sys.executable, "-c", script],
            env={**os.environ, "PYTHONPATH": src},
            capture_output=True,
            text=True,
            timeout=60,
        )
        assert result.stdout.endswith("[0, 0, 0] False\n"), result.stderr

    def test_annotate_loads_only_the_labelling_modules(self, tmp_path):
        """annotate pays to import what labelling runs, and predict and eval
        still load no numpy."""
        annotate = ["annotate", "--log", fixture("obstacles.jsonl"), "--map", fixture("map.json")]
        annotate += ["--horizon", "3.0", "--stride", "1.0", "--out", str(tmp_path / "d.jsonl")]
        predict = ["predict", "--scene", fixture("obstacles.jsonl"), "--map", fixture("map.json")]
        predict += ["--weights", fixture("weights.json"), "--config", fixture("genconfig.json")]
        predict += ["--out", str(tmp_path / "p.jsonl")]
        evaluate = ["eval", "--predictions", golden("predictions.jsonl")]
        evaluate += ["--dataset", golden("dataset.jsonl"), "--out", str(tmp_path / "r.json")]
        script = (
            "import contextlib, io, sys\n"
            "from trajpredict import cli\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            f"    codes = [cli.main({annotate!r})]\n"
            "annotated = sorted(m for m in sys.modules if m.startswith(('numpy', 'trajpredict')))\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            f"    codes += [cli.main({predict!r}), cli.main({evaluate!r})]\n"
            "print(codes, annotated, 'numpy' in sys.modules)\n"
        )
        src = os.path.dirname(os.path.dirname(trajpredict.__file__))
        result = subprocess.run(
            [sys.executable, "-c", script],
            env={**os.environ, "PYTHONPATH": src},
            capture_output=True,
            text=True,
            timeout=60,
        )
        labelling = ["annotation", "cli", "errors", "geometry", "jsonio", "scene"]
        expected = ["trajpredict"] + [f"trajpredict.{name}" for name in labelling]
        assert result.stdout == f"[0, 0, 0] {expected!r} False\n", result.stderr

    def test_loading_a_tuner_config_and_extracting_examples_do_not_import_numpy(self):
        """numpy serves the descent alone, so importing the tuner, loading its
        config and extracting examples must not load it."""
        script = (
            "import sys\n"
            "from trajpredict import annotation, autotune, costing, scene\n"
            f"autotune.TunerConfig.from_file({fixture('tunerconfig.json')!r})\n"
            "examples, _ = autotune.extract_examples(\n"
            f"    costing.load_prediction_records({golden('predictions.jsonl')!r}),\n"
            f"    annotation.load_dataset_records({golden('dataset.jsonl')!r}),\n"
            f"    scene.load_ego_plan({fixture('ego.jsonl')!r}),\n"
            ")\n"
            "print(len(examples), 'numpy' in sys.modules)\n"
        )
        src = os.path.dirname(os.path.dirname(trajpredict.__file__))
        result = subprocess.run(
            [sys.executable, "-c", script],
            env={**os.environ, "PYTHONPATH": src},
            capture_output=True,
            text=True,
            timeout=60,
        )
        assert result.stdout == "16 False\n", result.stderr

    def test_the_traced_benchmark_run_reproduces_the_golden_files(self, tmp_path):
        """bench/traced.py rebuilds the four stages from the package's public
        names (Trajectory.points and TrajectoryLabel.future_points among them),
        so a change to any of them must keep its outputs equal to the CLI's."""
        root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
        files = {"log": "obstacles.jsonl", "map": "map.json", "ego": "ego.jsonl"}
        files.update(priors="priors.jsonl", weights="weights.json", genconfig="genconfig.json")
        files.update(tunerconfig="tunerconfig.json")
        spec = {
            "workload": "golden",
            "files": {name: fixture(file) for name, file in files.items()},
            "stride": 1.0,
            "annotate_horizon": 3.0,
            "out_dir": str(tmp_path / "out"),
            "spans_path": str(tmp_path / "spans.json"),
        }
        spec_path = write_json(tmp_path / "spec.json", spec)
        src = os.path.dirname(os.path.dirname(trajpredict.__file__))
        result = subprocess.run(
            [sys.executable, os.path.join(root, "bench", "traced.py"), spec_path],
            env={**os.environ, "PYTHONPATH": src},
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert result.returncode == 0, result.stderr
        for name in ("dataset.jsonl", "predictions.jsonl", "tuned.json", "report.json"):
            with open(tmp_path / "out" / name, "rb") as produced, open(golden(name), "rb") as fh:
                assert produced.read() == fh.read(), f"traced {name} differs from the golden file"

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
        before = Path(fixture("obstacles.jsonl")).read_bytes()
        run_annotate(tmp_path)
        run_predict(tmp_path)
        assert Path(fixture("obstacles.jsonl")).read_bytes() == before


def assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def fixture_rows(first_time=0.0):
    with open(fixture("obstacles.jsonl"), encoding="utf-8") as fh:
        rows = [json.loads(line) for line in fh]
    return [r for r in rows if r["obstacle_id"] == "veh_2" or r["t"] >= first_time]


def run_in_shares(runner, tmp_path, monkeypatch, capsys, shares, **overrides):
    """Exit code, output bytes (None when absent), stdout and stderr of a run
    in `shares` processes, forced through the cli._process_count seam
    whatever the host's CPU count."""
    monkeypatch.setattr(cli, "_process_count", lambda: shares)
    code, out = runner(tmp_path, **overrides)
    captured = capsys.readouterr()
    assert_no_child_left()
    written = None
    if os.path.exists(out):
        with open(out, "rb") as fh:
            written = fh.read()
        os.remove(out)
    return code, written, captured.out, captured.err


@pytest.mark.skipif(
    not hasattr(os, "sched_getaffinity"), reason="predict forks its shares only where CPU affinity exists"
)
class TestPredictShares:
    """predict ranks anchor k in share k mod N."""

    @pytest.mark.parametrize("with_off_map_obstacle", [False, True])
    def test_bytes_do_not_depend_on_the_share_count(
        self, tmp_path, monkeypatch, capsys, with_off_map_obstacle
    ):
        overrides = {}
        if with_off_map_obstacle:  # its skipped anchors add stderr lines and a skip count
            lost = [
                {"obstacle_id": "lost", "t": 0.1 * k, "x": 500.0 + k, "y": 500.0, "heading": 0.0, "speed": 10.0}
                for k in range(30)
            ]
            overrides["--scene"] = write_jsonl(tmp_path / "log.jsonl", fixture_rows() + lost)
        runs = [
            run_in_shares(run_predict, tmp_path, monkeypatch, capsys, shares, **overrides)
            for shares in (1, 2, 3)
        ]
        assert runs[0][0] == 0 and runs[0][3].startswith("predict: ")
        assert runs[1] == runs[0] and runs[2] == runs[0]
        if not with_off_map_obstacle:
            with open(golden("predictions.jsonl"), "rb") as fh:
                assert runs[0][1] == fh.read()

    @pytest.mark.parametrize(
        "first_time, shares, owner",
        [(7.0, 2, "child"), (7.0, 3, "child"), (6.0, 2, "parent"), (6.0, 3, "parent")],
    )
    def test_the_first_refused_anchor_raises_whichever_share_ranks_it(
        self, tmp_path, monkeypatch, capsys, first_time, shares, owner
    ):
        # as in test_refusal_on_a_later_anchor_leaves_no_output: veh_2's first
        # anchor, job 5 from 7 s on and job 6 from 6 s on, is refused
        log = write_jsonl(tmp_path / "log.jsonl", fixture_rows(first_time))
        monkeypatch.setattr(cli, "MAX_GRID_TIMES", 300)
        serial = run_in_shares(run_predict, tmp_path, monkeypatch, capsys, 1, **{"--scene": log})
        assert serial[:3] == (2, None, "")
        assert "would hold more than 300 points" in serial[3]
        ranked_here = []  # the anchors this process ranks; a child's are not seen here
        candidates_for_anchor = cli._candidates_for_anchor

        def recording(track, anchor, *rest):
            ranked_here.append(track.obstacle_id)
            return candidates_for_anchor(track, anchor, *rest)

        monkeypatch.setattr(cli, "_candidates_for_anchor", recording)
        assert run_in_shares(run_predict, tmp_path, monkeypatch, capsys, shares, **{"--scene": log}) == serial
        assert ("veh_2" in ranked_here) == (owner == "parent")
        assert sorted(os.listdir(tmp_path)) == ["log.jsonl"]

    @pytest.mark.parametrize("shares", [1, 2, 3])
    def test_an_ungriddable_obstacle_is_refused_before_any_anchor_is_ranked(
        self, tmp_path, monkeypatch, capsys, shares
    ):
        # zz_lone sorts last, and its anchors cannot be gridded (a 1 s stride
        # at 1e20 s); with MAX_GRID_TIMES at 300, veh_2's first anchor would
        # be refused if it were ranked
        log = fixture_rows(7.0) + [{**fixture_rows()[0], "obstacle_id": "zz_lone", "t": 1e20}]
        overrides = {"--scene": write_jsonl(tmp_path / "log.jsonl", log)}
        ranked = []  # the anchors this process ranks
        candidates_for_anchor = cli._candidates_for_anchor

        def recording(track, anchor, *rest):
            ranked.append((track.obstacle_id, anchor))
            return candidates_for_anchor(track, anchor, *rest)

        monkeypatch.setattr(cli, "_candidates_for_anchor", recording)
        for max_grid_times in (cli.MAX_GRID_TIMES, 300):
            monkeypatch.setattr(cli, "MAX_GRID_TIMES", max_grid_times)
            code, written, out, err = run_in_shares(
                run_predict, tmp_path, monkeypatch, capsys, shares, **overrides
            )
            assert (code, written, out) == (1, None, "")
            assert err.startswith(f"error: {tmp_path / 'log.jsonl'}: obstacle 'zz_lone': anchors: ")
            assert err.count("\n") == 1
        assert ranked == []
        assert sorted(os.listdir(tmp_path)) == ["log.jsonl"]

    def test_each_share_runs_its_jobs_on_its_own_cpu(self, monkeypatch):
        mask = os.sched_getaffinity(0)
        cpus = sorted(mask)
        where = lambda job: (job, os.getpid(), os.sched_getaffinity(0))
        monkeypatch.setattr(cli, "_process_count", lambda: 3)
        with cli._in_job_order(where, list(range(7))) as results:
            got = list(results)
        assert [job for job, _, _ in got] == list(range(7))
        for job, pid, share_cpus in got:
            assert share_cpus == {cpus[job % 3 % len(cpus)]}
            assert (pid == os.getpid()) == (job % 3 == 0)
        assert os.sched_getaffinity(0) == mask
        assert_no_child_left()

    def test_a_share_that_cannot_be_forked_is_ranked_here(self, tmp_path, monkeypatch, capsys):
        fork, forks = os.fork, []

        def second_fork_fails():
            if forks:
                raise BlockingIOError(11, "Resource temporarily unavailable")
            forks.append(None)
            return fork()

        serial = run_in_shares(run_predict, tmp_path, monkeypatch, capsys, 1)
        monkeypatch.setattr(os, "fork", second_fork_fails)
        assert run_in_shares(run_predict, tmp_path, monkeypatch, capsys, 3) == serial
        assert len(forks) == 1

    @pytest.mark.parametrize("how", ["exits", "raises"])
    def test_a_failing_child_fails_predict(self, tmp_path, monkeypatch, capsys, how):
        parent = os.getpid()
        candidates_for_anchor = cli._candidates_for_anchor

        def failing_in_a_child(track, anchor, *rest):
            if os.getpid() != parent:
                if how == "exits":
                    os._exit(3)
                raise ValueError(f"{track.obstacle_id}@{anchor}")
            return candidates_for_anchor(track, anchor, *rest)

        monkeypatch.setattr(cli, "_candidates_for_anchor", failing_in_a_child)
        monkeypatch.setattr(cli, "_process_count", lambda: 2)
        if how == "exits":
            code, out = run_predict(tmp_path)
            assert code == 1
            err = capsys.readouterr().err
            assert err.startswith("error: process ") and err.endswith(" ended before computing its share\n")
        else:  # the first anchor of share 1 is job 1, veh_1's second anchor
            with pytest.raises(ValueError, match=r"^veh_1@1\.0$"):
                run_predict(tmp_path)
        assert_no_child_left()
        assert os.listdir(tmp_path) == []

    def test_no_share_outlives_a_killed_predict(self, tmp_path):
        # sixty copies of the fixture scene at a 0.1 s stride take each share
        # longer to rank than the few seconds it may outlive its parent
        rows = fixture_rows()
        copies = [{**r, "obstacle_id": f"{r['obstacle_id']}_{k}"} for k in range(60) for r in rows]
        out = tmp_path / "p.jsonl"
        script = (
            "import sys\nfrom trajpredict import cli\n"
            "cli._process_count = lambda: 3\nsys.exit(cli.main(sys.argv[1:]))\n"
        )
        log = write_jsonl(tmp_path / "log.jsonl", copies)
        argv = [sys.executable, "-c", script, "predict", "--scene", log]
        argv += ["--map", fixture("map.json"), "--weights", fixture("weights.json")]
        argv += ["--config", fixture("genconfig.json"), "--stride", "0.1", "--out", str(out)]
        src = os.path.dirname(os.path.dirname(trajpredict.__file__))
        proc = subprocess.Popen(
            argv,
            env={**os.environ, "PYTHONPATH": src},
            stdout=subprocess.DEVNULL,
            stderr=subprocess.DEVNULL,
            start_new_session=True,
        )
        try:
            # the shares are forked before the temp file is opened
            tmp, deadline = f"{out}.{proc.pid}.tmp", time.monotonic() + 60
            while not os.path.exists(tmp):
                assert proc.poll() is None and time.monotonic() < deadline
                time.sleep(0.01)
            proc.kill()
            proc.wait(timeout=10)
            deadline = time.monotonic() + 5
            while True:
                try:
                    os.killpg(proc.pid, 0)
                except ProcessLookupError:
                    break
                assert time.monotonic() < deadline, "a share outlived its killed parent"
                time.sleep(0.05)
        finally:
            with contextlib.suppress(ProcessLookupError):
                os.killpg(proc.pid, signal.SIGKILL)
            proc.wait(timeout=10)


@pytest.mark.skipif(
    not hasattr(os, "sched_getaffinity"), reason="annotate forks its shares only where CPU affinity exists"
)
class TestAnnotateShares:
    """annotate labels anchor k in share k mod N."""

    @pytest.mark.parametrize("with_short_obstacle", [False, True])
    def test_bytes_do_not_depend_on_the_share_count(
        self, tmp_path, monkeypatch, capsys, with_short_obstacle
    ):
        overrides = {"--road-test-id": "obstacles"}
        if with_short_obstacle:  # 2 s logged: each of its 2 anchors lacks the 3 s horizon
            short = [
                {**row, "obstacle_id": "short"}
                for row in fixture_rows()
                if row["obstacle_id"] == "veh_1" and row["t"] < 2.0
            ]
            overrides["--log"] = write_jsonl(tmp_path / "log.jsonl", fixture_rows() + short)
        runs = [
            run_in_shares(run_annotate, tmp_path, monkeypatch, capsys, shares, **overrides)
            for shares in (1, 2, 3)
        ]
        assert runs[0][0] == 0 and runs[0][3] == ""
        assert runs[1] == runs[0] and runs[2] == runs[0]
        counts = json.loads(runs[0][2])
        assert (counts["records"], counts["skipped"]) == (16, 6 + 2 * with_short_obstacle)
        with open(golden("dataset.jsonl"), "rb") as fh:
            assert runs[0][1] == fh.read()

    @pytest.mark.parametrize("shares", [1, 2, 3])
    def test_an_ungriddable_obstacle_is_refused_before_any_share_starts(
        self, tmp_path, monkeypatch, capsys, shares
    ):
        # zz_lone sorts last, and its anchors cannot be gridded (a 1 s stride at 1e20 s)
        log = fixture_rows() + [{**fixture_rows()[0], "obstacle_id": "zz_lone", "t": 1e20}]
        overrides = {"--log": write_jsonl(tmp_path / "log.jsonl", log)}
        labelled, forks = [], []
        label_anchor = annotation.label_anchor

        def recording(track, anchor, *rest, **options):
            labelled.append((track.obstacle_id, anchor))
            return label_anchor(track, anchor, *rest, **options)

        monkeypatch.setattr(annotation, "label_anchor", recording)
        monkeypatch.setattr(os, "fork", lambda: forks.append(None) or -1)
        code, written, out, err = run_in_shares(
            run_annotate, tmp_path, monkeypatch, capsys, shares, **overrides
        )
        assert (code, written, out) == (1, None, "")
        assert err.startswith(f"error: {tmp_path / 'log.jsonl'}: obstacle 'zz_lone': anchors: ")
        assert err.count("\n") == 1
        assert labelled == [] and forks == []
        assert sorted(os.listdir(tmp_path)) == ["log.jsonl"]


def bad_copy(tmp_path, source, edit):
    """A copy of source in tmp_path with edit applied to its bytes."""
    with open(source, "rb") as fh:
        data = edit(fh.read())
    bad = tmp_path / ("bad_" + os.path.basename(source))
    bad.write_bytes(data)
    return str(bad)


def text_edit(edit):
    return lambda data: edit(data.decode("utf-8")).encode("utf-8")


def outside_the_intentions(data):
    return data.replace(b'"selected_intention":"exit_e"', b'"selected_intention":"exit_q"')


def invalid_utf8_on_line(line):
    def edit(data):
        lines = data.split(b"\n")
        lines[line - 1] = lines[line - 1].replace(b"1", b"\xff1", 1)
        return b"\n".join(lines)

    return edit


NOBODY = {
    "road_test_id": "r",
    "obstacle_id": "nobody",
    "anchor_time": 0.0,
    "history": [],
    "future": [[0.1, 0.0, 0.0]],
    "exit_label": None,
    "lane_sequence_label": None,
}

# each of tune's failures, as one input replaced: (flag, source, edit of its bytes)
TUNE_FAILURES = [
    pytest.param(
        "--tuner-config", fixture("tunerconfig.json"), invalid_utf8_on_line(7), id="invalid_utf8_tuner_config"
    ),
    pytest.param(
        "--predictions",
        golden("predictions.jsonl"),
        outside_the_intentions,
        id="selected_intention_outside_the_intentions",
    ),
    pytest.param(
        "--dataset",
        golden("dataset.jsonl"),
        lambda data: data.replace(b'"future":[[0.1,-59.0,0.0]', b'"future":[[0.1,-59.0,true]', 1),
        id="boolean_future_row",
    ),
    pytest.param(
        "--dataset",
        golden("dataset.jsonl"),
        # a bent path sampled every 1e-120 s: its sub-costs overflow at the join
        text_edit(edit_first_line(future=[[1e-120, 0.0, 0.0], [2e-120, 1.0, 0.0], [3e-120, 1.0, 1.0]])),
        id="future_whose_sub_costs_overflow",
    ),
    pytest.param(
        "--dataset",
        golden("dataset.jsonl"),
        lambda data: json.dumps(NOBODY).encode() + b"\n",
        id="no_overlapping_keys",
    ),
    pytest.param(
        "--tuner-config",
        fixture("tunerconfig.json"),
        text_edit(edit_document(learning_rate=1e308, max_iters=5)),
        id="overflowing_descent_step",
    ),
    pytest.param("--dataset", golden("missing.jsonl"), None, id="missing_dataset"),
]


@pytest.mark.skipif(
    not hasattr(os, "sched_getaffinity"), reason="tune forks its share only where CPU affinity exists"
)
class TestTuneShares:
    """tune reads its inputs in share 1 while share 0 imports numpy."""

    def test_bytes_do_not_depend_on_the_share_count(self, tmp_path, monkeypatch, capsys):
        runs = [run_in_shares(run_tune, tmp_path, monkeypatch, capsys, shares) for shares in (1, 2)]
        with open(golden("tuned.json"), "rb") as fh:
            assert runs[0][:2] == (0, fh.read())
        assert runs[0][2].startswith('{"examples":16,') and runs[0][3] == ""
        assert runs[1] == runs[0]

    @pytest.mark.parametrize("flag, source, edit", TUNE_FAILURES)
    def test_each_failure_does_not_depend_on_the_share_count(
        self, tmp_path, monkeypatch, capsys, flag, source, edit
    ):
        bad = bad_copy(tmp_path, source, edit) if edit else source
        runs = [
            run_in_shares(run_tune, tmp_path, monkeypatch, capsys, shares, **{flag: bad})
            for shares in (1, 2)
        ]
        code, written, out, err = runs[0]
        assert code in (1, 2) and (written, out) == (None, "")
        assert err.startswith("error: ") and err.count("\n") == 1
        assert runs[1] == runs[0]
        assert not [name for name in os.listdir(tmp_path) if name.endswith(".tmp")]

    def test_a_share_that_dies_fails_tune(self, tmp_path, monkeypatch, capsys):
        parent = os.getpid()
        load_prediction_records = costing.load_prediction_records

        def dying_in_a_child(path):
            if os.getpid() != parent:
                os._exit(3)
            return load_prediction_records(path)

        monkeypatch.setattr(costing, "load_prediction_records", dying_in_a_child)
        code, written, out, err = run_in_shares(run_tune, tmp_path, monkeypatch, capsys, 2)
        assert (code, written, out) == (1, None, "")
        assert err.startswith("error: process ") and err.endswith(" ended before computing its share\n")
        assert os.listdir(tmp_path) == []

    @pytest.mark.parametrize("shares", [1, 2])
    def test_a_bad_input_fails_before_a_missing_numpy(self, tmp_path, shares):
        bad = bad_copy(tmp_path, golden("predictions.jsonl"), outside_the_intentions)
        script = (
            "import sys\nsys.modules['numpy'] = None  # import numpy raises ImportError\n"
            f"from trajpredict import cli\ncli._process_count = lambda: {shares}\n"
            "sys.exit(cli.main(sys.argv[1:]))\n"
        )
        src = os.path.dirname(os.path.dirname(trajpredict.__file__))
        out = tmp_path / "tuned.json"

        def tune(predictions):
            argv = [sys.executable, "-c", script, "tune", "--predictions", predictions]
            argv += ["--dataset", golden("dataset.jsonl"), "--tuner-config", fixture("tunerconfig.json")]
            argv += ["--out", str(out)]
            return subprocess.run(
                argv, env={**os.environ, "PYTHONPATH": src}, capture_output=True, text=True, timeout=60
            )

        result = tune(bad)
        assert (result.returncode, result.stdout) == (1, "")
        assert result.stderr == f"error: {bad}:1: selected intention 'exit_q' not among intentions\n"
        result = tune(golden("predictions.jsonl"))  # inputs that read cleanly reach the missing numpy
        assert (result.returncode, result.stdout) == (1, "")
        assert result.stderr.endswith("ModuleNotFoundError: import of numpy halted; None in sys.modules\n")
        assert not out.exists()
