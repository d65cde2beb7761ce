"""The trajpredict benchmark: one workload, one seed, one run.

    python3 bench/run.py --workload scaled_intersection --seed 0 --seconds 30 --trace 0

Every run first requires the four golden commands to reproduce
`tests/golden/*` byte for byte, then generates the workload's inputs from
the seed (see workloads.py) and times how long set-up takes in fresh
interpreters.

With `--trace 0` it runs the four CLI stages (`python -m trajpredict
annotate|predict|tune|eval`) as child processes, one at a time, pass after
pass until `--seconds` is used up, and reports each stage's median wall
time over the passes with the quality of the outputs. The load is batch and closed-loop:
one child at a time, never two at once.

With `--trace 1` it runs the CLI pass once, then the traced pipeline
(traced.py) pass after pass, requires the traced outputs to equal the CLI's
byte for byte, and reports the per-layer metrics as medians over passes.

The last line of stdout is one JSON object with `correct`, `attempted`,
`failed` and `metrics`. A full record of the run (machine, seed, workload,
every sample, output hashes) goes to `bench/_results/`.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import math
import os
import platform
import shutil
import statistics
import sys
import time
import traceback
import types

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
SRC = os.path.join(ROOT, "src")
TESTS = os.path.join(ROOT, "tests")
FIXTURES = os.path.join(TESTS, "fixtures")
GOLDEN = os.path.join(TESTS, "golden")
STAGES = ("annotate", "predict", "tune", "eval")
OUTPUTS = {
    "annotate": "dataset.jsonl",
    "predict": "predictions.jsonl",
    "tune": "tuned.json",
    "eval": "report.json",
}
SETUP_PROBES_FIRST = 3  # then one more before every pass
STARTUP_PROBES = 5
EVAL_HORIZON = 3.0
TAIL_PERCENTILES = (99, 95, 90, 75, 50)
MB = 1e6

sys.path[:0] = [p for p in (SRC, BENCH) if p not in sys.path]
import runner  # noqa: E402  (the benchmark's own modules, beside this file)
import workloads  # noqa: E402

checks = None  # imports the package, so only after the layout check


def _layout_problem():
    """Why this checkout cannot be benchmarked, or None."""
    for path in (os.path.join(SRC, "trajpredict", "__init__.py"),
                 os.path.join(FIXTURES, "make_fixtures.py"),
                 os.path.join(TESTS, "conftest.py"),
                 os.path.join(GOLDEN, "predictions.jsonl")):
        if not os.path.isfile(path):
            return f"missing {os.path.relpath(path, ROOT)}: run from a full checkout"
    return None


def stage_args(stage, files, workload, out_dir):
    """CLI arguments of one stage on a generated workload."""
    dataset = os.path.join(out_dir, OUTPUTS["annotate"])
    predictions = os.path.join(out_dir, OUTPUTS["predict"])
    out = ["--out", os.path.join(out_dir, OUTPUTS[stage])]
    ego = ["--ego", files["ego"]] if files.get("ego") else []
    if stage == "annotate":
        return ["--log", files["log"], "--map", files["map"], "--horizon",
                str(workload.annotate_horizon), "--stride", str(workload.stride), *out]
    if stage == "predict":
        priors = ["--priors", files["priors"]] if files.get("priors") else []
        return ["--scene", files["log"], "--map", files["map"], *ego, *priors,
                "--weights", files["weights"], "--config", files["genconfig"],
                "--stride", str(workload.stride), *out]
    if stage == "tune":
        return ["--predictions", predictions, "--dataset", dataset,
                "--tuner-config", files["tunerconfig"], *ego, *out]
    return ["--predictions", predictions, "--dataset", dataset, "--horizons", "1,3", *out]


def golden_gate(spawner, work):
    """Run the four golden commands on tests/fixtures; list every mismatch."""
    out_dir = os.path.join(work, "golden")
    os.makedirs(out_dir)
    fx = lambda name: os.path.join(FIXTURES, name)
    files = {"log": fx("obstacles.jsonl"), "map": fx("map.json"), "ego": fx("ego.jsonl"),
             "priors": fx("priors.jsonl"), "weights": fx("weights.json"),
             "genconfig": fx("genconfig.json"), "tunerconfig": fx("tunerconfig.json")}

    golden = types.SimpleNamespace(annotate_horizon=3.0, stride=1.0)
    results = cli_pass(spawner, files, golden, out_dir)
    problems = [f"golden {stage} exited {child.returncode}"
                for stage, child in results.items() if child.returncode != 0]
    if problems:
        return problems
    for name in OUTPUTS.values():
        with open(os.path.join(out_dir, name), "rb") as a, \
                open(os.path.join(GOLDEN, name), "rb") as b:
            if a.read() != b.read():
                problems.append(f"golden {name} differs from tests/golden/{name}")
    return problems


def probe(spawner, work, script, *args):
    """Run one of the benchmark's probe scripts; a failing probe is an error."""
    child = spawner.run_child([sys.executable, os.path.join(BENCH, script), *args],
                              os.path.join(work, "probe"))
    if child.returncode != 0:
        raise RuntimeError(f"{script} exited {child.returncode}")
    return child


def setup_probe(spawner, files_path, work):
    """Wall time of one fresh interpreter importing the package and loading
    the workload's inputs (see setup_probe.py)."""
    return probe(spawner, work, "setup_probe.py", files_path).wall_s


def host_probe(spawner, work):
    """Seconds the fixed work of host_probe.py took: the host's speed now."""
    return float(probe(spawner, work, "host_probe.py").stdout())


def cli_pass(spawner, files, workload, out_dir):
    """Run the four stages once; returns {stage: ChildResult} up to the first failure."""
    os.makedirs(out_dir, exist_ok=True)
    results = {}
    for stage in STAGES:
        child = spawner.run_child(
            runner.cli_argv(stage, *stage_args(stage, files, workload, out_dir)),
            os.path.join(out_dir, stage),
        )
        results[stage] = child
        if child.returncode != 0:
            break
    return results


def output_hashes(out_dir):
    return {name: checks.sha256_file(os.path.join(out_dir, name)) for name in OUTPUTS.values()}


def validate_outputs(files, workload, out_dir):
    """Check every prediction record and compute the quality metrics."""
    from trajpredict.annotation import load_dataset_records
    from trajpredict.costing import load_prediction_records
    from trajpredict.scene import load_scene

    tracks, map_graph, ego = load_scene(files["log"], files["map"], files.get("ego"))
    grid = checks.anchor_grid(tracks, workload.stride)
    predictions = load_prediction_records(os.path.join(out_dir, OUTPUTS["predict"]))
    dataset = load_dataset_records(os.path.join(out_dir, OUTPUTS["annotate"]))
    failed, problems = checks.check_predictions(predictions, grid)
    hits, scored = checks.intent_top1(predictions, dataset, map_graph)
    tuned = checks.load_json(os.path.join(out_dir, OUTPUTS["tune"]))
    delta = checks.load_json(files["tunerconfig"])["delta"]
    hinge, pairs = checks.hinge_per_pair(
        predictions, dataset, ego, checks.tuned_theta(tuned), delta)
    at_h = checks.report_at(checks.load_json(os.path.join(out_dir, OUTPUTS["eval"])), EVAL_HORIZON)
    return {
        "anchors": len(grid),
        "failed": failed,
        "problems": problems,
        "intent_hits": hits,
        "intent_scored": scored,
        "intent_top1": hits / scored if scored else float("nan"),
        "tune_hinge_per_pair": hinge,
        "pairs": pairs,
        "ade_3s_m": at_h["ade"],
        "fde_3s_m": at_h["fde"],
        "eval_count_3s": at_h["count"],
        "candidates": sum(
            len(entry["candidates"]) for r in predictions for entry in r["intentions"]
        ),
        # every candidate of an intention has as many points as its best one
        "points": sum(
            len(entry["candidates"]) * len(entry["best_trajectory"]["points"])
            for r in predictions for entry in r["intentions"]
        ),
    }


def run_untraced(spawner, files, workload, work, seconds, record):
    """Passes of the four CLI stages until the time is used up. Set-up
    and host probes are spread between the passes so that, like the stages,
    they sample the whole run; the host probes record how the host's speed
    drifted."""
    files_path = os.path.join(work, "files.json")
    setup = [setup_probe(spawner, files_path, work) for _ in range(SETUP_PROBES_FIRST)]
    host = [host_probe(spawner, work) for _ in range(SETUP_PROBES_FIRST)]
    samples = {stage: [] for stage in STAGES}
    peak_rss = []
    problems = []
    reference = None
    quality = None
    passes = 0
    start = time.perf_counter()
    while True:
        pass_start = time.perf_counter()
        setup.append(setup_probe(spawner, files_path, work))
        host.append(host_probe(spawner, work))
        out_dir = os.path.join(work, f"pass{passes}")
        results = cli_pass(spawner, files, workload, out_dir)
        passes += 1
        for stage, child in results.items():
            samples[stage].append({"wall_s": child.wall_s, "cpu_s": child.cpu_s,
                                   "rss_mb": child.maxrss_mb})
        if any(child.returncode != 0 for child in results.values()):
            bad = next(s for s, c in results.items() if c.returncode != 0)
            problems.append(f"pass {passes}: {bad} exited {results[bad].returncode}")
            break
        peak_rss.append(max(c.maxrss_mb for c in results.values()))
        hashes = output_hashes(out_dir)
        if reference is None:
            reference = hashes
            quality = validate_outputs(files, workload, out_dir)
            problems += quality["problems"]
        elif hashes != reference:
            problems.append(f"pass {passes}: outputs differ from pass 1: nondeterministic")
        shutil.rmtree(out_dir)
        pass_s = time.perf_counter() - pass_start
        if time.perf_counter() - start + pass_s > seconds:
            break

    record.update(passes=passes, samples=samples, setup_samples=setup, host_probe_s=host,
                  output_sha256=reference, quality=quality, drift=_drift(samples))
    if quality is None:
        return {}, problems, 1, 1
    metrics = {"setup_s": (statistics.median(setup), "s")}
    metrics.update({f"{stage}_s": (statistics.median([s["wall_s"] for s in samples[stage]]), "s")
                    for stage in STAGES})
    metrics.update({
        "peak_rss_mb": (statistics.median(peak_rss), "MB"),
        "ade_3s_m": (quality["ade_3s_m"], "m"),
        "fde_3s_m": (quality["fde_3s_m"], "m"),
        "intent_top1": (quality["intent_top1"], "share"),
        "valid_share": (1.0 - quality["failed"] / quality["anchors"], "share"),
    })
    return metrics, problems, quality["anchors"], quality["failed"]


def _drift(samples):
    """Host drift as measured in this run: per stage, the spread of the
    wall-time samples over their median, and CPU time over wall time."""
    drift = {}
    for stage, rows in samples.items():
        walls = [r["wall_s"] for r in rows]
        if walls:
            drift[stage] = {
                "wall_range_over_median": (max(walls) - min(walls)) / statistics.median(walls),
                "cpu_over_wall": statistics.median([r["cpu_s"] / r["wall_s"] for r in rows]),
            }
    return drift


def _percentile(values, q):
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, int(math.ceil(q / 100.0 * len(ordered))) - 1)]


def layer_metrics(trace, cli, startup_s, hinge_per_pair):
    """Per-layer metrics of one traced pass, from its spans and counters."""
    spans, counts = trace["spans"], trace["counts"]
    total = {}
    stage_s = {}
    anchor_ms = []
    for name, start, end, _parent, (_wl, stage, _obstacle, _anchor) in spans:
        dur = end - start
        total[(stage, name)] = total.get((stage, name), 0.0) + dur
        if name == "stage":
            stage_s[stage] = dur
        elif name == "predict.anchor":
            anchor_ms.append(dur * 1000.0)

    def span_s(name, *stages):
        return sum(total.get((stage, name), 0.0) for stage in stages or STAGES)

    stage_s["predict"] -= span_s("trace.subcost_pass", "predict")
    history = counts["autotune.history"]
    pairs = counts["autotune.pairs"]
    iterations = len(history) - 1
    descent_s = span_s("autotune.descent")
    calls = counts.get("generation.search_calls", 0)
    tail_q = next(q for q in TAIL_PERCENTILES
                  if len(anchor_ms) * (1 - q / 100.0) >= 10 or q == TAIL_PERCENTILES[-1])
    m = {
        "generation.realize_s": (span_s("generation.realize"), "s"),
        "generation.realize_us_per_point": (
            span_s("generation.realize") / max(counts.get("generation.points", 0), 1) * 1e6, "us"),
        "generation.candidates": (counts.get("generation.candidates", 0), "count"),
        "generation.points": (counts.get("generation.points", 0), "count"),
        "costing.collision_s": (counts["costing.collision_s"], "s"),
        "costing.acc_s": (counts["costing.acc_s"], "s"),
        "costing.centripetal_s": (counts["costing.centripetal_s"], "s"),
        "costing.rank_s": (span_s("costing.rank"), "s"),
        "generation.search_s": (span_s("generation.search"), "s"),
        "generation.search_calls": (calls, "count"),
        "generation.search_yield": (
            counts.get("generation.search_hits", 0) / max(calls, 1), "ratio"),
        "generation.paths": (counts.get("generation.paths", 0), "count"),
        "generation.priors_s": (
            span_s("generation.priors") + span_s("generation.priors_load"), "s"),
        "generation.priors_hit_ratio": (
            counts.get("generation.priors_hits", 0) / counts["generation.anchors"], "ratio"),
        "annotation.lane_seq_s": (span_s("annotation.lane_seq"), "s"),
        "annotation.future_s": (span_s("annotation.future"), "s"),
        "annotation.exit_s": (span_s("annotation.exit"), "s"),
        "annotation.anchors": (counts["annotation.anchors"], "count"),
        "annotation.records": (counts["annotation.records"], "count"),
        "costing.serialize_s": (span_s("costing.serialize") + span_s("costing.write"), "s"),
        "costing.load_s": (span_s("costing.load"), "s"),
        "annotation.load_s": (span_s("annotation.load"), "s"),
        "autotune.extract_s": (span_s("autotune.extract"), "s"),
        "autotune.descent_s": (descent_s, "s"),
        "autotune.iterations": (iterations, "count"),
        "autotune.us_per_iter": (descent_s / max(iterations, 1) * 1e6, "us"),
        "autotune.examples": (counts["autotune.examples"], "count"),
        "autotune.pairs": (pairs, "count"),
        "autotune.min_loss": (min(history) / pairs, "cost"),
        "autotune.best_iter": (history.index(min(history)), "count"),
        "autotune.final_loss": (history[-1] / pairs, "cost"),
        "autotune.returned_hinge_per_pair": (hinge_per_pair, "cost"),
        "evaluation.run_s": (span_s("evaluation.run"), "s"),
        "evaluation.joined": (counts["evaluation.joined"], "count"),
        "evaluation.skipped": (counts["evaluation.skipped"], "count"),
        "scene.load_s": (span_s("scene.load", "predict"), "s"),
        "scene.rows": (counts["scene.rows"], "count"),
        "scene.lanes": (counts["scene.lanes"], "count"),
        "scene.exits": (counts["scene.exits"], "count"),
        "cli.startup_s": (startup_s, "s"),
        "cli.anchor_ms_p50": (_percentile(anchor_ms, 50), "ms"),
        "cli.anchor_ms_tail": (_percentile(anchor_ms, tail_q), "ms"),
        "cli.predictions_mb": (os.path.getsize(cli["predictions_path"]) / MB, "MB"),
        "cli.predict_stderr_lines": (cli["predict_stderr_lines"], "count"),
        "trace.predict_s": (stage_s["predict"], "s"),
    }
    for stage in STAGES:
        m[f"cli.{stage}_rss_mb"] = (cli["rss_mb"][stage], "MB")
        m[f"trace.overhead_{stage}_s"] = (stage_s[stage] - (cli["wall_s"][stage] - startup_s), "s")
    return m, tail_q


def run_traced(spawner, files, workload, work, seconds, record):
    """One CLI pass, then traced passes whose outputs must equal the CLI's."""
    problems = []
    startup = []
    for i in range(STARTUP_PROBES):
        child = spawner.run_child(runner.cli_argv("--help"), os.path.join(work, f"startup{i}"))
        startup.append(child.wall_s)
    startup_s = statistics.median(startup)

    start = time.perf_counter()
    cli_dir = os.path.join(work, "cli")
    results = cli_pass(spawner, files, workload, cli_dir)
    failed_stage = next((s for s, c in results.items() if c.returncode != 0), None)
    if failed_stage:
        problems.append(f"cli {failed_stage} exited {results[failed_stage].returncode}")
        return {}, problems, 1, 1
    quality = validate_outputs(files, workload, cli_dir)
    problems += quality["problems"]
    cli = {
        "wall_s": {s: c.wall_s for s, c in results.items()},
        "rss_mb": {s: c.maxrss_mb for s, c in results.items()},
        "predict_stderr_lines": results["predict"].stderr_lines(),
        "predictions_path": os.path.join(cli_dir, OUTPUTS["predict"]),
    }
    reference = output_hashes(cli_dir)

    per_pass = []
    passes = 0
    while True:
        pass_start = time.perf_counter()
        out_dir = os.path.join(work, f"traced{passes}")
        spec_path = os.path.join(work, f"traced{passes}.json")
        spans_path = os.path.join(work, f"spans{passes}.json")
        with open(spec_path, "w", encoding="utf-8") as fh:
            json.dump({"workload": workload.name, "files": files, "stride": workload.stride,
                       "annotate_horizon": workload.annotate_horizon,
                       "out_dir": out_dir, "spans_path": spans_path}, fh)
        child = spawner.run_child([sys.executable, os.path.join(BENCH, "traced.py"), spec_path],
                                 os.path.join(work, f"traced{passes}"))
        passes += 1
        if child.returncode != 0:
            problems.append(f"traced pass {passes} exited {child.returncode}")
            break
        hashes = output_hashes(out_dir)
        for name, digest in hashes.items():
            if digest != reference[name]:
                problems.append(f"traced pass {passes}: {name} differs from the CLI's")
        with open(spans_path, encoding="utf-8") as fh:
            trace = json.load(fh)
        metrics, tail_q = layer_metrics(trace, cli, startup_s, quality["tune_hinge_per_pair"])
        per_pass.append(metrics)
        shutil.rmtree(out_dir)
        os.remove(spans_path)
        if time.perf_counter() - start + (time.perf_counter() - pass_start) > seconds:
            break

    record.update(passes=passes, output_sha256=reference, quality=quality,
                  cli_wall_s=cli["wall_s"], startup_samples=startup,
                  anchor_tail_percentile=tail_q if per_pass else None,
                  layer_samples=per_pass)
    if not per_pass:
        return {}, problems, quality["anchors"], quality["anchors"]
    metrics = {name: (statistics.median([p[name][0] for p in per_pass]), unit)
               for name, (_, unit) in per_pass[0].items()}
    record["sizing"] = _sizing(metrics)
    return metrics, problems, quality["anchors"], quality["failed"]


def _sizing(m):
    """Shares of traced predict time that the issue's sizing claims rest on."""
    predict = m["trace.predict_s"][0]
    return {
        "realize_plus_collision_share_of_predict":
            (m["generation.realize_s"][0] + m["costing.collision_s"][0]) / predict,
        "search_share_of_predict": m["generation.search_s"][0] / predict,
        "priors_hit_ratio": m["generation.priors_hit_ratio"][0],
    }


def machine_facts():
    cpu_model = None
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu_model = next((line.split(":", 1)[1].strip() for line in fh
                              if line.startswith("model name")), None)
    except OSError:
        pass
    try:
        import numpy
        numpy_version = numpy.__version__
    except ImportError:
        numpy_version = None
    return {"nproc": os.cpu_count(), "cpu_model": cpu_model, "platform": platform.platform(),
            "python": platform.python_version(), "numpy": numpy_version}


def code_identity():
    """The commit when the checkout is a git tree, and a hash of the package
    source either way (benchmark checkouts need not be git trees)."""
    commit = None
    head = os.path.join(ROOT, ".git", "HEAD")
    if os.path.isfile(head):
        with open(head, encoding="utf-8") as fh:
            ref = fh.read().strip()
        if ref.startswith("ref: "):
            ref_path = os.path.join(ROOT, ".git", ref[5:])
            if os.path.isfile(ref_path):
                with open(ref_path, encoding="utf-8") as fh:
                    commit = fh.read().strip()
        else:
            commit = ref
    digest = hashlib.sha256()
    package = os.path.join(SRC, "trajpredict")
    for name in sorted(os.listdir(package)):
        if name.endswith(".py"):
            digest.update(name.encode())
            with open(os.path.join(package, name), "rb") as fh:
                digest.update(fh.read())
    return {"commit": commit, "src_sha256": digest.hexdigest()}


def run_workload(spawner, workload, seed, seconds, trace):
    """One benchmark run; returns the result line's fields and writes the record."""
    tag = f"{workload.name}-seed{seed}-trace{trace}"
    work = os.path.join(BENCH, "_work", tag)
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    record = {"workload": workload.name, "params": dataclasses.asdict(workload),
              "seed": seed, "seconds": seconds, "trace": trace,
              "machine": machine_facts(), **code_identity()}
    problems = []
    metrics, attempted, failed = {}, 1, 1
    try:
        problems += golden_gate(spawner, work)
        files = workloads.generate(workload.name, seed, os.path.join(work, "inputs"))
        with open(os.path.join(work, "files.json"), "w", encoding="utf-8") as fh:
            json.dump(files, fh)
        run = run_traced if trace else run_untraced
        metrics, run_problems, attempted, failed = run(
            spawner, files, workload, work, seconds, record)
        problems += run_problems
    except Exception:  # the program under test is broken: report it, do not crash
        problems.append(traceback.format_exc())
    finally:
        shutil.rmtree(work, ignore_errors=True)

    record["problems"] = problems
    record["metrics"] = {name: {"value": value, "unit": unit}
                         for name, (value, unit) in metrics.items()}
    results_dir = os.path.join(BENCH, "_results")
    os.makedirs(results_dir, exist_ok=True)
    with open(os.path.join(results_dir, f"{tag}.json"), "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1, sort_keys=True)
    print(f"== {workload.name} (seed {seed}, trace {trace}, {record.get('passes', 0)} passes)",
          file=sys.stderr)
    for message in problems:
        print(f"bench: {message}", file=sys.stderr)
    for name, (value, unit) in metrics.items():
        print(f"{name:>36} {value:>14.6g} {unit}", file=sys.stderr)
    return {
        "correct": not problems and bool(metrics),
        "attempted": attempted,
        "failed": failed,
        "metrics": record["metrics"],
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        help=f"one of {', '.join(workloads.WORKLOADS)}, or 'all'")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    problem = _layout_problem()
    if problem:
        print(f"bench: {problem}", file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("bench: --seconds must be positive", file=sys.stderr)
        return 2
    names = list(workloads.WORKLOADS) if args.workload == "all" else [args.workload]
    if any(name not in workloads.WORKLOADS for name in names):
        print(f"bench: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    global checks
    import checks

    with runner.Spawner() as spawner:
        for name in names:
            result = run_workload(
                spawner, workloads.WORKLOADS[name], args.seed, args.seconds, args.trace)
            print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
