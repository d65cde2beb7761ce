"""Traced run: the four CLI stages rebuilt from the package's public
functions, with a span around every call into a layer.

Run as a child process by `run.py`:

    python bench/traced.py <spec.json>

The spec names the workload's input files, the anchor stride, the annotate
horizon, an output directory and a spans path. The stage outputs are
written in the CLI's exact byte format so the caller can require them to
equal the untraced CLI's outputs. Spans stay in memory and are written once
at the end, as `[name, start, end, parent index, trace id]` rows, where the
trace id is `[workload, stage, obstacle, anchor index]`.

The three sub-costs are timed in an extra pass over each anchor's
candidates after its span closes, inside a `trace.subcost_pass` span that
the caller subtracts from the predict stage, so the pass inflates neither
`costing.rank` nor the measured tracing overhead.
"""

from __future__ import annotations

import json
import os
import sys
import time
from typing import List, Optional

from trajpredict import annotation, autotune, costing, evaluation, generation
from trajpredict.errors import AssociationError, CoverageError, PipelineError
from trajpredict.scene import ObstacleTrack, load_ego_plan, load_scene

EVAL_HORIZONS = [1.0, 3.0]


class Tracer:
    """In-memory spans; a span's parent is the span open when it started."""

    def __init__(self, workload: str):
        self.workload = workload
        self.spans: List[Optional[list]] = []
        self._open: List[int] = []
        self.counts = {}

    def span(self, name: str, stage: str, obstacle: Optional[str] = None, anchor=None):
        return _Span(self, name, [self.workload, stage, obstacle, anchor])

    def count(self, name: str, amount=1):
        self.counts[name] = self.counts.get(name, 0) + amount


class _Span:
    __slots__ = ("tracer", "name", "trace_id", "index", "start")

    def __init__(self, tracer: Tracer, name: str, trace_id: list):
        self.tracer, self.name, self.trace_id = tracer, name, trace_id

    def __enter__(self):
        tracer = self.tracer
        self.index = len(tracer.spans)
        tracer.spans.append(None)
        tracer._open.append(self.index)
        self.start = time.perf_counter()
        return self

    def __exit__(self, *exc):
        end = time.perf_counter()
        tracer = self.tracer
        tracer._open.pop()
        parent = tracer._open[-1] if tracer._open else -1
        tracer.spans[self.index] = [self.name, self.start, end, parent, self.trace_id]
        return False


def _dumps(obj) -> str:
    return json.dumps(obj, separators=(",", ":"), allow_nan=False)


def _write(path: str, text: str):
    tmp = f"{path}.tmp"
    with open(tmp, "w", encoding="utf-8") as fh:
        fh.write(text)
    os.replace(tmp, path)


def _history_track(track: ObstacleTrack, anchor: float) -> ObstacleTrack:
    """The track as known at the anchor, exactly as the predict stage builds it."""
    states = [st for st in track.states if st.timestamp <= anchor + 1e-9]
    at_anchor = track.state_at(anchor)
    if not states or states[-1].timestamp < at_anchor.timestamp:
        states.append(at_anchor)
    return ObstacleTrack(obstacle_id=track.obstacle_id, states=tuple(states))


def traced_annotate(tr: Tracer, spec: dict, out: str):
    files = spec["files"]
    with tr.span("stage", "annotate"):
        with tr.span("scene.load", "annotate"):
            tracks, map_graph, _ = load_scene(files["log"], files["map"])
        road_test_id = os.path.splitext(os.path.basename(files["log"]))[0]
        horizon, resolution = spec["annotate_horizon"], annotation.DEFAULT_RESOLUTION_S
        records = []
        for track in sorted(tracks, key=lambda t: t.obstacle_id):
            for idx, anchor in enumerate(annotation.anchor_times(track, spec["stride"])):
                tr.count("annotation.anchors")
                with tr.span("annotation.anchor", "annotate", track.obstacle_id, idx):
                    with tr.span("annotation.future", "annotate", track.obstacle_id, idx):
                        try:
                            label = annotation.label_future_trajectory(
                                track, anchor, horizon, resolution
                            )
                        except CoverageError:
                            continue
                    with tr.span("annotation.exit", "annotate", track.obstacle_id, idx):
                        exit_label = annotation.label_exit_taken(
                            track, anchor, map_graph, horizon, annotation.DEFAULT_EXIT_CAPTURE_M
                        )
                    with tr.span("annotation.lane_seq", "annotate", track.obstacle_id, idx):
                        lane_label = annotation.label_lane_sequence(
                            track, anchor, map_graph, horizon, resolution,
                            annotation.DEFAULT_LATERAL_CAPTURE_M,
                        )
                    history = [
                        {"t": st.timestamp, "x": st.position.x, "y": st.position.y,
                         "heading": st.heading, "speed": st.speed}
                        for st in track.states
                        if st.timestamp <= anchor + 1e-9
                    ]
                    records.append({
                        "road_test_id": road_test_id,
                        "obstacle_id": track.obstacle_id,
                        "anchor_time": anchor,
                        "history": history,
                        "future": [[rel, p.x, p.y] for rel, p in label.future_points],
                        "exit_label": exit_label.exit_id if exit_label else None,
                        "lane_sequence_label": list(lane_label.lane_ids) if lane_label else None,
                    })
        tr.count("annotation.records", len(records))
        with tr.span("annotation.write", "annotate"):
            _write(os.path.join(out, "dataset.jsonl"), "".join(_dumps(r) + "\n" for r in records))


def _subcost_pass(tr: Tracer, candidates_by_intention, ego, weights, anchor):
    """Time each sub-cost over every candidate of one anchor."""
    clock = time.perf_counter
    acc = cen = col = 0.0
    for candidates in candidates_by_intention.values():
        for cand in candidates:
            t0 = clock()
            costing.cost_acc(cand)
            t1 = clock()
            costing.cost_centripetal(cand, weights.z1)
            t2 = clock()
            costing.cost_collision(cand, ego, weights.z2, anchor)
            t3 = clock()
            acc += t1 - t0
            cen += t2 - t1
            col += t3 - t2
    tr.count("costing.acc_s", acc)
    tr.count("costing.centripetal_s", cen)
    tr.count("costing.collision_s", col)


def traced_predict(tr: Tracer, spec: dict, out: str):
    files = spec["files"]
    with tr.span("stage", "predict"):
        with tr.span("scene.load", "predict"):
            tracks, map_graph, ego = load_scene(files["log"], files["map"], files.get("ego"))
        with tr.span("config.load", "predict"):
            weights = costing.CostWeights.from_file(files["weights"])
            config = generation.GenerationConfig.from_file(files["genconfig"])
        with tr.span("generation.priors_load", "predict"):
            priors_table = generation.load_priors(files["priors"]) if files.get("priors") else {}
        tr.count("scene.rows", sum(len(t.states) for t in tracks))
        tr.count("scene.lanes", len(map_graph.lanes))
        tr.count("scene.exits", len(map_graph.exits))
        lines = []
        for track in tracks:
            oid = track.obstacle_id
            for idx, anchor in enumerate(annotation.anchor_times(track, spec["stride"])):
                tr.count("generation.anchors")
                with tr.span("predict.anchor", "predict", oid, idx):
                    with tr.span("generation.state", "predict", oid, idx):
                        state = track.state_at(anchor)
                        history = _history_track(track, anchor)
                    with tr.span("generation.priors", "predict", oid, idx):
                        priors = priors_table.get((oid, anchor))
                        if priors is not None:
                            tr.count("generation.priors_hits")
                        elif map_graph.exits:
                            priors = generation.heuristic_exit_priors(
                                history, map_graph, config.temperature
                            )
                    if priors is None:
                        continue
                    with tr.span("generation.sample_profiles", "predict", oid, idx):
                        profiles = generation.sample_profiles(
                            state.speed, config.accel_set, config.horizon_secs,
                            config.resolution_secs, config.limits,
                        )
                    if not profiles:
                        continue
                    candidates_by_intention = {}
                    kept = []
                    for prior in priors:
                        tr.count("generation.search_calls")
                        with tr.span("generation.search", "predict", oid, idx):
                            try:
                                paths = generation.search_paths(
                                    prior.intention_id, state, map_graph,
                                    config.min_path_length_m, config.max_lanes,
                                )
                            except AssociationError:
                                continue
                        tr.count("generation.paths", len(paths))
                        tr.count("generation.search_hits", bool(paths))
                        with tr.span("generation.realize", "predict", oid, idx):
                            candidates = [
                                generation.realize_trajectory(path, profile)
                                for path in paths
                                for profile in profiles
                            ]
                        if candidates:
                            kept.append(prior)
                            candidates_by_intention[prior.intention_id] = candidates
                            tr.count("generation.candidates", len(candidates))
                            tr.count("generation.points", sum(len(c.points) for c in candidates))
                    if not kept:
                        continue
                    with tr.span("generation.normalize", "predict", oid, idx):
                        kept = generation.normalize_priors(kept)
                    with tr.span("costing.rank", "predict", oid, idx):
                        result = costing.rank_intentions(
                            oid, anchor, candidates_by_intention, kept, ego, weights
                        )
                    with tr.span("costing.serialize", "predict", oid, idx):
                        lines.append(_dumps(costing.result_to_record(result, weights)) + "\n")
                with tr.span("trace.subcost_pass", "predict", oid, idx):
                    _subcost_pass(tr, candidates_by_intention, ego, weights, anchor)
        with tr.span("costing.write", "predict"):
            _write(os.path.join(out, "predictions.jsonl"), "".join(lines))


def _load_joined(tr: Tracer, stage: str, out: str):
    with tr.span("costing.load", stage):
        predictions = costing.load_prediction_records(os.path.join(out, "predictions.jsonl"))
    with tr.span("annotation.load", stage):
        dataset = annotation.load_dataset_records(os.path.join(out, "dataset.jsonl"))
    return predictions, dataset


def traced_tune(tr: Tracer, spec: dict, out: str):
    files = spec["files"]
    with tr.span("stage", "tune"):
        predictions, dataset = _load_joined(tr, "tune", out)
        with tr.span("config.load", "tune"):
            config = autotune.TunerConfig.from_file(files["tunerconfig"])
            ego = load_ego_plan(files["ego"]) if files.get("ego") else None
        with tr.span("autotune.extract", "tune"):
            examples, skipped = autotune.extract_examples(predictions, dataset, ego)
        if not examples:
            raise PipelineError("no tuning examples")
        normalizers = {(float(r["z1"]), float(r["z2"])) for r in predictions if "z1" in r}
        z1, z2 = next(iter(normalizers))
        with tr.span("autotune.descent", "tune"):
            theta, history = autotune.tune_weights(examples, config)
        tr.count("autotune.examples", len(examples))
        tr.count("autotune.pairs", sum(len(ex.candidate_subcosts) for ex in examples))
        tr.counts["autotune.history"] = history
        doc = {
            "theta_acc": float(theta[0]),
            "theta_centripetal": float(theta[1]),
            "theta_collision": float(theta[2]),
            "z1": z1,
            "z2": z2,
            "final_loss": history[-1],
            "iterations": len(history) - 1,
        }
        with tr.span("autotune.write", "tune"):
            _write(os.path.join(out, "tuned.json"), _dumps(doc) + "\n")


def traced_eval(tr: Tracer, spec: dict, out: str):
    with tr.span("stage", "eval"):
        predictions, dataset = _load_joined(tr, "eval", out)
        with tr.span("evaluation.run", "eval"):
            report = evaluation.evaluate_run(predictions, dataset, EVAL_HORIZONS)
        # skipped = (P - joined) + (L - joined) for P predictions and L labels
        tr.count("evaluation.joined", (len(predictions) + len(dataset) - report["skipped"]) // 2)
        tr.count("evaluation.skipped", report["skipped"])
        with tr.span("evaluation.write", "eval"):
            _write(os.path.join(out, "report.json"), _dumps(report) + "\n")


def main(spec_path: str) -> int:
    with open(spec_path, encoding="utf-8") as fh:
        spec = json.load(fh)
    out = spec["out_dir"]
    os.makedirs(out, exist_ok=True)
    tr = Tracer(spec["workload"])
    traced_annotate(tr, spec, out)
    traced_predict(tr, spec, out)
    traced_tune(tr, spec, out)
    traced_eval(tr, spec, out)
    _write(spec["spans_path"], json.dumps({"spans": tr.spans, "counts": tr.counts}))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
