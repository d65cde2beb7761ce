"""Command-line pipeline: annotate, predict, tune, eval.

The four subcommands mirror the offboard data workflow: label logged tracks
into a dataset, rank intention-conditioned candidate trajectories against a
weights file, tune those weights from the labeled data, and score
predictions against labels. All inputs and outputs are JSON documents or
JSON-lines files; outputs are written atomically (temp file + rename) and
every command is deterministic given identical inputs.

Exit codes: 0 success, 1 data/runtime error, 2 usage or validation error.
"""

from __future__ import annotations

import argparse
import contextlib
import math
import os
import sys
from typing import Dict, Iterable, Iterator, List, Optional

from . import annotation, costing, evaluation, generation, jsonio
from .errors import AssociationError, ConfigError, JoinError, PipelineError, SceneIntegrityError
from .scene import MAX_GRID_TIMES, TIME_EPS, ObstacleTrack, load_ego_plan, load_scene, time_grid


def _write_atomic(path: str, lines: Iterable[str]):
    """Write lines, as they come, through a temp file named per process in
    the same directory, so concurrent runs never share one, then rename it
    over path. An error while writing, or raised by lines, removes the temp
    file and leaves path as it was."""
    tmp = f"{path}.{os.getpid()}.tmp"
    try:
        with open(tmp, "w", encoding="utf-8") as fh:
            fh.writelines(lines)
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(OSError):
            os.remove(tmp)
        raise


def _write_jsonl(path: str, records: Iterable[dict]) -> None:
    _write_atomic(path, (jsonio.dumps(r) + "\n" for r in records))


def _positive(value: float, name: str) -> float:
    if not 0.0 < value < math.inf:
        raise ConfigError(f"--{name} must be positive and finite, got {value}")
    return value


def cmd_annotate(args) -> int:
    _positive(args.horizon, "horizon")
    _positive(args.stride, "stride")
    _positive(args.resolution, "resolution")
    if not 0.0 <= args.min_history < math.inf:
        raise ConfigError(f"--min-history must be nonnegative and finite, got {args.min_history}")
    try:
        time_grid(args.horizon, args.resolution)
    except ValueError as exc:
        raise ConfigError(f"--horizon/--resolution: {exc}") from exc
    tracks, map_graph, _ = load_scene(args.log, args.map)
    road_test_id = args.road_test_id or os.path.splitext(os.path.basename(args.log))[0]
    try:
        records, skipped = annotation.build_dataset(
            tracks,
            map_graph,
            road_test_id=road_test_id,
            stride=args.stride,
            horizon=args.horizon,
            resolution=args.resolution,
            min_history=args.min_history,
        )
    except SceneIntegrityError as exc:  # an obstacle's anchor grid
        raise SceneIntegrityError(f"{args.log}: {exc}") from exc
    _write_jsonl(args.out, records)
    print(jsonio.dumps({"records": len(records), "skipped": skipped, "out": args.out}))
    return 0


def _history_track(track: ObstacleTrack, anchor: float) -> ObstacleTrack:
    """The track as known at the anchor: states up to and including it."""
    states = [st for st in track.states if st.timestamp <= anchor + TIME_EPS]
    at_anchor = track.state_at(anchor)
    if not states or states[-1].timestamp < at_anchor.timestamp:
        states.append(at_anchor)
    return ObstacleTrack(obstacle_id=track.obstacle_id, states=tuple(states))


def _candidates_for_anchor(
    track: ObstacleTrack,
    anchor: float,
    map_graph,
    ego,
    weights: costing.CostWeights,
    config: generation.GenerationConfig,
    priors_table: Dict[annotation.AnchorKey, List[generation.IntentionPrior]],
    diagnostics: List[str],
) -> Optional[costing.PredictionResult]:
    """Generate, cost, and rank candidates for one (obstacle, anchor).

    ConfigError refuses an anchor whose candidates would hold more than
    MAX_GRID_TIMES points in all, counted before each intention is realized,
    and one whose candidates' sub-costs sum beyond the float range.
    """
    state = track.state_at(anchor)
    history = _history_track(track, anchor)
    priors = priors_table.get(annotation.anchor_key(track.obstacle_id, anchor))
    if priors is None:
        if not map_graph.exits:
            diagnostics.append(
                f"{track.obstacle_id}@{anchor}: no priors supplied and map has no exits"
            )
            return None
        priors = generation.heuristic_exit_priors(history, map_graph, config.temperature)

    profiles = generation.sample_profiles(
        state.speed, config.accel_set, config.horizon_secs, config.resolution_secs, config.limits
    )
    if not profiles:
        diagnostics.append(
            f"{track.obstacle_id}@{anchor}: no admissible accelerations within limits"
        )
        return None

    candidates_by_intention = {}
    kept = []
    points = 0
    for prior in priors:
        try:
            paths = generation.search_paths(
                prior.intention_id,
                state,
                map_graph,
                config.min_path_length_m,
                config.max_lanes,
            )
        except AssociationError as exc:
            diagnostics.append(f"{track.obstacle_id}@{anchor}: {exc}")
            continue
        points += len(paths) * len(profiles) * len(profiles[0].times)
        if points > MAX_GRID_TIMES:
            raise ConfigError(
                f"obstacle {track.obstacle_id!r} at anchor {anchor}: the candidates "
                f"would hold more than {MAX_GRID_TIMES} points"
            )
        candidates = [
            generation.realize_trajectory(path, profile)
            for path in paths
            for profile in profiles
        ]
        if candidates:
            kept.append(prior)
            candidates_by_intention[prior.intention_id] = candidates
    if not kept:
        diagnostics.append(f"{track.obstacle_id}@{anchor}: no realizable intention")
        return None
    kept = generation.normalize_priors(kept)
    try:
        return costing.rank_intentions(
            track.obstacle_id, anchor, candidates_by_intention, kept, ego, weights
        )
    except OverflowError as exc:  # a sub-cost's sum, before any weight or normalizer applies
        raise ConfigError(
            f"the generation config gives non-finite sub-costs for obstacle "
            f"{track.obstacle_id!r} at anchor {anchor}: {exc}"
        ) from exc


def cmd_predict(args) -> int:
    _positive(args.stride, "stride")
    tracks, map_graph, ego = load_scene(args.scene, args.map, args.ego)
    weights = costing.CostWeights.from_file(args.weights)
    config = generation.GenerationConfig.from_file(args.config)
    priors_table = generation.load_priors(args.priors) if args.priors else {}

    counts = {"predictions": 0, "skipped": 0}
    diagnostics: List[str] = []

    def records() -> Iterator[dict]:
        """Each anchor's record as soon as it is ranked, so no more than one
        anchor's candidates and record are held at a time."""
        for track in tracks:
            try:
                anchors = annotation.anchor_times(track, args.stride)
            except SceneIntegrityError as exc:
                raise SceneIntegrityError(f"{args.scene}: {exc}") from exc
            for anchor in anchors:
                try:
                    result = _candidates_for_anchor(
                        track, anchor, map_graph, ego, weights, config, priors_table, diagnostics
                    )
                except ConfigError as exc:
                    raise ConfigError(f"{args.config}: {exc}") from exc
                if result is None:
                    counts["skipped"] += 1
                    continue
                totals = [b.total for r in result.intentions for b in r.candidate_breakdowns]
                if not all(map(math.isfinite, totals)):  # a weight or a normalizer overflowed them
                    raise ConfigError(
                        f"{args.weights}: the weights give non-finite costs for obstacle "
                        f"{track.obstacle_id!r} at anchor {anchor}"
                    )
                counts["predictions"] += 1
                yield costing.result_to_record(result, weights)

    _write_jsonl(args.out, records())
    for message in diagnostics:
        print(f"predict: {message}", file=sys.stderr)
    print(jsonio.dumps({**counts, "out": args.out}))
    return 0


def cmd_tune(args) -> int:
    from . import autotune  # only tune loads the tuner; numpy loads when its descent runs

    predictions = costing.load_prediction_records(args.predictions)
    dataset = annotation.load_dataset_records(args.dataset)
    config = autotune.TunerConfig.from_file(args.tuner_config)
    ego = load_ego_plan(args.ego) if args.ego else None
    try:
        examples, skipped = autotune.extract_examples(predictions, dataset, ego)
    except JoinError as exc:
        raise JoinError(f"{args.predictions}, {args.dataset}: {exc}") from exc
    if not examples:
        raise PipelineError("no tuning examples: prediction and dataset keys do not overlap")

    normalizers = {(float(r["z1"]), float(r["z2"])) for r in predictions}
    if len(normalizers) != 1:
        raise PipelineError(f"predictions carry inconsistent normalizers: {sorted(normalizers)}")
    z1, z2 = next(iter(normalizers))

    try:
        theta, history = autotune.tune_weights(examples, config)
    except ConfigError as exc:  # a descent step overflowed
        raise ConfigError(f"{args.tuner_config}: {exc}") from exc
    weights = costing.CostWeights(*(float(v) for v in theta), z1=z1, z2=z2)
    out = {**weights.to_dict(), "final_loss": history[-1], "iterations": len(history) - 1}
    _write_atomic(args.out, [jsonio.dumps(out) + "\n"])
    print(
        jsonio.dumps(
            {
                "examples": len(examples),
                "skipped": skipped,
                "final_loss": history[-1],
                "iterations": len(history) - 1,
                "out": args.out,
            }
        )
    )
    return 0


def _parse_horizons(raw: str) -> List[float]:
    try:
        horizons = [float(part) for part in raw.split(",")]
    except ValueError as exc:
        raise ConfigError(f"--horizons must be comma-separated numbers, got {raw!r}") from exc
    if not all(0.0 < h < math.inf for h in horizons):
        raise ConfigError(f"--horizons must be positive and finite, got {raw!r}")
    return horizons


def cmd_eval(args) -> int:
    horizons = _parse_horizons(args.horizons)
    predictions = costing.load_prediction_records(args.predictions)
    dataset = annotation.load_dataset_records(args.dataset)
    try:
        report = evaluation.evaluate_run(predictions, dataset, horizons)
    except ValueError as exc:  # a prediction and its label on different time grids
        raise PipelineError(f"{args.predictions}, {args.dataset}: {exc}") from exc
    _write_atomic(args.out, [jsonio.dumps(report) + "\n"])

    print(f"{'horizon':>8}  {'ade':>10}  {'fde':>10}  {'count':>6}")
    for entry in report["horizons"]:
        print(
            f"{entry['h']:>8.2f}  {entry['ade']:>10.4f}  {entry['fde']:>10.4f}  "
            f"{entry['count']:>6d}"
        )
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="trajpredict",
        description="Vehicle trajectory prediction pipeline: annotate, predict, tune, eval.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("annotate", help="label logged tracks into a ground-truth dataset")
    p.add_argument("--log", required=True, help="obstacle log (JSON-lines)")
    p.add_argument("--map", required=True, help="lane/exit map (JSON)")
    p.add_argument("--horizon", type=float, required=True, help="label horizon, seconds")
    p.add_argument("--stride", type=float, required=True, help="anchor stride, seconds")
    p.add_argument("--resolution", type=float, default=0.1, help="label resolution, seconds")
    p.add_argument("--min-history", type=float, default=0.0, help="history required per anchor, seconds")
    p.add_argument("--road-test-id", default=None, help="record key; defaults to the log file stem")
    p.add_argument("--out", required=True, help="dataset output path (JSON-lines)")
    p.set_defaults(func=cmd_annotate)

    p = sub.add_parser("predict", help="rank intention-conditioned candidate trajectories")
    p.add_argument("--scene", required=True, help="obstacle log (JSON-lines)")
    p.add_argument("--map", required=True, help="lane/exit map (JSON)")
    p.add_argument("--ego", default=None, help="ego plan (JSON-lines), optional")
    p.add_argument("--priors", default=None, help="intention priors file (JSON-lines), optional")
    p.add_argument("--weights", required=True, help="cost weights file (JSON)")
    p.add_argument("--config", required=True, help="generation config (JSON)")
    p.add_argument("--stride", type=float, default=1.0, help="anchor stride, seconds")
    p.add_argument("--out", required=True, help="predictions output path (JSON-lines)")
    p.set_defaults(func=cmd_predict)

    p = sub.add_parser("tune", help="learn cost weights from predictions plus labels")
    p.add_argument("--predictions", required=True, help="prediction file (JSON-lines)")
    p.add_argument("--dataset", required=True, help="labeled dataset file (JSON-lines)")
    p.add_argument("--tuner-config", required=True, help="tuner config (JSON)")
    p.add_argument("--ego", default=None, help="ego plan used during prediction, optional")
    p.add_argument("--out", required=True, help="tuned weights output path (JSON)")
    p.set_defaults(func=cmd_tune)

    p = sub.add_parser("eval", help="score predictions against the labeled dataset")
    p.add_argument("--predictions", required=True, help="prediction file (JSON-lines)")
    p.add_argument("--dataset", required=True, help="labeled dataset file (JSON-lines)")
    p.add_argument("--horizons", default="1,3", help="comma-separated horizons, seconds")
    p.add_argument("--out", required=True, help="metric report output path (JSON)")
    p.set_defaults(func=cmd_eval)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (PipelineError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def entrypoint():
    sys.exit(main())
