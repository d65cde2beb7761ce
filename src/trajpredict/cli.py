"""Command-line pipeline: annotate, predict, tune, eval.

The four subcommands mirror the offboard data workflow: label logged tracks
into a dataset, rank intention-conditioned candidate trajectories against a
weights file, tune those weights from the labeled data, and score
predictions against labels. All inputs and outputs are JSON documents or
JSON-lines files; outputs are written atomically (temp file + rename) and
every command is deterministic given identical inputs.

Each command imports the stages it runs, so annotate loads only the
labelling modules (annotation, scene, geometry, jsonio, errors): predict
imports costing and generation, eval costing and evaluation, and tune
autotune and costing.

annotate and predict share one anchor driver: _anchor_jobs lists their
(obstacle, anchor) jobs, and _write_anchor_lines writes each job's line, or
skips it, in job order, however many processes _in_job_order computes them
in. tune overlaps reading its inputs with importing numpy (cmd_tune); eval
runs in one process.

Exit codes: 0 success, 1 data/runtime error, 2 usage or validation error.
"""

from __future__ import annotations

import argparse
import contextlib
import math
import os
import sys
from typing import BinaryIO, Callable, Iterable, Iterator, List, Optional, Tuple

from . import annotation, jsonio
from .errors import AssociationError, ConfigError, JoinError, PipelineError, SceneIntegrityError
from .scene import MAX_GRID_TIMES, ObstacleTrack, load_ego_plan, load_scene

AnchorJob = Tuple[ObstacleTrack, float]
AnchorLine = Tuple[Optional[str], List[str]]  # a record line, or None when skipped, and diagnostics


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


def _positive(value: float, name: str) -> None:
    if not 0.0 < value < math.inf:
        raise ConfigError(f"--{name} must be positive and finite, got {value}")


def _anchor_jobs(tracks: List[ObstacleTrack], stride: float, log: str) -> List[AnchorJob]:
    """Each track's anchors at stride, in the tracks' (obstacle-id) order;
    SceneIntegrityError, naming log, for an obstacle that cannot be gridded."""
    try:
        return [
            (track, anchor)
            for track in tracks
            for anchor in annotation.anchor_times(track, stride)
        ]
    except SceneIntegrityError as exc:  # an obstacle's anchor grid
        raise SceneIntegrityError(f"{log}: {exc}") from exc


def _write_anchor_lines(
    anchor_line: Callable[[AnchorJob], AnchorLine], jobs: List[AnchorJob], out: str, kept: str
) -> None:
    """Write each job's anchor_line to out, in job order through _in_job_order;
    then print the diagnostics to stderr and the counts of kept (under `kept`)
    and skipped anchors to stdout."""
    counts = {kept: 0, "skipped": 0}
    diagnostics: List[str] = []

    def lines(results: Iterable[AnchorLine]) -> Iterator[str]:
        for line, messages in results:
            diagnostics.extend(messages)
            counts["skipped" if line is None else kept] += 1
            if line is not None:
                yield line

    with _in_job_order(anchor_line, jobs) as results:
        _write_atomic(out, lines(results))
    for message in diagnostics:
        print(f"predict: {message}", file=sys.stderr)
    print(jsonio.dumps({**counts, "out": out}))


def cmd_annotate(args) -> int:
    _positive(args.horizon, "horizon")
    _positive(args.stride, "stride")
    _positive(args.resolution, "resolution")
    try:
        annotation.label_times(args.horizon, args.resolution)
    except ValueError as exc:
        raise ConfigError(f"--horizon/--resolution: {exc}") from exc
    tracks, map_graph, _ = load_scene(args.log, args.map)
    road_test_id = args.road_test_id or os.path.splitext(os.path.basename(args.log))[0]

    def annotate_anchor(job: AnchorJob) -> AnchorLine:
        """One anchor's record line, or None when it is skipped, and no diagnostics."""
        record = annotation.label_anchor(
            *job,
            map_graph,
            road_test_id=road_test_id,
            horizon=args.horizon,
            resolution=args.resolution,
        )
        return (None if record is None else jsonio.dumps(record) + "\n"), []

    jobs = _anchor_jobs(tracks, args.stride, args.log)
    _write_anchor_lines(annotate_anchor, jobs, args.out, "records")
    return 0


def _process_count() -> int:
    """The CPUs in this process's affinity mask, or 1 where fork or the
    mask is unavailable."""
    if hasattr(os, "fork") and hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return 1


@contextlib.contextmanager
def _in_job_order(fn: Callable, jobs: list):
    """fn(job) for each job, in job order, computed in one process per CPU
    of the affinity mask (_process_count), and in no more processes than jobs.

    With N processes, share k computes jobs k, k + N, k + 2N, ... on the
    k-th CPU of the mask (modulo its size). This process is share 0; each
    other share is a forked child that binds itself to its CPU and pickles
    (True, fn(job)) for each of its jobs in turn, or (False, exc) for the
    exception fn raised and then stops, into a pipe. A child closes the read
    ends of the earlier children, so each pipe's only reader is this
    process: a write after this process is gone breaks the pipe and ends the
    child. A child leaves only through os._exit, so it never flushes this
    process's buffers or runs its exit handlers. A share that cannot be
    forked is computed here.
    Results are read strictly in job order, so the first job that raises
    raises here as it would in one process, and a child runs at most one
    pipe buffer ahead. Every child is killed and reaped on leaving, on every
    path. With one share nothing is forked.
    """
    shares = max(1, min(_process_count(), len(jobs)))
    if shares == 1:
        yield map(fn, jobs)
        return
    import pickle  # only a forked run loads pickle and signal
    import signal

    mask = os.sched_getaffinity(0)
    cpus = sorted(mask)
    children: List[Tuple[int, BinaryIO]] = []

    def results() -> Iterator:
        for i, job in enumerate(jobs):
            k = i % shares
            if k == 0 or k > len(children):  # this process's share, or one not forked
                yield fn(job)
                continue
            pid, reader = children[k - 1]
            try:
                ok, value = pickle.load(reader)
            except (EOFError, pickle.UnpicklingError):  # it exited before sending the result whole
                raise PipelineError(f"process {pid} ended before computing its share") from None
            if not ok:
                raise value
            yield value

    try:
        for k in range(1, shares):
            # no descriptor or process to spare: the unforked shares run here
            try:
                r, w = os.pipe()
            except OSError:
                break
            try:
                pid = os.fork()
            except OSError:
                os.close(r)
                os.close(w)
                break
            if pid:
                os.close(w)
                children.append((pid, open(r, "rb")))
                continue
            code = 1
            try:
                os.sched_setaffinity(0, {cpus[k % len(cpus)]})
                os.close(r)
                for _, reader in children:
                    reader.close()
                with open(w, "wb") as pipe:
                    for job in jobs[k::shares]:
                        try:
                            item = (True, fn(job))
                        except Exception as exc:
                            item = (False, exc)
                        pipe.write(pickle.dumps(item, pickle.HIGHEST_PROTOCOL))
                        pipe.flush()
                        if not item[0]:
                            break
                code = 0
            finally:
                os._exit(code)
        # one CPU per process: on a 2-vCPU VM, left free, the scheduler kept
        # both processes on one CPU for minutes at a time
        os.sched_setaffinity(0, {cpus[0]})
        yield results()
    finally:
        os.sched_setaffinity(0, mask)
        for pid, reader in children:
            os.kill(pid, signal.SIGKILL)
            reader.close()
            os.waitpid(pid, 0)


def cmd_predict(args) -> int:
    from . import costing, generation

    _positive(args.stride, "stride")
    tracks, map_graph, ego = load_scene(args.scene, args.map, args.ego)
    weights = costing.CostWeights.from_file(args.weights)
    config = generation.GenerationConfig.from_file(args.config)
    priors_table = generation.load_priors(args.priors) if args.priors else {}

    def predict_anchor(job: AnchorJob) -> AnchorLine:
        """Generate, cost, and rank one anchor's candidates. ConfigError refuses,
        naming --config, candidates that would hold more than MAX_GRID_TIMES
        points in all (counted before each intention is realized) or sum their
        sub-costs beyond the float range, and, naming --weights, non-finite totals."""
        track, anchor = job
        state = track.state_at(anchor)
        priors = priors_table.get(annotation.anchor_key(track.obstacle_id, anchor))
        if priors is None:
            if not map_graph.exits:
                return None, [
                    f"{track.obstacle_id}@{anchor}: no priors supplied and map has no exits"
                ]
            # the latest state known at the anchor: the last one logged, or the anchor's if later
            latest = max(track.known_at(anchor)[-1], state, key=lambda st: st.timestamp)
            priors = generation.heuristic_exit_priors(
                ObstacleTrack(track.obstacle_id, (latest,)), map_graph, config.temperature
            )

        # nonempty: the config keeps an admissible acceleration
        profiles = generation.sample_profiles(
            state.speed, config.accel_set, config.horizon_secs, config.resolution_secs, config.limits
        )
        diagnostics: List[str] = []
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
                    f"{args.config}: obstacle {track.obstacle_id!r} at anchor {anchor}: the "
                    f"candidates would hold more than {MAX_GRID_TIMES} points"
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
            return None, diagnostics
        kept = generation.normalize_priors(kept)
        try:
            record = costing.rank_intentions(
                track.obstacle_id, anchor, candidates_by_intention, kept, ego, weights
            )
        except OverflowError as exc:  # a sub-cost's sum, before any weight or normalizer applies
            raise ConfigError(
                f"{args.config}: the generation config gives non-finite sub-costs for "
                f"obstacle {track.obstacle_id!r} at anchor {anchor}: {exc}"
            ) from exc
        totals = [row[3] for entry in record["intentions"] for row in entry["candidates"]]
        if not all(map(math.isfinite, totals)):  # a weight or a normalizer overflowed them
            raise ConfigError(
                f"{args.weights}: the weights give non-finite costs for obstacle "
                f"{track.obstacle_id!r} at anchor {anchor}"
            )
        return jsonio.dumps(record) + "\n", diagnostics

    jobs = _anchor_jobs(tracks, args.stride, args.scene)
    _write_anchor_lines(predict_anchor, jobs, args.out, "predictions")
    return 0


def cmd_tune(args) -> int:
    # only tune loads the tuner and numpy: a forked share reads the inputs while
    # this process imports numpy, so the decoded records never share a process
    # with numpy (with one CPU in the mask, as under taskset -c 0, both run here)
    from . import autotune, costing

    def import_numpy() -> Optional[ImportError]:
        """numpy's ImportError, returned so that a bad input still fails first."""
        try:
            import numpy  # noqa: F401
        except ImportError as exc:
            return exc
        return None

    def read_inputs():
        predictions = costing.load_prediction_records(args.predictions)
        dataset = annotation.load_dataset_records(args.dataset)
        config = autotune.TunerConfig.from_file(args.tuner_config)
        ego = load_ego_plan(args.ego) if args.ego else None
        inputs = f"{args.predictions}, {args.dataset}"
        try:
            examples, skipped = autotune.extract_examples(predictions, dataset, ego)
        except JoinError as exc:
            raise JoinError(f"{inputs}: {exc}") from exc
        if not examples:
            raise PipelineError(
                f"{inputs}: no tuning examples: prediction and dataset keys do not overlap"
            )

        normalizers = {(float(r["z1"]), float(r["z2"])) for r in predictions}
        if len(normalizers) != 1:
            raise PipelineError(
                f"{args.predictions}: predictions carry inconsistent normalizers: "
                f"{sorted(normalizers)}"
            )
        return examples, skipped, config, next(iter(normalizers))

    with _in_job_order(lambda job: job(), [import_numpy, read_inputs]) as results:
        missing_numpy, (examples, skipped, config, (z1, z2)) = results
    if missing_numpy is not None:
        raise missing_numpy

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
    if len(set(horizons)) < len(horizons):
        raise ConfigError(f"--horizons must not repeat a horizon, got {raw!r}")
    return horizons


def cmd_eval(args) -> int:
    from . import costing, evaluation

    horizons = _parse_horizons(args.horizons)
    predictions = costing.load_prediction_records(args.predictions)
    dataset = annotation.load_dataset_records(args.dataset)
    try:
        report = evaluation.evaluate_run(predictions, dataset, horizons)
    except (JoinError, ValueError) as exc:  # a repeated anchor key, or differing time grids
        raise PipelineError(f"{args.predictions}, {args.dataset}: {exc}") from exc
    _write_atomic(args.out, [jsonio.dumps(report) + "\n"])

    def cell(value: Optional[float]) -> str:
        return f"{'-':>10}" if value is None else f"{value:>10.4f}"

    print(f"{'horizon':>8}  {'ade':>10}  {'fde':>10}  {'count':>6}")
    for entry in report["horizons"]:
        h, count = entry["h"], entry["count"]
        print(f"{h:>8.2f}  {cell(entry['ade'])}  {cell(entry['fde'])}  {count:>6d}")
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
    p.add_argument("--resolution", type=float, default=annotation.DEFAULT_RESOLUTION_S,
                   help="label resolution, seconds")
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
    p.add_argument("--stride", type=float, required=True, help="anchor stride, seconds")
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
