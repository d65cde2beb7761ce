"""Output checks and the quality metrics the benchmark computes itself.

Everything here reads the files the CLI wrote and uses only the package's
public loaders, so a later change to the library's own objective or report
cannot move these numbers.
"""

from __future__ import annotations

import hashlib
import json
import math
from typing import Dict, Iterable, List, Optional, Tuple

from trajpredict.annotation import anchor_times
from trajpredict.autotune import extract_examples
from trajpredict.generation import LANE_SEQUENCE_SEPARATOR
from trajpredict.scene import MapGraph, ObstacleTrack

POSTERIOR_SUM_TOL = 1e-9

Key = Tuple[str, float]


def sha256_file(path: str) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()


def anchor_grid(tracks: Iterable[ObstacleTrack], stride: float) -> List[Key]:
    """Every (obstacle, anchor) the prediction stage should attempt."""
    return [(tr.obstacle_id, t) for tr in tracks for t in anchor_times(tr, stride)]


def record_errors(record: dict) -> List[str]:
    """Problems with one prediction record: finite posteriors that sum to 1,
    and a selected intention that is the posterior argmax (ties to the
    smaller id). An empty list means the record is valid."""
    intentions = record.get("intentions") or []
    if not intentions:
        return ["no intentions"]
    posteriors = [entry.get("posterior") for entry in intentions]
    if not all(isinstance(p, (int, float)) and math.isfinite(p) for p in posteriors):
        return [f"non-finite posterior in {posteriors}"]
    errors = []
    total = math.fsum(posteriors)
    if abs(total - 1.0) > POSTERIOR_SUM_TOL:
        errors.append(f"posteriors sum to {total!r}")
    best = min(intentions, key=lambda e: (-e["posterior"], e["intention_id"]))
    if record.get("selected_intention") != best["intention_id"]:
        errors.append(
            f"selected {record.get('selected_intention')!r} is not the argmax "
            f"{best['intention_id']!r}"
        )
    return errors


def check_predictions(records: List[dict], grid: List[Key]) -> Tuple[int, List[str]]:
    """Count grid anchors without a valid record, and describe each problem.

    An anchor fails when it has no record (the CLI skipped it), or when its
    record fails `record_errors`. Only the latter, and a record whose key is
    off the anchor grid or repeated, are problems: skipping is allowed.
    """
    expected = set(grid)
    seen = set()
    valid = set()
    problems = []
    for record in records:
        key = (record.get("obstacle_id"), record.get("anchor_time"))
        if key not in expected:
            problems.append(f"{key}: not on the anchor grid")
            continue
        if key in seen:
            problems.append(f"{key}: duplicate record")
            valid.discard(key)
            continue
        seen.add(key)
        errors = record_errors(record)
        if errors:
            problems.append(f"{key}: {'; '.join(errors)}")
        else:
            valid.add(key)
    return len(expected - valid), problems


def exit_of_intention(intention_id: str, map_graph: MapGraph) -> Optional[str]:
    """The exit an intention names: itself for an exit id, or for a lane
    sequence the exit whose associated lane the sequence contains."""
    if intention_id in map_graph.exits:
        return intention_id
    lanes = set(intention_id.split(LANE_SEQUENCE_SEPARATOR))
    for ex in map_graph.sorted_exits():
        if ex.associated_lane_id in lanes:
            return ex.exit_id
    return None


def intent_top1(
    predictions: List[dict], dataset: List[dict], map_graph: MapGraph
) -> Tuple[int, int]:
    """(hits, scored) over joined anchors whose label has an exit: a hit
    when the selected intention names the labelled exit."""
    labels: Dict[Key, str] = {
        (r["obstacle_id"], float(r["anchor_time"])): r["exit_label"]
        for r in dataset
        if r.get("exit_label") is not None
    }
    hits = scored = 0
    for record in predictions:
        exit_label = labels.get((record["obstacle_id"], float(record["anchor_time"])))
        if exit_label is None:
            continue
        scored += 1
        hits += exit_of_intention(record["selected_intention"], map_graph) == exit_label
    return hits, scored


def hinge_per_pair(
    predictions: List[dict], dataset: List[dict], ego, theta, delta: float
) -> Tuple[float, int]:
    """Mean over every (anchor, candidate) pair of max(0, theta.(gt - cand) + delta),
    at the weights `tune` returned; also returns the pair count."""
    examples, _ = extract_examples(predictions, dataset, ego)
    terms = []
    for ex in examples:
        for cand in ex.candidate_subcosts:
            margin = math.fsum(
                th * (g - c) for th, g, c in zip(theta, ex.gt_subcosts, cand)
            ) + delta
            terms.append(max(0.0, margin))
    return math.fsum(terms) / len(terms), len(terms)


def load_json(path: str) -> dict:
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def tuned_theta(tuned: dict) -> Tuple[float, float, float]:
    return (tuned["theta_acc"], tuned["theta_centripetal"], tuned["theta_collision"])


def report_at(report: dict, horizon: float) -> dict:
    for entry in report["horizons"]:
        if entry["h"] == horizon:
            return entry
    raise KeyError(f"report has no horizon {horizon}")
