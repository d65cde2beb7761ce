"""Set-up probe: a fresh interpreter imports the package and loads one
workload's inputs with the public loaders, then exits.

    python bench/setup_probe.py <files.json>

`run.py` times this whole child, interpreter start-up included, because a
user pays all of it before any stage does work.
"""

import json
import sys

import trajpredict
from trajpredict.autotune import TunerConfig
from trajpredict.costing import CostWeights
from trajpredict.generation import GenerationConfig, load_priors


def main(files_path: str) -> int:
    with open(files_path, encoding="utf-8") as fh:
        files = json.load(fh)
    tracks, map_graph, _ = trajpredict.load_scene(files["log"], files["map"], files.get("ego"))
    GenerationConfig.from_file(files["genconfig"])
    CostWeights.from_file(files["weights"])
    TunerConfig.from_file(files["tunerconfig"])
    if files.get("priors"):
        load_priors(files["priors"])
    return 0 if tracks and map_graph.lanes else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
