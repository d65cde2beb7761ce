"""Fold the run records in bench/_results/ into one BENCH_<label>.json.

    python3 bench/summarize.py --label baseline

For every workload and trace mode it keeps each metric's median, quartiles
and spread (quartile distance over median) across the runs, the seeds run,
and the sha256 of every stage output per seed, so that a later change can
show both its timings and that its outputs are unchanged.
"""

import argparse
import glob
import json
import os
import statistics
import sys

BENCH = os.path.dirname(os.path.abspath(__file__))


def summarize(records):
    by_mode = {}
    for rec in records:
        by_mode.setdefault(f"{rec['workload']}/trace{rec['trace']}", []).append(rec)
    out = {}
    for mode, recs in sorted(by_mode.items()):
        recs.sort(key=lambda r: r["seed"])
        metrics = {}
        for name in recs[0]["metrics"]:
            values = [r["metrics"][name]["value"] for r in recs if name in r["metrics"]]
            median = statistics.median(values)
            q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (median,) * 3
            metrics[name] = {
                "unit": recs[0]["metrics"][name]["unit"],
                "n": len(values),
                "median": median,
                "q1": q1,
                "q3": q3,
                "spread": (q3 - q1) / median if median and len(values) > 1 else None,
            }
        out[mode] = {
            "seeds": [r["seed"] for r in recs],
            "seconds": recs[0]["seconds"],
            "problems": [p for r in recs for p in r["problems"]],
            "output_sha256": {str(r["seed"]): r["output_sha256"] for r in recs},
            "metrics": metrics,
        }
        if "sizing" in recs[0]:
            out[mode]["sizing"] = [r["sizing"] for r in recs]
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--label", required=True)
    args = parser.parse_args(argv)
    paths = sorted(glob.glob(os.path.join(BENCH, "_results", "*.json")))
    if not paths:
        print("summarize: no run records in bench/_results/", file=sys.stderr)
        return 1
    records = []
    for path in paths:
        with open(path, encoding="utf-8") as fh:
            records.append(json.load(fh))
    first = records[0]
    doc = {
        "label": args.label,
        "machine": first["machine"],
        "commit": first["commit"],
        "src_sha256": sorted({r["src_sha256"] for r in records}),
        "runs": summarize(records),
    }
    out = os.path.join(BENCH, f"BENCH_{args.label}.json")
    with open(out, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
