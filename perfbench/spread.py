#!/usr/bin/env python3
"""Run the benchmark on several seeds and report each metric's spread.

    python3 perfbench/spread.py --workload drag --seeds 1-10 \\
        [--seconds S] [--out runs.jsonl]
    python3 perfbench/spread.py --summarize runs.jsonl [more.jsonl ...]

Each run is ``perfbench/run.py`` in a fresh process, for ``--seconds``
or else the ``run_seconds`` of ``BENCHMARK.json``.  The spread of a
metric is ``(Q3 - Q1) / median`` of its values over the runs, with the
quartiles of ``statistics.quantiles(values, n=4)``; the bounds of
``BENCHMARK.json`` are meant to be read against it.  ``--out`` appends
every run's result line and environment stamp (the raw samples) to a
JSON-lines file that ``--summarize`` reads back.
"""

from __future__ import annotations

import argparse
import collections
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def seeds(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def spread(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    mid = statistics.median(values)
    return (q3 - q1) / mid if mid else float("inf")


def run_one(workload, seed, seconds):
    out = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload",
         workload, "--seed", str(seed), "--seconds", str(seconds),
         "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True,
    )
    lines = out.stdout.strip().splitlines()
    if len(lines) < 2:
        raise SystemExit("run failed (%d): %s" % (out.returncode,
                                                   out.stderr[-2000:]))
    record = json.loads(lines[-2])
    record["result"] = json.loads(lines[-1])
    record["trace"] = 0
    return record


def summarize(records):
    """Print per workload: untraced runs, failures, then median and
    spread of every end-to-end metric against its bound."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        bounds = {m["name"]: m["bound"]
                  for m in json.load(handle)["end_to_end"]}
    groups = collections.defaultdict(list)
    for record in records:
        if not record["trace"]:
            groups[record["workload"]].append(record["result"])
    for workload, results in sorted(groups.items()):
        bad = sum(1 for r in results if not r["correct"])
        print("%s: %d runs, %d incorrect" % (workload, len(results), bad))
        if len(results) < 2:
            continue
        for name in sorted(results[0]["metrics"]):
            values = [r["metrics"][name]["value"] for r in results]
            s = spread(values)
            bound = bounds.get(name)
            flag = ("" if bound is None or name == "setup_s"
                    else ("  over bound" if s > bound else
                          ("  over bound/3" if s > bound / 3 else "")))
            print("  %-15s median %12.6g  spread %.3f  bound %s%s"
                  % (name, statistics.median(values), s, bound, flag))


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seeds", type=seeds, default=seeds("1-10"))
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--out")
    parser.add_argument("--summarize", nargs="+", metavar="JSONL")
    args = parser.parse_args(argv)
    if args.summarize:
        records = []
        for path in args.summarize:
            with open(path) as handle:
                records += [json.loads(line) for line in handle if line.strip()]
        summarize(records)
        return 0
    if not args.workload:
        parser.error("--workload is required unless --summarize is given")
    seconds = args.seconds
    if seconds is None:
        with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
            seconds = json.load(handle)["run_seconds"]
    records = []
    for seed in args.seeds:
        record = run_one(args.workload, seed, seconds)
        records.append(record)
        metrics = record["result"]["metrics"]
        print("seed %d: %s" % (seed, "  ".join(
            "%s=%.4g" % (k, v["value"]) for k, v in sorted(metrics.items())
        )), flush=True)
        if args.out:
            with open(args.out, "a") as handle:
                handle.write(json.dumps(record, sort_keys=True) + "\n")
    summarize(records)
    return 0


if __name__ == "__main__":
    sys.exit(main())
