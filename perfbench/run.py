#!/usr/bin/env python3
"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload drag|edit|serve --seed N \\
        --seconds S --trace 0|1

Run it from the root of a checkout: it measures the program under
``src/`` there.  The last line of standard output is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics`` -- the
end-to-end metrics of ``BENCHMARK.json`` with ``--trace 0``, its
per-layer metrics with ``--trace 1``.  The line before it carries the
environment stamp.  Every result is also appended, with its raw set-up
samples, to ``.perfbench/runs.jsonl``.

Exit status: 0 when every timed frame matched the scalar oracle, 1 when
one did not, 2 when there is no program to measure.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from common import ROOT, SRC, WORK, env_stamp  # noqa: E402

#: Every runnable workload.  ``BENCHMARK.json`` declares drag and edit;
#: serve runs by hand (README.md, *Steadiness*).
WORKLOADS = ("drag", "edit", "serve")


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def declared():
    """Units of the metrics ``BENCHMARK.json`` declares, by name:
    (end-to-end, per-layer)."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        spec = json.load(handle)
    return tuple({m["name"]: m["unit"] for m in spec[kind]}
                 for kind in ("end_to_end", "per_layer"))


def run(workload, seed, seconds, trace, size=None):
    """One run; returns ``(result, record)``."""
    import scripts
    import workloads

    script = scripts.build(workload, seed, size)
    frames, setup_times, rss, expect, computed, layers = (
        workloads.RUNNERS[workload](script, seconds, trace)
    )
    failed = workloads.check(frames, expect)
    if trace:
        metrics = layers
    else:
        metrics = workloads.end_to_end(script, frames, setup_times, rss,
                                       failed)
    end_to_end, per_layer = declared()
    units = per_layer if trace else end_to_end
    measured = {name: unit for name, (_, unit) in metrics.items()}
    if measured != units:
        raise RuntimeError("measured metrics differ from BENCHMARK.json: %s"
                           % sorted(set(measured.items()) ^ set(units.items())))
    values = {name: {"value": value, "unit": unit}
              for name, (value, unit) in metrics.items()}
    result = {
        "correct": failed == 0,
        "attempted": len(frames),
        "failed": failed,
        "metrics": values,
    }
    record = {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "size": script["size"],
        "period": len(script["period"]),
        "setup_samples_s": setup_times,
        "oracle_jobs_computed": computed,
    }
    return result, record


def main(argv=None):
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        sys.stderr.write(
            "perfbench: no program at %s; run from the root of a "
            "repository checkout\n" % os.path.join(SRC, "repro")
        )
        return 2
    sys.path.insert(0, SRC)
    result, record = run(args.workload, args.seed, args.seconds,
                         bool(args.trace))
    record["env"] = env_stamp()
    record["result"] = result
    os.makedirs(WORK, exist_ok=True)
    with open(os.path.join(WORK, "runs.jsonl"), "a") as handle:
        handle.write(json.dumps(record, sort_keys=True) + "\n")
    stamp = {key: record[key] for key in
             ("env", "workload", "seed", "period", "setup_samples_s",
              "oracle_jobs_computed")}
    print(json.dumps(stamp, sort_keys=True))
    print(json.dumps(result, sort_keys=True))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
