"""Self-tests of the benchmark (not part of the repository's tier-1 suite).

    python3 -m pytest perfbench -q

They run every workload at 8x8 for a fraction of a second, so they check
the harness -- metric names, determinism, the oracle -- not performance.
"""

from __future__ import annotations

import json
import math
import os
import re
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from common import ROOT, SRC, WORK  # noqa: E402

sys.path.insert(0, SRC)

import oracle  # noqa: E402
import run  # noqa: E402
import scripts  # noqa: E402
import workloads  # noqa: E402

TINY = 8


def _spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        return json.load(handle)


@pytest.mark.parametrize("workload", run.WORKLOADS)
@pytest.mark.parametrize("trace", [False, True])
def test_tiny_run_emits_every_metric_with_its_unit(workload, trace):
    result, _ = run.run(workload, 7, 0.2, trace, size=TINY)
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 1
    kind = "per_layer" if trace else "end_to_end"
    declared = {m["name"]: m["unit"] for m in _spec()[kind]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == declared
    for name, metric in result["metrics"].items():
        assert isinstance(metric["value"], (int, float)), name
        assert math.isfinite(metric["value"]), name
    if not trace:
        for name, metric in result["metrics"].items():
            assert metric["value"] > 0, name


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_seed_fixes_the_script_and_a_new_seed_changes_it(workload):
    one = scripts.canonical(scripts.build(workload, 11))
    assert one == scripts.canonical(scripts.build(workload, 11))
    assert one != scripts.canonical(scripts.build(workload, 12))


def _tiny_frames(workload, seed):
    script = scripts.build(workload, seed, TINY)
    state = workloads.InProcess(script)
    try:
        return script, [state.render(i) for i in range(len(script["period"]))]
    finally:
        state.close()


@pytest.mark.parametrize("workload", ["drag", "edit"])
def test_same_seed_same_digests(workload):
    _, first = _tiny_frames(workload, 5)
    _, again = _tiny_frames(workload, 5)
    digest = workloads.frame_digest
    assert [(digest(c), cost) for c, cost in first] == \
        [(digest(c), cost) for c, cost in again]
    jobs = oracle.jobs_for(scripts.build(workload, 5, TINY))[0]
    worker = oracle._Worker()
    colour = next(job for job in jobs if job["kind"] == "colour")
    assert worker.run(colour) == worker.run(colour)


def _checked_frames():
    script = scripts.build("drag", 3, TINY)
    state = workloads.InProcess(script)
    try:
        rendered = [state.render(i) for i in range(len(script["period"]))]
    finally:
        state.close()
    expect, _ = oracle.expected(script)
    frames = [workloads.Frame(i, 0.001, workloads.frame_digest(c), cost)
              for i, (c, cost) in enumerate(rendered)]
    return rendered, frames, expect


def test_oracle_accepts_the_frames_and_catches_one_ulp():
    rendered, frames, expect = _checked_frames()
    assert workloads.check(frames, expect) == 0
    colors, cost = rendered[2]
    bumped = [list(pixel) for pixel in colors]
    bumped[5][0] = math.nextafter(bumped[5][0], math.inf)
    frames[2] = workloads.Frame(2, 0.001, workloads.frame_digest(bumped),
                                cost)
    assert workloads.check(frames, expect) == 1


def test_oracle_catches_a_cost_off_by_one():
    _, frames, expect = _checked_frames()
    frames[0].cost += 1
    assert workloads.check(frames, expect) == 1


def test_oracle_never_runs_the_batch_path(monkeypatch):
    from repro.runtime import batch

    def refuse(*args, **kwargs):
        raise AssertionError("the oracle ran a batch kernel")

    monkeypatch.setattr(batch.BatchKernel, "run_lanes", refuse)
    worker = oracle._Worker()
    for job in oracle.jobs_for(scripts.build("edit", 2, TINY))[0][:4]:
        assert "error" not in worker.run(job), job["kind"]


def test_benchmark_json_follows_the_contract():
    spec = _spec()
    assert set(spec) == {"command", "paths", "run_seconds", "workloads",
                         "end_to_end", "per_layer"}
    assert spec["paths"] == ["perfbench"]
    declared = [w["name"] for w in spec["workloads"]]
    assert declared == [w for w in run.WORKLOADS if w in declared]
    assert len(declared) >= 2
    names = [m["name"] for kind in ("workloads", "end_to_end", "per_layer")
             for m in spec[kind]]
    for name in names:
        assert re.fullmatch(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}", name), name
    assert len(set(m["name"] for m in spec["end_to_end"] + spec["per_layer"])
               ) == len(spec["end_to_end"]) + len(spec["per_layer"])
    for metric in spec["end_to_end"]:
        assert set(metric) == {"name", "unit", "better", "bound"}
        assert 0 < metric["bound"] <= 0.25
    setup = next(m for m in spec["end_to_end"] if m["name"] == "setup_s")
    assert setup["unit"] == "s" and setup["better"] == "lower"
    assert setup["bound"] == max(m["bound"] for m in spec["end_to_end"])
    for metric in spec["per_layer"]:
        assert set(metric) == {"name", "unit", "better"}
    for workload in spec["workloads"]:
        assert len(workload["why"]) <= 200


def test_fails_without_the_program():
    bare = os.path.join(WORK, "bare")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                    ignore=shutil.ignore_patterns("__pycache__"))
    try:
        out = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "drag",
             "--seed", "1", "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=120,
        )
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    assert out.returncode != 0
    assert out.stdout == ""
