"""The scalar-interpreter oracle for benchmark frames.

Two kinds of job, both run by the metering interpreter on
``backend="scalar"`` sessions and never by the batch path under test:

* ``colour`` -- render one frame with ``Specialization.run_original``
  and return the digest of its colours (``common.frame_digest``);
* ``route`` -- load one partition at the shader defaults and replay
  every excursion a script can make from there (``scripts.route``),
  returning each step's ``CostMeter`` total.

A timed frame is correct when its colour digest equals the ``colour``
digest of its controls and its cost equals the cost of its excursion
(``step["key"]``) in its partition's ``route``.  An excursion's cost
depends only on the controls it starts from and goes to, which are the
same in the script and in the route.

Jobs run in two worker processes started from this file (``--worker``:
one JSON job per stdin line, one JSON result per stdout line) after the
timed phase is over.  Results are cached under ``.perfbench/oracle/``,
keyed by the job and the SHA-256 of ``src/repro``; routes do not depend
on the seed, so later runs of the same program mostly read the cache.
"""

from __future__ import annotations

import hashlib
import json
import os
import queue
import subprocess
import sys
import threading

if __package__ in (None, ""):
    sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from common import SRC, WORK, frame_digest, source_fingerprint  # noqa: E402
from scripts import COLOUR, LIGHT, canonical, controls, route  # noqa: E402

#: Oracle worker processes.  The oracle runs after the timed phase, so
#: it never competes with the frames it checks.
WORKERS = 2


def representatives(sessions, script):
    """Per ``(session, param)`` of the period, the first member (by
    name) of ``param``'s symmetric group (``scripts.LIGHT``/``COLOUR``)
    whose unspecialized original prints the same as ``param``'s:
    partitions sharing an original share colour jobs, within a run and
    in the cache.  ``sessions`` are the run's ``RenderSession`` objects;
    printing is compared within one process only, since it names
    temporaries in hash order."""
    reps = {}
    for s, session in enumerate(sessions):
        name = session.spec_info.name
        for param in {st["param"] for st in script["period"]
                      if st["s"] == s}:
            group = [g for g in (LIGHT[name], COLOUR[name]) if param in g]
            text = session.specialize(param).original_source
            reps[(s, param)] = next(
                (other for other in sorted(group[0] if group else ())
                 if session.specialize(other).original_source == text),
                param,
            )
    return reps


def jobs_for(script, reps=None):
    """The oracle jobs of one script and, per period step, the indices
    ``(colour job, route job, position in the route)`` of its expected
    digest and cost.  ``reps`` is :func:`representatives`."""
    size = script["size"]
    jobs, index, positions = [], {}, {}

    def add(job):
        key = job_key(job)
        if key not in index:
            index[key] = len(jobs)
            jobs.append(job)
        return index[key]

    plan = []
    for step in script["period"]:
        s, param = step["s"], step["param"]
        shader = script["sessions"][s]["shader"]
        colour = add({
            "kind": "colour", "shader": shader, "size": size,
            "param": (reps or {}).get((s, param), param),
            "controls": controls(script, step),
        })
        steps = route(script["workload"], shader, param)
        job = add({
            "kind": "route", "shader": shader, "size": size,
            "incremental": script["incremental"],
            "steps": [{"op": st["op"], "param": st["param"],
                       "controls": controls(script, dict(st, s=s))}
                      for st in steps],
        })
        if job not in positions:
            positions[job] = {canonical(st["key"]): i
                              for i, st in enumerate(steps)}
        plan.append((colour, job, positions[job][canonical(step["key"])]))
    return jobs, plan


def job_key(job):
    return hashlib.sha256(canonical(job).encode()).hexdigest()


def expected(script, reps=None):
    """Per period step: ``(colour digest, cost)`` from the oracle, or
    ``None`` where its job failed.  Also returns the number of jobs that
    had to be computed (the rest came from the cache)."""
    jobs, plan = jobs_for(script, reps)
    results, computed = solve(jobs)
    out = []
    for colour, job, position in plan:
        c, r = results[colour], results[job]
        if "error" in c or "error" in r:
            out.append(None)
        else:
            out.append((c["digest"], r["costs"][position]))
    return out, computed


# -- running jobs -------------------------------------------------------------


def solve(jobs):
    """Results for ``jobs`` (same order): cached ones read back, the rest
    computed by ``WORKERS`` worker processes and then cached."""
    cache = os.path.join(WORK, "oracle", source_fingerprint()[:20])
    os.makedirs(cache, exist_ok=True)
    results = [None] * len(jobs)
    pending = []
    for i, job in enumerate(jobs):
        path = os.path.join(cache, job_key(job))
        try:
            with open(path) as handle:
                results[i] = json.load(handle)
        except (OSError, ValueError):
            pending.append((i, path))
    # Longest jobs first: a route loads a whole frame and then replays
    # up to twenty excursions.
    pending.sort(key=lambda item: (jobs[item[0]]["kind"] != "route",
                                   item[0]))
    work = queue.Queue()
    for item in pending:
        work.put(item)
    threads = [
        threading.Thread(target=_drive, args=(jobs, work, results))
        for _ in range(min(WORKERS, len(pending)))
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    for i, path in pending:
        if results[i] is None:
            results[i] = {"error": "oracle worker died"}
        elif "error" not in results[i]:
            tmp = "%s.%d.tmp" % (path, os.getpid())
            with open(tmp, "w") as handle:
                json.dump(results[i], handle)
            os.replace(tmp, path)
    return results, len(pending)


def _drive(jobs, work, results):
    """Feed jobs from ``work`` to one worker process until none remain."""
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
    proc = subprocess.Popen(
        [sys.executable, os.path.abspath(__file__), "--worker"],
        stdin=subprocess.PIPE, stdout=subprocess.PIPE, env=env, text=True,
    )
    try:
        while True:
            try:
                i, _ = work.get_nowait()
            except queue.Empty:
                break
            proc.stdin.write(canonical(jobs[i]) + "\n")
            proc.stdin.flush()
            line = proc.stdout.readline()
            if not line:
                break
            results[i] = json.loads(line)
    finally:
        proc.stdin.close()
        try:
            proc.wait(timeout=60)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
        proc.stdout.close()


# -- the worker side -----------------------------------------------------------


class _Worker(object):
    def __init__(self):
        self._sessions = {}

    def _session(self, shader, size, incremental=False):
        from repro.shaders.render import RenderSession

        return RenderSession(shader, width=size, height=size,
                             backend="scalar", workers=1,
                             incremental=incremental)

    def colour(self, job):
        key = (job["shader"], job["size"])
        if key not in self._sessions:
            self._sessions[key] = self._session(*key)
        session = self._sessions[key]
        spec = session.specialize(job["param"])
        ctl = job["controls"]
        colors = [
            spec.run_original(session.args_for(pixel, ctl))[0]
            for pixel in session.scene
        ]
        return {"digest": frame_digest(colors)}

    def route(self, job):
        session = self._session(job["shader"], job["size"],
                                job["incremental"])
        edit, costs = None, []
        for step in job["steps"]:
            if step["op"] == "adjust":
                costs.append(edit.adjust(step["controls"]).total_cost)
                continue
            if edit is None or edit.param != step["param"]:
                edit = session.begin_edit(step["param"])
            costs.append(edit.load(step["controls"]).total_cost)
        return {"costs": costs}

    def run(self, job):
        try:
            return getattr(self, job["kind"])(job)
        except Exception as exc:  # reported per job; the run counts it
            return {"error": "%s: %s" % (type(exc).__name__, exc)}


def worker_main(stdin=sys.stdin, stdout=sys.stdout):
    worker = _Worker()
    for line in stdin:
        stdout.write(json.dumps(worker.run(json.loads(line))) + "\n")
        stdout.flush()


if __name__ == "__main__":
    if sys.argv[1:] != ["--worker"]:
        sys.exit("usage: oracle.py --worker  (started by perfbench/run.py)")
    worker_main()
