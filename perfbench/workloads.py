"""The three closed-loop workloads: set-up, timed frames, traced layers.

Every workload runs one client in one process (``workers=1``) and times
whole frames with ``time.perf_counter``.  A run is:

1. set-up, ``SETUP_REPS`` times from scratch (sessions, loads, one
   warm-up cycle of the script); ``setup_s`` is the median;
2. the timed phase: the script's period, repeated until ``seconds``
   have passed; every frame's colour digest and cost are kept;
3. the oracle (``oracle.py``): every timed frame is compared with the
   scalar interpreter.

With ``trace`` the timed phase is split: the first half runs untraced
(its frame median is the base of ``trace.overhead_pct``, and the GC
monitor watches it), the second half follows each frame with the
benchmark's own timed calls into the public function of each layer.
Nothing inside ``src/`` is instrumented.
"""

from __future__ import annotations

import collections
import gc
import os
import resource
import shutil
import signal
import subprocess
import sys
import tempfile
import time
import traceback
from statistics import median

from common import (
    ROOT, SRC, WORK, GcMonitor, frame_digest, percentile, pinned,
)
import oracle
import scripts
from scripts import SHADERS, controls

SETUP_REPS = 3
CLOCK = time.perf_counter


class Frame(object):
    """One timed frame: its period step, wall time, colour digest and
    cost (digest and cost are None for a failed request)."""

    __slots__ = ("step", "seconds", "digest", "cost")

    def __init__(self, step, seconds, digest, cost):
        self.step = step
        self.seconds = seconds
        self.digest = digest
        self.cost = cost


def timed_loop(script, seconds, render, after=None):
    """Closed loop over the script's period for ``seconds``, finishing
    the period under way: every step runs equally often, and the next
    loop finds each session in its period-start state.

    ``render(i)`` serves period step ``i`` and returns ``(colors,
    cost)``, or raises to count a failed frame.  ``after(i, frame,
    result)`` runs outside the timed interval (layer tracing)."""
    period = len(script["period"])
    frames = []
    deadline = CLOCK() + seconds
    k = failures = 0
    while True:
        i = k % period
        start = CLOCK()
        try:
            result = render(i)
        except Exception:  # a failed request: counted, the loop goes on
            stop = CLOCK()
            if not failures:
                traceback.print_exc()  # the first failure, to stderr
            failures += 1
            frames.append(Frame(i, stop - start, None, None))
        else:
            stop = CLOCK()
            frames.append(
                Frame(i, stop - start, frame_digest(result[0]), result[1])
            )
            if after is not None:
                after(i, frames[-1], result)
        k += 1
        if stop >= deadline and i == period - 1:
            return frames


def check(frames, expect):
    """Number of frames that failed or differ from the oracle."""
    bad = 0
    for frame in frames:
        want = expect[frame.step]
        if want is None or (frame.digest, frame.cost) != want:
            bad += 1
    return bad


def end_to_end(script, frames, setup_times, rss_mb, failed):
    pixels = script["size"] ** 2
    ms = [f.seconds * 1000.0 for f in frames]
    # Frames cover whole periods, so this repeats exactly for a seed.
    costs = [f.cost or 0 for f in frames]
    # Throughput per period (every period does the same work), median
    # over the periods: a burst of host noise moves one period, not the
    # metric.
    period = len(script["period"])
    rates = [
        period * pixels / sum(f.seconds for f in frames[k:k + period])
        for k in range(0, len(frames), period)
    ]
    return {
        "frame_ms_p50": (percentile(ms, 50), "ms"),
        "frame_ms_p99": (percentile(ms, 99), "ms"),
        "pixels_per_s": (median(rates), "px/s"),
        "setup_s": (median(setup_times), "s"),
        "peak_rss_mb": (rss_mb, "MB"),
        "success_rate": ((len(frames) - failed) / float(len(frames)),
                         "ratio"),
        "cost_per_pixel": (sum(costs) / float(len(costs) * pixels),
                           "ops/px"),
    }


def _self_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _setup(build):
    """``SETUP_REPS`` fresh set-ups; returns the last state and the
    wall time of each."""
    times, state = [], None
    for _ in range(SETUP_REPS):
        if state is not None:
            state.close()
        state = None
        gc.collect()
        start = CLOCK()
        state = build()
        times.append(CLOCK() - start)
    gc.collect()
    return state, times


# -- in-process sessions (drag, edit) ----------------------------------------


class InProcess(object):
    """The script's sessions as in-process ``RenderSession`` /
    ``EditSession`` objects, loaded and warmed by one period."""

    def __init__(self, script):
        from repro.shaders.render import RenderSession

        size = script["size"]
        self.script = script
        self.sessions = [
            RenderSession(entry["shader"], width=size, height=size,
                          workers=1, incremental=script["incremental"])
            for entry in script["sessions"]
        ]
        self.edits = [None] * len(self.sessions)
        self.controls = [controls(script, step) for step in script["period"]]
        for entry in script["sessions"]:
            for step in entry["setup"]:
                self.apply(step, controls(script, step))
        for i, step in enumerate(script["period"]):
            self.apply(step, self.controls[i])

    def apply(self, step, ctl):
        s = step["s"]
        edit = self.edits[s]
        if step["op"] == "adjust":
            return edit.adjust(ctl)
        if edit is None or edit.param != step["param"]:
            if edit is not None:
                edit.close()
            edit = self.edits[s] = self.sessions[s].begin_edit(step["param"])
        return edit.load(ctl)

    def render(self, i):
        image = self.apply(self.script["period"][i], self.controls[i])
        return image.colors, image.total_cost

    def close(self):
        for edit in self.edits:
            if edit is not None:
                edit.close()


def run_in_process(script, seconds, trace):
    with pinned():
        state, setup_times = _setup(lambda: InProcess(script))
        layers = None
        if not trace:
            frames = timed_loop(script, seconds, state.render)
        else:
            frames, layers = _traced(script, seconds / 2.0, state)
            served, service_layers = _service_probe(
                script, seconds / 10.0, frames)
            layers.update(service_layers)
            frames += served
    rss = _self_rss_mb()
    expect, computed = oracle.expected(
        script, oracle.representatives(state.sessions, script))
    state.close()
    return frames, setup_times, rss, expect, computed, layers


# -- layer tracing -------------------------------------------------------------


def _traced(script, seconds, state):
    """``seconds`` of untraced frames under the GC monitor, then
    ``seconds`` of frames each followed by :class:`LayerTracer` calls;
    returns both runs' frames and the per-layer metrics."""
    with GcMonitor() as gcm:
        untraced = timed_loop(script, seconds, state.render)
    tracer = LayerTracer(state)
    traced = timed_loop(script, seconds, state.render, after=tracer.after)
    if not tracer.ms["delta"]:
        tracer.probe_delta()
    layers = tracer.metrics(untraced, traced, gcm)
    layers.update(install_metrics(script))
    return untraced + traced, layers


class LayerTracer(object):
    """Per-layer times from the benchmark's own calls into each layer's
    public function, made after every traced frame on the same state.

    An ``adjust`` is followed by ``run_reader_batch`` on the session's
    cache.  A ``load`` is followed by its route, replayed on a shadow
    cache: ``dirty_slots`` (unless it is a partition switch, the
    decision ``EditSession`` takes with ``MAX_DIRTY_FRACTION``), then
    ``run_loader_batch`` for a full load, ``delta_kernel(dirty).run``
    and ``run_reader_batch`` for a delta, or ``run_reader_batch`` alone
    for a noop.  Then ``value_rows``.  ``frame.self_ms`` is the frame
    minus those calls."""

    def __init__(self, state):
        from repro.runtime import batch
        from repro.shaders.render import MAX_DIRTY_FRACTION

        self.batch = batch
        self.max_dirty = MAX_DIRTY_FRACTION
        self.state = state
        self.ms = collections.defaultdict(list)
        self.costs = collections.defaultdict(int)
        self.lanes = collections.defaultdict(int)
        self.routes, self.fractions = {}, {}
        self._used = 0.0
        # A session's shadow starts as the load its last load step left
        # (its set-up load when the period has none).
        script = state.script
        last = {}
        for step in [st for entry in script["sessions"]
                     for st in entry["setup"]] + script["period"]:
            if step["op"] == "load":
                last[step["s"]] = step
        self.shadow, self.previous, self.param = [], [], []
        for s, session in enumerate(state.sessions):
            step = last[s]
            ctl = controls(script, step)
            spec = session.specialize(step["param"])
            self.shadow.append(self.layer(
                "loader", session, spec.run_loader_batch,
                session.batch_args(ctl), len(session.scene))[1])
            self.previous.append(ctl)
            self.param.append(step["param"])

    def timed(self, name, fn, *args, **kwargs):
        start = CLOCK()
        result = fn(*args, **kwargs)
        elapsed = (CLOCK() - start) * 1000.0
        self.ms[name].append(elapsed)
        self._used += elapsed
        return result

    def layer(self, which, session, fn, *args):
        """Time one whole-frame loader/reader call, overall and per
        shader, and count its cost per lane."""
        result = self.timed(which, fn, *args)
        self.ms["%s.%s" % (which, session.spec_info.name)].append(
            self.ms[which][-1])
        self.costs[which] += result[-1]
        self.lanes[which] += len(session.scene)
        return result

    def after(self, i, frame, result):
        state = self.state
        step = state.script["period"][i]
        s, ctl = step["s"], state.controls[i]
        session, edit = state.sessions[s], state.edits[s]
        spec = edit.specialization
        n = len(session.scene)
        columns = session.batch_args(ctl)
        self._used = 0.0
        if step["op"] == "adjust":
            values, _ = self.layer("reader", session, spec.run_reader_batch,
                                   edit.caches, columns, n)
        else:
            route, dirty = "full", None
            if step["param"] == self.param[s]:
                changed = {k for k in ctl if ctl[k] != self.previous[s].get(k)}
                route, dirty = self._route(spec, changed - set(spec.varying))
            self.routes[i] = route
            if route in ("full", "full_fallback"):
                values, self.shadow[s], _ = self.layer(
                    "loader", session, spec.run_loader_batch, columns, n)
            else:
                cache = self.shadow[s]
                if route == "delta":
                    self.fractions[i] = len(dirty) / float(len(spec.layout))
                    kernel = spec.delta_kernel(dirty)
                    cache.reset_columns(dirty)
                    self.timed("delta", kernel.run, columns, n, cache=cache)
                values, _ = self.layer("reader", session,
                                       spec.run_reader_batch, cache,
                                       columns, n)
            self.previous[s], self.param[s] = ctl, step["param"]
        self.timed("materialize", self.batch.value_rows, values, n)
        self.ms["self"].append(frame.seconds * 1000.0 - self._used)

    def _route(self, spec, changed):
        dirty = self.timed("route", spec.dirty_slots, changed)
        slots = len(spec.layout)
        if not dirty:
            return "noop", dirty
        if len(dirty) > self.max_dirty * slots:
            return "full_fallback", dirty
        return "delta", dirty

    def probe_delta(self):
        """For a workload that never edits an invariant control: route
        and refill one light-position edit per session on its shadow."""
        for s, session in enumerate(self.state.sessions):
            spec = self.state.edits[s].specialization
            name = next(x for x in scripts.LIGHT[session.spec_info.name]
                        if x not in spec.varying)
            ctl = dict(self.previous[s])
            ctl[name] = scripts.edit_value(ctl[name])
            # Untimed first: the dependence map and the kernel are built
            # once per partition, as in a workload's warm-up period.
            spec.dirty_slots({name})
            route, dirty = self._route(spec, {name})
            if route == "delta":
                kernel = spec.delta_kernel(dirty)
                kernel.vectorized
                self.shadow[s].reset_columns(dirty)
                self.timed("delta", kernel.run, session.batch_args(ctl),
                           len(session.scene), cache=self.shadow[s])

    def metrics(self, untraced, traced, gcm):
        kframes = len(untraced) / 1000.0
        counts = collections.Counter(self.routes.values())
        delta, fallback = counts["delta"], counts["full_fallback"]
        out = {
            "gc.gen2_collections": (gcm.collections / kframes, "1/kframe"),
            "gc.pause_ms": (gcm.pause_s * 1000.0 / kframes, "ms/kframe"),
            "trace.overhead_pct": (
                100.0 * (percentile([f.seconds for f in traced], 50)
                         / percentile([f.seconds for f in untraced], 50)
                         - 1.0), "%"),
            "materialize.ms": (_med(self.ms["materialize"]), "ms"),
            "frame.self_ms": (_med(self.ms["self"]), "ms"),
            "delta.route_ms": (_med(self.ms["route"]), "ms"),
            "delta.ms": (_med(self.ms["delta"]), "ms"),
            "delta.frames": (delta, "count"),
            "noop.frames": (counts["noop"], "count"),
            "full.frames": (counts["full"] + fallback, "count"),
            "full_fallback.frames": (fallback, "count"),
            "delta.dirty_fraction": (
                sum(self.fractions.values()) / len(self.fractions)
                if self.fractions else 0.0, "ratio"),
            "delta.useful_ratio": (
                delta / float(delta + fallback) if delta + fallback else 0.0,
                "ratio"),
        }
        for which in ("loader", "reader"):
            out.update(_layer_ms(which, self.ms))
            out["%s.cost_per_pixel" % which] = (
                self.costs[which] / float(self.lanes[which])
                if self.lanes[which] else 0.0, "ops/px")
        return out


def _med(values):
    return median(values) if values else 0.0


def _layer_ms(which, ms):
    out = {"%s.ms" % which: (_med(ms[which]), "ms")}
    for index in scripts.SHADER_INDICES:
        name = SHADERS[index].name
        out["%s.%s.ms" % (which, name)] = (
            _med(ms["%s.%s" % (which, name)]), "ms")
    return out


def install_metrics(script):
    """``install.*``: the benchmark's own ``parse_program``,
    ``DataSpecializer.specialize`` and first ``batch_kernel`` compile
    for every shader and partition the script uses (ms per set-up,
    median of ``SETUP_REPS``)."""
    from repro.core.specializer import DataSpecializer
    from repro.lang.parser import parse_program
    from repro.shaders.sources import shader_program_source

    partitions = collections.OrderedDict()
    for s, entry in enumerate(script["sessions"]):
        steps = entry["setup"] + [st for st in script["period"]
                                  if st["s"] == s]
        partitions[entry["shader"]] = sorted({st["param"] for st in steps})
    totals = collections.defaultdict(list)
    for _ in range(SETUP_REPS):
        sums = collections.defaultdict(float)
        for index, params in partitions.items():
            info = SHADERS[index]
            start = CLOCK()
            program = parse_program(shader_program_source(info))
            sums["parse"] += CLOCK() - start
            specializer = DataSpecializer(program, backend="batch")
            for param in params:
                start = CLOCK()
                spec = specializer.specialize(info.name, {param})
                sums["specialize"] += CLOCK() - start
                start = CLOCK()
                spec.batch_kernel("loader").vectorized
                spec.batch_kernel("reader").vectorized
                sums["codegen"] += CLOCK() - start
        for key, value in sums.items():
            totals[key].append(value * 1000.0)
    return {
        "install.%s_ms" % key: (median(values), "ms")
        for key, values in totals.items()
    }


# -- the service (serve) ---------------------------------------------------------


class _Hosted(object):
    """The script's sessions on a render service, loaded and warmed by
    one period; ``post(step)`` serves one step and returns the payload."""

    def _open(self, script, create):
        self.script = script
        size = script["size"]
        self.ids = [create(entry["shader"], size)["session"]
                    for entry in script["sessions"]]
        for entry in script["sessions"]:
            for step in entry["setup"]:
                self.post(step)
        for step in script["period"]:
            self.post(step)

    def render(self, i):
        payload = self.post(self.script["period"][i])
        return payload["colors"], payload["cost"]

    def request(self, step):
        """One render request over HTTP; returns ``(status, payload,
        headers)``."""
        return self.client.request(
            "POST", "/sessions/%s/render" % self.ids[step["s"]],
            {"param": step["param"], "controls": step["set"]},
        )


class Daemon(_Hosted):
    """A ``repro serve`` subprocess on a fresh artifact store, driven by
    one ``ServiceClient``."""

    def __init__(self, script):
        from repro.serve.client import ServiceClient

        os.makedirs(WORK, exist_ok=True)
        self.run_dir = tempfile.mkdtemp(prefix="serve-", dir=WORK)
        env = dict(os.environ)
        env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
        self._log = open(os.path.join(self.run_dir, "daemon.log"), "w")
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--host", "127.0.0.1",
             "--port", "0", "--store", os.path.join(self.run_dir, "store"),
             "--workers", "1", "--no-recover"],
            cwd=ROOT, env=env, stdout=subprocess.PIPE, stderr=self._log,
            text=True,
        )
        try:
            line = self.proc.stdout.readline()
            if "listening on " not in line:
                raise RuntimeError("repro serve did not start: %r" % line)
            self.client = ServiceClient(
                line.split("listening on ", 1)[1].split()[0], timeout_s=60.0)
            self._open(script, lambda shader, size: self.client.create_session(
                shader, width=size, height=size))
        except BaseException:
            self.close()
            raise

    def post(self, step):
        return self.request(step)[1]

    def close(self):
        """SIGTERM (the daemon drains and exits 0), wait for it, and
        remove its store."""
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=60)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self.proc.stdout.close()
        self._log.close()
        shutil.rmtree(self.run_dir, ignore_errors=True)


class InProcessService(_Hosted):
    """An in-process ``RenderService`` configured like the daemon (one
    worker, telemetry on); with ``http``, also served over HTTP from a
    thread of this process."""

    def __init__(self, script, http=False):
        from repro.serve import RenderService, ServiceConfig
        from repro.serve.client import ServiceClient
        from repro.serve.http import start_server

        os.makedirs(WORK, exist_ok=True)
        self.run_dir = tempfile.mkdtemp(prefix="service-", dir=WORK)
        self.service = RenderService(
            ServiceConfig(store_dir=os.path.join(self.run_dir, "store"),
                          workers=1, recover=False),
            obs=True,
        )
        self.server = None
        if http:
            self.server, self._thread = start_server(self.service)
            self.client = ServiceClient(
                "http://%s:%d" % self.server.server_address[:2],
                timeout_s=60.0)
        self._open(script, lambda shader, size: self.service.create_session(
            "bench", shader, width=size, height=size))

    def post(self, step):
        return self.service.render(self.ids[step["s"]], param=step["param"],
                                   controls=step["set"])

    def close(self):
        if self.server is not None:
            self.server.shutdown()
            self.server.server_close()
            self._thread.join(timeout=10)
        self.service.drain()
        shutil.rmtree(self.run_dir, ignore_errors=True)


def run_serve(script, seconds, trace):
    with pinned():
        daemon, setup_times = _setup(lambda: Daemon(script))
        layers = None
        try:
            if not trace:
                frames = timed_loop(script, seconds, daemon.render)
            else:
                frames, layers = _serve_traced(script, seconds, daemon)
        finally:
            daemon.close()
    rss = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0
    expect, computed = oracle.expected(script)
    return frames, setup_times, rss, expect, computed, layers


def _serve_traced(script, seconds, daemon):
    """Untraced HTTP frames for half of ``seconds``; then the script
    over HTTP keeping response sizes, on an in-process
    ``RenderService``, and on bare in-process ``EditSession``s (untraced
    under the GC monitor, then traced), an eighth of ``seconds`` each."""
    untraced = timed_loop(script, seconds / 2.0, daemon.render)
    sizes = []
    over_http = timed_loop(script, seconds / 8.0, _sized(daemon, sizes))
    service = InProcessService(script)
    try:
        direct = timed_loop(script, seconds / 8.0, service.render)
    finally:
        service.close()
    bare = InProcess(script)
    try:
        bare_frames, layers = _traced(script, seconds / 8.0, bare)
    finally:
        bare.close()
    layers.update(_service_metrics(over_http, direct, bare_frames, sizes))
    # Every replay renders the script's frames; all are checked.
    return untraced + over_http + direct + bare_frames, layers


def _service_probe(script, seconds, bare_frames):
    """``service.*``/``http.*`` for an in-process workload: its frames
    served by an in-process ``RenderService``, over HTTP from a thread
    of this process and by direct calls, ``seconds`` each.  The service
    has no incremental load, so for ``edit`` only the partition
    switches are served."""
    keep = [i for i, step in enumerate(script["period"])
            if script["workload"] != "edit" or step["key"] == ["load"]]
    probe = dict(script, period=[script["period"][i] for i in keep])
    sizes = []
    service = InProcessService(probe, http=True)
    try:
        over_http = timed_loop(probe, seconds, _sized(service, sizes))
        direct = timed_loop(probe, seconds, service.render)
    finally:
        service.close()
    for frame in over_http + direct:
        frame.step = keep[frame.step]
    return over_http + direct, _service_metrics(over_http, direct,
                                                bare_frames, sizes)


def _sized(hosted, sizes):
    """``render`` over HTTP that also keeps each response's size."""
    def render(i):
        _, payload, headers = hosted.request(hosted.script["period"][i])
        sizes.append(int(headers.get("Content-Length", 0)))
        return payload["colors"], payload["cost"]
    return render


def _service_metrics(over_http, direct, bare, sizes):
    """Per-step medians paired across the three ways of serving a
    frame: the service's own time, its overhead over a bare
    ``EditSession`` frame, and HTTP's over the service."""
    http_ms, service_ms, bare_ms = (
        _step_ms(frames) for frames in (over_http, direct, bare))
    return {
        "service.render_ms": (
            percentile([f.seconds * 1000.0 for f in direct], 50), "ms"),
        "service.overhead_ms": (
            median([service_ms[i] - bare_ms[i] for i in service_ms]), "ms"),
        "http.ms": (median([http_ms[i] - service_ms[i] for i in service_ms]),
                    "ms"),
        "http.response_bytes": (sum(sizes) / float(len(sizes)), "bytes"),
    }


def _step_ms(frames):
    by_step = collections.defaultdict(list)
    for frame in frames:
        by_step[frame.step].append(frame.seconds * 1000.0)
    return {i: median(v) for i, v in by_step.items()}


RUNNERS = {"drag": run_in_process, "edit": run_in_process, "serve": run_serve}
