"""Helpers shared by the benchmark runner, the oracle and the self-tests:
frame digests, percentiles, the GC monitor and the environment stamp."""

from __future__ import annotations

import array
import gc
import hashlib
import itertools
import os
import platform
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
#: Scratch space inside the checkout: run records, oracle cache, the
#: service's artifact stores and logs.
WORK = os.path.join(ROOT, ".perfbench")


def frame_digest(colors):
    """SHA-256 over a frame's colour components as little-endian IEEE
    doubles: equal digests mean byte-identical frames.  Accepts the
    per-pixel tuples of ``Image.colors`` and the lists of a JSON frame."""
    data = array.array("d", itertools.chain.from_iterable(colors))
    if sys.byteorder != "little":
        data.byteswap()
    return hashlib.sha256(data.tobytes()).hexdigest()


def percentile(values, q):
    """Linear-interpolated percentile (``q`` in [0, 100])."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("percentile of no values")
    pos = (len(ordered) - 1) * q / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


class GcMonitor(object):
    """Counts CPython generation-2 collections and their pause time via
    ``gc.callbacks`` while installed (``with GcMonitor() as gcm``)."""

    def __init__(self):
        self.collections = 0
        self.pause_s = 0.0
        self._start = None

    def _callback(self, phase, info):
        if info.get("generation") != 2:
            return
        if phase == "start":
            self._start = time.perf_counter()
        elif self._start is not None:
            self.pause_s += time.perf_counter() - self._start
            self.collections += 1
            self._start = None

    def __enter__(self):
        gc.callbacks.append(self._callback)
        return self

    def __exit__(self, *exc):
        gc.callbacks.remove(self._callback)


class pinned(object):
    """Pin this process, and the processes it starts meanwhile, to one
    CPU for the ``with`` block; restore the CPU set afterwards.

    A closed loop with one client never runs client and service at the
    same time, and on a small VM a wake-up across virtual CPUs added
    50-80% to serve latency, varying from second to second."""

    def __enter__(self):
        self.cpus = None
        if hasattr(os, "sched_setaffinity"):
            self.cpus = os.sched_getaffinity(0)
            os.sched_setaffinity(0, {min(self.cpus)})
        return self

    def __exit__(self, *exc):
        if self.cpus is not None:
            os.sched_setaffinity(0, self.cpus)


def calibration_ms(rounds=3):
    """Median wall time of a fixed pure-Python loop.  Stamped on every
    result so a run on a slowed machine can be recognised; no metric is
    normalised by it."""
    times = []
    for _ in range(rounds):
        start = time.perf_counter()
        total = 0
        for i in range(300000):
            total += i * i % 7
        times.append((time.perf_counter() - start) * 1000.0)
    return statistics.median(times)


def source_fingerprint():
    """SHA-256 over every file under ``src/repro`` (path and bytes): the
    identity of the program a result was measured on, also when the
    checkout carries no git metadata."""
    digest = hashlib.sha256()
    base = os.path.join(SRC, "repro")
    for dirpath, dirnames, filenames in os.walk(base):
        dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
        for name in sorted(filenames):
            if not name.endswith(".py"):
                continue
            path = os.path.join(dirpath, name)
            digest.update(os.path.relpath(path, base).encode())
            with open(path, "rb") as handle:
                digest.update(handle.read())
    return digest.hexdigest()


def _commit():
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return None
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, timeout=10,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.strip() or None


def _simd():
    try:
        from numpy._core._multiarray_umath import __cpu_features__
    except ImportError:
        try:
            from numpy.core._multiarray_umath import __cpu_features__
        except ImportError:
            return None
    return sorted(name for name, on in __cpu_features__.items() if on)


def env_stamp():
    try:
        import numpy
        numpy_version = numpy.__version__
    except ImportError:
        numpy_version = None
    try:
        usable = len(os.sched_getaffinity(0))
    except AttributeError:
        usable = os.cpu_count()
    return {
        "nproc": usable,
        "python": platform.python_version(),
        "numpy": numpy_version,
        "simd": _simd(),
        "commit": _commit(),
        "source": source_fingerprint(),
        "calibration_ms": round(calibration_ms(), 3),
        "machine": platform.machine(),
    }
