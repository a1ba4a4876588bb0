"""A fixed reference computation, sampled all through a run, that tells
how fast the core runs at each moment.

On a shared host the speed of a core drifts by a third and more over
seconds to minutes, as other tenants load it, so the times of the same
code differ that much between runs. ``SpeedSampler`` runs a small unit of
fixed work on a thread of its own every ``PERIOD_S`` and records the CPU
time each unit took. ``measure.py`` pins its process to one core, so the
units run on the core that runs the program, and divides the program's
CPU times by the unit times sampled around them: the ratio no longer
carries the drift.

The unit imports nothing from agglearn, so no change to the program can
move it. It mixes the two kinds of work the workloads spend their time
on: a dict-based dynamic program over count vectors that reads numpy
scalars one at a time (the shape of the label-proportion posterior), and
small dense products, a softmax and a log over 2 and 64 rows (the shape of
the per-group model and loss calls).
"""

from __future__ import annotations

import threading
import time

import numpy as np

# On a 2-core x86_64 VM (numpy 2.4, one BLAS thread) one unit takes about
# this much CPU time; timings are scaled to a machine on which it does.
NOMINAL_S = 0.01

# A unit every PERIOD_S costs the program about 5% of its core. A time
# interval is scaled by the units that started within WINDOW_S of it, so
# that intervals shorter than the period still have samples.
PERIOD_S = 0.2
WINDOW_S = 1.0

_RNG = np.random.default_rng(0)
_P = _RNG.random((10, 4))
_P /= _P.sum(axis=1, keepdims=True)
_TARGET = (3, 2, 3, 2)
_X = _RNG.random((64, 2))
_W1 = _RNG.random((2, 300))
_W2 = _RNG.random((300, 3))


def _count_dp() -> float:
    """Mass of all labelings of 10 items with class counts _TARGET."""
    k = len(_TARGET)
    layer = {(0,) * k: 1.0}
    for i in range(len(_P)):
        nxt: dict = {}
        for counts, mass in layer.items():
            for j in range(k):
                if counts[j] < _TARGET[j]:
                    bumped = counts[:j] + (counts[j] + 1,) + counts[j + 1 :]
                    nxt[bumped] = nxt.get(bumped, 0.0) + mass * _P[i, j]
        layer = nxt
    return layer[_TARGET]


def _dense(rows: int) -> float:
    h = np.maximum(_X[:rows] @ _W1, 0.0)
    out = h @ _W2
    e = np.exp(out - out.max(axis=1, keepdims=True))
    e /= e.sum(axis=1, keepdims=True)
    return float((h.T @ e)[0, 0]) + float(np.log(e).sum())


def unit_cpu_s() -> float:
    """CPU time of the calling thread for one unit of the reference work."""
    t0 = time.thread_time()
    for _ in range(12):
        _count_dp()
    for _ in range(60):
        _dense(2)
        _dense(64)
    return time.thread_time() - t0


class SpeedSampler:
    """Times one reference unit every PERIOD_S while the ``with`` block runs."""

    def __init__(self):
        self.samples: list[tuple[float, float]] = []  # (perf_counter at start, CPU s)
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, name="reference-sampler", daemon=True)

    def _run(self) -> None:
        while not self._stop.wait(PERIOD_S):
            self.samples.append((time.perf_counter(), unit_cpu_s()))

    def __enter__(self) -> SpeedSampler:
        self._thread.start()
        return self

    def __exit__(self, *exc) -> None:
        self._stop.set()
        self._thread.join()
        if not self.samples:
            self.samples.append((time.perf_counter(), unit_cpu_s()))

    def around(self, start: float, end: float) -> float:
        """Mean unit time over the samples within WINDOW_S of [start, end],
        or the nearest sample when none is."""
        near = [s for t, s in self.samples if start - WINDOW_S <= t <= end + WINDOW_S]
        if not near:
            near = [min(self.samples, key=lambda ts: min(abs(ts[0] - start), abs(ts[0] - end)))[1]]
        return sum(near) / len(near)
