"""The measurement seam and the speed probe that puts times in reference units.

The end-to-end run wraps only an oracle's `measure`.  The pause between one
`measure` returning and the next one being called is the time the
experiment stands idle while the algorithm decides where to measure next
(think time).

The machine's speed drifts: the same fixed kernel takes 55 ms in one second
and 105 ms in the next, and whole processes run 20-40% apart.  So a short,
fixed kernel of interpreter and small dense linear-algebra work (the probe)
is timed just before every `measure` call, and, two-wide as the ensemble's
two threads run, between jobs that have no oracle.  Each stretch of job time
is scaled by the probes taken around it to the speed at which one probe takes
`PROBE_REF_S`.  The probe uses no foldtrack code, so a faster foldtrack still
reads faster; only the machine's speed cancels.  Probe time itself is left
out of every figure.  Set-up is scaled as a whole, by the median of probe
bursts taken after it in each set-up process (run.py).
"""

from __future__ import annotations

import math
import statistics
import threading
import time
from typing import NamedTuple

import numpy as np

# reported times are at the speed where one probe takes this long (about
# the quiet speed of the 2-core machine the README describes) ...
PROBE_REF_S = 6.0e-4
# ... and where two probes side by side on two threads take this long
PAIR_REF_S = 1.3e-3
# probes on each side of a stretch of time that set its speed
PROBE_WINDOW = 2


class SpeedProbe:
    """A fixed unit of work: four Cholesky solves of an 80x80 matrix and 600 float ops."""

    def __init__(self):
        rng = np.random.default_rng(0)
        self.X = rng.standard_normal((80, 2))
        d2 = np.sum((self.X[:, None, :] - self.X[None, :, :]) ** 2, axis=-1)
        self.K = np.exp(-0.5 * d2) + 1e-3 * np.eye(80)

    def __call__(self) -> float:
        acc = 0.0
        for _ in range(4):
            L = np.linalg.cholesky(self.K)
            acc += float(np.linalg.solve(L, self.X[:, 0]) @ self.X[:, 1])
            for i in range(150):
                acc += (i * 0.5) ** 0.5
        return acc

    def burst(self, n: int, clock=time.perf_counter) -> list[float]:
        """Durations of n probes in a row after one untimed, in seconds."""
        self()
        out = []
        for _ in range(n):
            t0 = clock()
            self()
            out.append(clock() - t0)
        return out

    def pair_burst(self, n: int, clock=time.perf_counter) -> float:
        """Mean seconds per pair of probes when two threads run n probes each.

        A job that runs on two threads takes its speed from this: the pair
        sees both cores and the interpreter lock as the job does.  The second
        thread lives only for the burst.
        """
        self()
        other = threading.Thread(target=self.burst, args=(n,))
        t0 = clock()
        other.start()
        self.burst(n)
        other.join()
        return (clock() - t0) / n


class Call(NamedTuple):
    t_asked: float    # measure entered; the probe runs from here to t_call
    probe_s: float    # the timed (second) probe
    t_call: float     # the oracle is called
    t_return: float   # the oracle has answered
    omega: float      # realized input
    A: float


class TimedOracle:
    """Delegates to `inner`, recording a `Call` for every measure.

    Before each call the probe runs twice and the second run is timed, so
    the figure is the machine's speed with the probe's data in cache, not
    how much of the cache the program had taken.  Probing belongs neither to
    think time nor to measurement time.
    """

    def __init__(self, inner, probe, clock=time.perf_counter):
        self.inner = inner
        self.probe = probe
        self.clock = clock
        self.calls: list[Call] = []

    @property
    def domain_box(self):
        return self.inner.domain_box

    def measure(self, omega, A_target, seed=None):
        t_asked = self.clock()
        self.probe()
        t_probe = self.clock()
        self.probe()
        t_call = self.clock()
        m = self.inner.measure(omega, A_target, seed)
        self.calls.append(Call(t_asked, t_call - t_probe, t_call, self.clock(), m.omega, m.A))
        return m


def speed_factors(probe_s) -> list[float]:
    """PROBE_REF_S over the mean probe of a window around each probe index."""
    n = len(probe_s)
    out = []
    for i in range(n):
        window = probe_s[max(i - PROBE_WINDOW, 0):min(i + PROBE_WINDOW + 1, n)]
        out.append(PROBE_REF_S / statistics.fmean(window))
    return out


def think_gaps_ms(calls, n_grid: int, scaled: bool = True) -> list[float]:
    """Pauses before every measurement after the first `n_grid` (the seed grid), in ms.

    Grid measurements are requested back to back; their microsecond gaps
    say nothing about the algorithm and are left out.  The first gap kept
    is the one before the first measurement after the grid, which holds the
    hyperparameter fit and the first fold search.  With `scaled`, each gap
    is in reference units, by the probes around it.
    """
    speed = speed_factors([c.probe_s for c in calls]) if scaled else [1.0] * len(calls)
    return [1e3 * (calls[i].t_asked - calls[i - 1].t_return) * speed[i]
            for i in range(max(n_grid, 1), len(calls))]


def job_seconds(calls, t_start: float, t_end: float) -> tuple[float, float]:
    """(wall, reference) seconds of one online job, probing left out.

    The job splits at each probe into stretches; each stretch is scaled by
    the probes around the one that ends it (the last by the last probe's).
    """
    if not calls:
        return t_end - t_start, math.nan
    speed = speed_factors([c.probe_s for c in calls])
    starts = [t_start] + [c.t_call for c in calls]
    ends = [c.t_asked for c in calls] + [t_end]
    wall = sum(e - s for s, e in zip(starts, ends))
    ref = sum((e - s) * speed[min(i, len(calls) - 1)]
              for i, (s, e) in enumerate(zip(starts, ends)))
    return wall, ref


def percentile(values, q: float) -> float:
    """Linear-interpolation percentile (q in [0, 100]) of a non-empty sequence."""
    xs = sorted(values)
    if not xs:
        raise ValueError("percentile of an empty sequence")
    pos = (len(xs) - 1) * q / 100.0
    lo = math.floor(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)
