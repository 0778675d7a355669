"""Calibrated time: wall time scaled by the machine's speed at the moment.

On a shared machine the speed of this process drifts by up to 2x, for a
fraction of a second to minutes at a time, so wall times of unchanged code
differ that much between runs. A fixed reference kernel, run now and then
between the measured calls, tracks that speed: it is a small LSTM-like
cell in numpy, the same mix of small-array numpy calls and interpreter
work as the package's hot loops. Measured alternately with a loop of
``lstm.step`` and ``refcalc.solve_reference`` calls for 75 s, the ratio of
the two times stayed within 0.93-0.97 over 3 s windows while the package's
own time swung between 1.14x and 2.0x of its fastest.

A calibrated second is the time in which the kernel runs 1 / REF_S times:
an interval is scaled by REF_S over the kernel's time measured around it.

    clock = RefClock()
    clock.sample()                    # between the measured calls
    ...
    clock.seconds(t0_ns, t1_ns)       # calibrated length of [t0, t1]

Time spent in ``sample`` itself is not counted.
"""

import statistics
import time

import numpy as np

REF_S = 1e-3          # kernel time that defines a calibrated second's scale
NEIGHBOURS = 2        # kernel samples on each side of a gap that set its speed

_W = np.random.default_rng(0).standard_normal((16, 8)) * 0.5


def kernel():
    """200 steps of an 8-unit gated cell."""
    h = np.zeros(8)
    c = np.zeros(8)
    for _ in range(200):
        z = _W @ h
        g = 1.0 / (1.0 + np.exp(-z[:8]))
        c = g * c + np.tanh(z[8:])
        h = np.tanh(c) * g
    return h


class RefClock:
    """Kernel samples, and the calibrated time they imply."""

    def __init__(self):
        self.samples = []         # (t0_ns, t1_ns) of every kernel run
        self._knots = None

    def sample(self):
        t0 = time.perf_counter_ns()
        kernel()
        self.samples.append((t0, time.perf_counter_ns()))
        self._knots = None

    def kernel_s(self):
        """Median kernel time (s) over every sample."""
        return statistics.median(b - a for a, b in self.samples) * 1e-9

    def _build(self):
        """Knots of the calibrated clock C(t): flat during a sample, and
        between samples i and i + 1 of slope REF_S over the median kernel
        time of the NEIGHBOURS samples on each side."""
        durs = [b - a for a, b in self.samples]
        n = len(durs)
        slopes = [REF_S * 1e9 / statistics.median(
            durs[max(0, i - NEIGHBOURS + 1):min(n, i + NEIGHBOURS + 1)]) for i in range(n)]
        ts, cs = [], []
        c = 0.0
        for i, (a, b) in enumerate(self.samples):
            if i:
                c += (a - ts[-1]) * slopes[i - 1]
            ts += [a, b]
            cs += [c, c]
        self._knots = (np.array(ts, dtype=float), np.array(cs), slopes[0], slopes[-1])

    def _at(self, t_ns):
        if self._knots is None:
            self._build()
        ts, cs, first, last = self._knots
        if t_ns < ts[0]:
            return cs[0] - (ts[0] - t_ns) * first
        if t_ns > ts[-1]:
            return cs[-1] + (t_ns - ts[-1]) * last
        return float(np.interp(t_ns, ts, cs))

    def seconds(self, t0_ns, t1_ns):
        """Calibrated length (s) of the wall-clock interval [t0, t1]."""
        return (self._at(t1_ns) - self._at(t0_ns)) * 1e-9
