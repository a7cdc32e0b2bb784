"""Machine-speed probe: fixed reference kernels timed throughout a run.

The benchmark runs on a few cores of a shared host whose speed changes by up
to 1.7x for seconds to minutes at a time, with the same code and the same
input.  An interval timer interrupts the measured process every
``PERIOD_S`` seconds and times one of four small kernels owned by the
benchmark, in turn; they mimic the program's instruction mix (interpreted
integer loops, numpy elimination modulo a word-size prime as in the
certified engine, Fraction arithmetic and trial division as in the exact
engine and the root finder, dict polynomial products as in ``poly``).  The
kernels never touch ``conicfree``, so a change to the program cannot move
them.

``factor(t0, t1)`` is the machine's slowness around an interval: the
geometric mean over the kernels of their median time near the interval
divided by their nominal time.  A time divided by it reads in seconds at
the nominal speed.  Time spent in the timer's handler is counted in
``spent`` so callers can take it out of their own intervals.
"""

from __future__ import annotations

import bisect
import signal
import statistics
import time
from fractions import Fraction

import numpy as np

PERIOD_S = 0.05  # one kernel per tick, 2-3% of a run
WINDOW_S = 0.25  # samples this close to an interval count towards its factor
_P = 2147483629  # a prime below 2^31, like the certified engine's primes
_MATRIX = np.random.default_rng(7).integers(0, _P, size=(40, 56), dtype=np.int64)


def _interp() -> int:
    x, y = 0, 12345678901234567890
    for i in range(1, 3000):
        x = (x * y + i * i) % 1000000007
        y = (y * 7 + x) % (1 << 80)
    return x


def _numpy_rref() -> int:
    a = _MATRIX.copy()
    r = 0
    for c in range(a.shape[1]):
        if r == a.shape[0]:
            break
        nz = np.nonzero(a[r:, c])[0]
        if nz.size == 0:
            continue
        pr = r + int(nz[0])
        if pr != r:
            a[[r, pr]] = a[[pr, r]]
        a[r] = (a[r] * pow(int(a[r, c]), _P - 2, _P)) % _P
        col = a[:, c].copy()
        col[r] = 0
        mask = np.nonzero(col)[0]
        if mask.size:
            a[mask] = (a[mask] - np.outer(col[mask], a[r]) % _P) % _P
        r += 1
    return r


def _fractions() -> int:
    s = Fraction(0)
    for i in range(1, 60):
        s += Fraction(i * i + 1, i * 3 + 2)
    n = s.numerator * s.denominator
    return sum(1 for d in range(1, 400) if n % d == 0)


def _dict_poly() -> int:
    f = {(i, j, 4 - i - j): i * 7 + j * 3 + 1 for i in range(5) for j in range(5 - i)}
    g = f
    for _ in range(2):
        h: dict = {}
        for m1, c1 in g.items():
            for m2, c2 in f.items():
                m = (m1[0] + m2[0], m1[1] + m2[1], m1[2] + m2[2])
                h[m] = h.get(m, 0) + c1 * c2
        g = h
    return len(g)


# kernel, its time in seconds at the nominal speed (the fast end of what a
# 2-core Intel Xeon with Python 3.11.7 and numpy 2.4.6 gives)
KERNELS = (
    (_interp, 0.00080),
    (_numpy_rref, 0.00227),
    (_fractions, 0.000227),
    (_dict_poly, 0.000278),
)


class SpeedProbe:
    """Samples the kernels on a timer (``start``/``stop``) or on demand (``burst``)."""

    def __init__(self) -> None:
        # one list of (start, seconds) per kernel, in time order
        self.samples: list[list[tuple[float, float]]] = [[] for _ in KERNELS]
        self.spent = 0.0
        self._next = 0

    def _sample(self, k: int) -> None:
        t0 = time.perf_counter()
        KERNELS[k][0]()
        took = time.perf_counter() - t0
        self.samples[k].append((t0, took))
        self.spent += time.perf_counter() - t0

    def _tick(self, signum, frame) -> None:
        self._sample(self._next)
        self._next = (self._next + 1) % len(KERNELS)

    def start(self) -> None:
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def burst(self, rounds: int = 3) -> None:
        """Time every kernel `rounds` times now."""
        for _ in range(rounds):
            for k in range(len(KERNELS)):
                self._sample(k)

    def factor(self, t0: float, t1: float) -> float:
        """Slowness of the machine around [t0, t1] relative to the nominal speed."""
        ratios = []
        for (_, nominal), series in zip(KERNELS, self.samples):
            starts = [s for s, _ in series]
            lo = bisect.bisect_left(starts, t0 - WINDOW_S)
            hi = bisect.bisect_right(starts, t1 + WINDOW_S)
            near = [d for _, d in series[lo:hi]]
            if not near:  # no sample near the interval: take the nearest one
                mid = (t0 + t1) / 2
                near = [min(series, key=lambda s: abs(s[0] - mid))[1]]
            ratios.append(statistics.median(near) / nominal)
        return statistics.geometric_mean(ratios)
