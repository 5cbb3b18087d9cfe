"""Machine-speed normalisation: a fixed reference kernel sampled between items.

On a shared host the same item runs up to 1.7 times slower in some phases
than in others, and a phase can outlast a run; CPU time moves with wall
time, so nothing inside the process tells the phases apart.  The benchmark
therefore runs a short reference kernel after every item, for a fixed share
of that item's time, and reports each latency scaled to the speed at which
the kernel takes ``REF_NOMINAL_S``:

    normalised latency = wall latency * REF_NOMINAL_S / local kernel time

where the local kernel time is the mean of the kernel runs within
``WINDOW_S`` of the item, or within ``WINDOW_ITEMS`` times its own
duration when that is longer, and at least ``LEAST_SAMPLES`` of them.  The
machine's speed changes many times a second, so the kernel runs right next
to a short item say the most about it; a long item, whose wall time
averages the speed over seconds, is set against the kernel over a
comparably long stretch around it.  The mean,
not the median: the machine flips between fast and slow states many times
a second, an item's wall time adds up the states it passes through, and a
median of kernel runs jumps from one state to the other instead.  The kernel uses only Python and numpy, never
orlimark, so a change to orlimark moves the normalised figures exactly as
it moves the wall-clock ones; only the machine's speed cancels.  The kernel
mixes what orlimark's items do: an adaptive quadrature whose time goes to
the interpreter and to small numpy calls, and a vectorised level-set
bisection on a few thousand points.  A kernel of tight scalar loops alone
was a poor reference: on the sandbox its time jumped between two levels
1.8 to 4.7 times apart while orlimark's items moved by 1.2 to 1.3 times.
"""

from __future__ import annotations

import statistics
from time import perf_counter

import numpy as np

REF_NOMINAL_S = 0.0025  # the kernel's typical time on the 2-vCPU sandbox the bounds were set on
REF_SHARE = 0.2  # kernel time after an item, as a share of the item's time
WINDOW_S = 0.03  # kernel runs this close to an item set its speed
WINDOW_ITEMS = 2.0  # ... or this many times the item's duration, when longer
LEAST_SAMPLES = 5  # widen the window until it holds this many kernel runs

_GX, _GW = np.polynomial.legendre.leggauss(15)
_CQ = np.linspace(1.0, -2.0, 9)
_XB = np.linspace(-1.0, 1.0, 4096)
_CB = np.linspace(0.3, -0.7, 25)


def _integrand(x):
    return np.log1p(np.abs(np.polyval(_CQ, x))) * np.sqrt(np.abs(x) + 1e-3)


def _adaptive_quadrature() -> float:
    """Adaptive 15-point Gauss-Legendre on a kinked integrand: interpreter-bound."""

    def panel(a, b):
        h = 0.5 * (b - a)
        return h * float(_GW @ _integrand(a + h * (_GX + 1.0)))

    total, stack, splits = 0.0, [(-1.0, 1.0, panel(-1.0, 1.0))], 0
    while stack and splits < 120:
        a, b, whole = stack.pop()
        m = 0.5 * (a + b)
        left, right = panel(a, m), panel(m, b)
        splits += 1
        if abs(left + right - whole) <= 1e-13 * max(1.0, abs(whole)):
            total += left + right
        else:
            stack += [(a, m, left), (m, b, right)]
    return total + sum(w for _, _, w in stack)


def _vector_bisection() -> float:
    """Level-set bisection on 4096 points at once: numpy-bound."""
    lo = np.full(_XB.size, -1.0)
    hi = np.full(_XB.size, 1.0)
    for _ in range(8):
        mid = 0.5 * (lo + hi)
        above = np.abs(np.polyval(_CB, mid)) > 0.3
        lo = np.where(above, mid, lo)
        hi = np.where(above, hi, mid)
    return float(lo.sum())


def reference_unit() -> float:
    """One run of the reference kernel, 2 to 4 ms on the 2-vCPU sandbox."""
    return _adaptive_quadrature() + _vector_bisection()


class SpeedTrace:
    """Timed runs of the reference kernel, and the speed factor they give."""

    def __init__(self):
        self.starts: list[float] = []
        self.times: list[float] = []
        self.items: list[tuple[float, float]] = []  # (start, wall) of each item sampled after

    def sample(self, seconds: float) -> None:
        """Run the kernel for at least ``seconds``, and at least once."""
        begin = perf_counter()
        while True:
            t0 = perf_counter()
            reference_unit()
            t1 = perf_counter()
            self.starts.append(t0)
            self.times.append(t1 - t0)
            if t1 - begin >= seconds:
                return

    def after_item(self, start: float, wall: float) -> None:
        self.items.append((start, wall))
        self.sample(REF_SHARE * wall)

    def factor(self, t0: float, t1: float) -> float:
        """REF_NOMINAL_S over the mean kernel time near [t0, t1]."""
        starts = np.asarray(self.starts)
        times = np.asarray(self.times)
        if starts.size == 0:
            raise RuntimeError("no reference kernel runs to normalise with")
        window = max(WINDOW_S, WINDOW_ITEMS * (t1 - t0))
        while True:
            near = times[(starts >= t0 - window) & (starts <= t1 + window)]
            if near.size >= min(LEAST_SAMPLES, starts.size):
                return REF_NOMINAL_S / float(np.mean(near))
            window *= 2.0

    def summary(self) -> dict:
        origin = self.starts[0] if self.starts else 0.0
        return {
            "ref_runs": len(self.times),
            "ref_median_ms": statistics.median(self.times) * 1e3 if self.times else None,
            "ref_total_s": sum(self.times),
            "ref_runs_s": [[round(a - origin, 6), round(t, 7)] for a, t in zip(self.starts, self.times)],
            "items_s": [[round(a - origin, 6), round(w, 6)] for a, w in self.items],
        }
