"""Growth functions phi, their log-reparametrization h, and conjugates.

The admissible class consists of phi with phi(0) = 0 whose reparametrization
h(y) = phi(e^y) is strictly increasing and convex and whose consecutive gaps
h(k+1) - h(k) grow fast enough that sum_k exp(h(k) - h(k+1)) converges.  Two
built-in families cover the use cases:

* power_log(m, r):  phi(z) = z^m * log(exp(m + |r|) + z)^(-m r).  With r = 0
  this is exactly z^m, for which every conjugate quantity has a closed form
  used as a test oracle.
* log_power(nu):    phi(z) = log(1 + z)^(1 + nu), nu > 0.

The Young-Fenchel transform h*(p) = sup_y (p y - h(y)) is computed by
expanding a bracket around the concave objective until it encloses the
maximum and then polishing by golden section (``golden_max``).  On request
the solve also returns the maximizer y*(p), which is h*'(p) by Danskin's
envelope theorem: the norm scans' polish reads psi'(p) = (y* - h*/p) / p
from it.  A grid of exponents is solved in one lockstep pass
(young_fenchel_grid) that takes the scalar solve's steps for every exponent
at once and returns its bits; its golden section, ``_golden_lanes``, takes
golden_max's steps lane by lane.
psi(p) = exp(h*(p) / p) is the weight the sup-based norms divide by; it is
nondecreasing for admissible phi because h*(0) = 0 and h* is convex.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ConjugateDivergenceError, SummabilityError

_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0


@dataclass(frozen=True)
class PhiSpec:
    family: str
    m: float = math.nan
    r: float = math.nan
    nu: float = math.nan
    fn: object = None
    table: tuple = None

    @property
    def label(self) -> str:
        if self.family == "power-log":
            return f"power-log(m={self.m:g},r={self.r:g})"
        if self.family == "log-power":
            return f"log-power(nu={self.nu:g})"
        if self.family == "tabulated":
            return f"tabulated({len(self.table[0])} points)"
        return "custom"

    # -- pointwise evaluation ------------------------------------------------

    def phi(self, z):
        zs = np.asarray(z, dtype=float)
        if self.family == "power-log":
            a = self.m + abs(self.r)
            lg = np.log(math.exp(a) + zs)
            with np.errstate(over="ignore"):
                return zs**self.m * lg ** (-self.m * self.r)
        if self.family == "log-power":
            return np.log1p(zs) ** (1.0 + self.nu)
        if self.family == "custom":
            return np.asarray(self.fn(zs), dtype=float)
        return self._table_h(_safe_log(zs))

    def h(self, y):
        """phi(e^y), evaluated in a way that stays stable for large |y|."""
        ys = np.asarray(y, dtype=float)
        if self.family in ("power-log", "custom"):
            with np.errstate(over="ignore"):
                return self._h(ys)
        return self._h(ys)

    def _h(self, ys):
        """h on an ndarray or a float, with no overflow guard of its own.

        numpy ufuncs give the same bits on a float as on a one-element
        array, so the float path matches h exactly.
        """
        if self.family == "power-log":
            lg = np.logaddexp(self.m + abs(self.r), ys)  # log(e^(m+|r|) + e^y)
            return np.exp(self.m * ys - self.m * self.r * np.log(lg))
        if self.family == "log-power":
            soft = np.where(ys > 30.0, ys, np.log1p(np.exp(np.minimum(ys, 30.0))))
            return soft ** (1.0 + self.nu)
        if self.family == "custom":
            return np.asarray(self.fn(np.exp(ys)), dtype=float)
        return self._table_h(ys)

    def _h_at(self, y: float) -> float:
        """h(y) as a float for pointwise loops, which guard overflow once.

        A custom callable still receives an ndarray (of one element).  For
        z^m (power-log with r = 0) and finite y the log term m*r*log(lg) is
        exactly zero, so exp(m*y) returns _h's bits without computing it.
        """
        if self.family == "power-log" and self.r == 0.0 and math.isfinite(y):
            return float(np.exp(self.m * y))
        if self.family == "log-power":
            # _h's operations without its array-wide where/minimum
            soft = np.asarray(y if y > 30.0 else np.log1p(np.exp(y)))
            return float(soft ** (1.0 + self.nu))
        if self.family == "custom":
            return float(self._h(np.array([y]))[0])
        return float(self._h(y))

    def _table_h(self, ys):
        ys = np.asarray(ys, dtype=float)
        ty, th = self.table
        ty = np.asarray(ty)
        th = np.asarray(th)
        out = np.interp(ys, ty, th)
        # linear continuation by the edge slopes; clamp at zero below
        s_lo = (th[1] - th[0]) / (ty[1] - ty[0])
        s_hi = (th[-1] - th[-2]) / (ty[-1] - ty[-2])
        below = ys < ty[0]
        above = ys > ty[-1]
        out = np.where(below, th[0] + s_lo * (ys - ty[0]), out)
        out = np.where(above, th[-1] + s_hi * (ys - ty[-1]), out)
        return np.maximum(out, 0.0)

    def dphi(self, z):
        zs = np.asarray(z, dtype=float)
        if self.family == "power-log":
            m, r = self.m, self.r
            a = math.exp(m + abs(r))
            lg = np.log(a + zs)
            return m * zs ** (m - 1.0) * lg ** (-m * r) * (1.0 - r * zs / (lg * (a + zs)))
        if self.family == "log-power":
            return (1.0 + self.nu) * np.log1p(zs) ** self.nu / (1.0 + zs)
        step = np.maximum(1e-7 * np.abs(zs), 1e-9)
        lo = np.maximum(zs - step, 0.0)
        return (self.phi(zs + step) - self.phi(lo)) / (zs + step - lo)


def _safe_log(zs):
    with np.errstate(divide="ignore"):
        return np.log(zs)


def power_log(m: float, r: float = 0.0) -> PhiSpec:
    if not (0.0 < m < math.inf):
        raise ValueError(f"m must be positive and finite, got {m!r}")
    if not math.isfinite(r):
        raise ValueError(f"r must be finite, got {r!r}")
    return PhiSpec("power-log", m=float(m), r=float(r))


def log_power(nu: float) -> PhiSpec:
    if not (0.0 < nu < math.inf):
        raise ValueError(f"nu must be positive and finite, got {nu!r}")
    return PhiSpec("log-power", nu=float(nu))


def custom_phi(fn) -> PhiSpec:
    return PhiSpec("custom", fn=fn)


def tabulated_phi(zs, phis) -> PhiSpec:
    """Tabulated curve (z_i, phi_i); piecewise linear in y = log z.

    Validation requires strictly increasing z and phi and nondecreasing chord
    slopes in y, which preserves convexity of h on the table span.
    """
    zs = [float(v) for v in zs]
    phis = [float(v) for v in phis]
    if len(zs) != len(phis) or len(zs) < 2:
        raise ValueError("need at least two (z, phi) pairs of equal length")
    if any(z <= 0 for z in zs):
        raise ValueError("tabulated z values must be positive")
    if any(zs[i + 1] <= zs[i] for i in range(len(zs) - 1)):
        raise ValueError("tabulated z values must increase strictly")
    if any(phis[i + 1] <= phis[i] for i in range(len(phis) - 1)):
        raise ValueError("tabulated phi values must increase strictly")
    ty = [math.log(z) for z in zs]
    slopes = [
        (phis[i + 1] - phis[i]) / (ty[i + 1] - ty[i]) for i in range(len(ty) - 1)
    ]
    if any(slopes[i + 1] < slopes[i] - 1e-12 for i in range(len(slopes) - 1)):
        raise ValueError("tabulated curve is not convex in log z")
    return PhiSpec("tabulated", table=(tuple(ty), tuple(phis)))


@dataclass
class MembershipReport:
    monotone: bool
    convex: bool
    summable: bool
    partial_sum: float
    tail_bound: float
    detail: str = ""

    @property
    def admissible(self) -> bool:
        return self.monotone and self.convex and self.summable


def phi_membership_check(
    phi: PhiSpec,
) -> MembershipReport:
    """Certify admissibility on a bounded window plus a series horizon.

    Monotonicity and convexity are checked on 601 points of y in [-30, 30]
    (second differences above -1e-9 after scaling).  Summability is
    certified when the series terms up to k = 200 either underflow outright
    or the last 20 term ratios all fall at or below one half, which bounds
    the tail by a geometric series.
    """
    ys = np.linspace(-30.0, 30.0, 601)
    hv = phi.h(ys)
    finite = np.isfinite(hv)
    ys = ys[finite]
    hv = hv[finite]
    if ys.size < 8:
        return MembershipReport(False, False, False, math.nan, math.nan, "h not finite on window")
    d1 = np.diff(hv)
    monotone = bool(np.all(d1 > 0.0))
    scale = np.maximum.accumulate(np.maximum(np.abs(hv[:-2]), 1.0))
    d2 = hv[2:] - 2.0 * hv[1:-1] + hv[:-2]
    convex = bool(np.all(d2 >= -1e-9 * scale))

    terms = []
    partial = 0.0
    summable = False
    tail_bound = math.inf
    detail = ""
    with np.errstate(over="ignore"):
        hk1 = phi._h_at(3.0)
        for k in range(3, 201):
            hk, hk1 = hk1, phi._h_at(float(k + 1))
            if not (math.isfinite(hk) and math.isfinite(hk1)):
                gap = -math.inf  # h overflowed: gaps this deep dwarf the float range
            else:
                gap = hk - hk1
            term = math.exp(gap) if gap > -745.0 else 0.0
            partial += term
            terms.append(term)
            if term < 1e-300:
                summable = True
                tail_bound = 0.0
                detail = f"terms vanish beyond k = {k}"
                break
    if not summable and len(terms) >= 21:
        last = terms[-20:]
        ratios = [last[i + 1] / last[i] if last[i] > 0 else 0.0 for i in range(19)]
        if all(rho <= 0.5 for rho in ratios):
            summable = True
            tail_bound = terms[-1]  # geometric with ratio <= 1/2: tail <= last term
            partial += tail_bound
            detail = "geometric tail certified at horizon"
        else:
            detail = f"term ratios near horizon reach {max(ratios):.3f}"
    return MembershipReport(monotone, convex, summable, partial, tail_bound, detail)


def golden_max(obj, a, b, tol=1e-12, iters=200):
    """Golden-section search for a maximum of a unimodal obj on [a, b].

    Stops after iters steps or once the bracket is below tol relative to
    its ends; returns the better final probe as (x, obj(x)).
    """
    x1 = b - _GOLDEN * (b - a)
    x2 = a + _GOLDEN * (b - a)
    f1 = obj(x1)
    f2 = obj(x2)
    for _ in range(iters):
        if b - a <= tol * (1.0 + abs(a) + abs(b)):
            break
        if f1 < f2:
            a, x1, f1 = x1, x2, f2
            x2 = a + _GOLDEN * (b - a)
            f2 = obj(x2)
        else:
            b, x2, f2 = x2, x1, f1
            x1 = b - _GOLDEN * (b - a)
            f1 = obj(x1)
    if f1 >= f2:
        return x1, f1
    return x2, f2


def _golden_lanes(fn, a, b, rtol: float):
    """golden_max on each bracket [a[i], b[i]] at once, lane by lane.

    fn(x, lanes) returns the objective of lane lanes[i] at x[i].  A lane
    takes golden_max's steps and stops once b - a <= rtol (1 + |a| + |b|),
    or after 200 steps; only the lanes still moving are evaluated, one fn
    call a step.  Returns each lane's better final probe, the left one on a
    tie, as (x, fn(x)): golden_max's bits, lane by lane.
    """
    a, b = np.array(a, dtype=float), np.array(b, dtype=float)
    live = np.arange(a.size)
    x1 = b - _GOLDEN * (b - a)
    x2 = a + _GOLDEN * (b - a)
    f1, f2 = fn(x1, live), fn(x2, live)
    x, fx = np.empty_like(a), np.empty_like(a)
    for step in range(201):
        done = (b - a <= rtol * (1.0 + np.abs(a) + np.abs(b))) | (step == 200)
        if done.any():
            first = f1 >= f2
            x[live[done]], fx[live[done]] = np.where(first, x1, x2)[done], np.where(first, f1, f2)[done]
            live, a, b, x1, x2, f1, f2 = (v[~done] for v in (live, a, b, x1, x2, f1, f2))
        if not live.size:
            break
        right = f1 < f2  # the maximum lies in [x1, b]
        a, b = np.where(right, x1, a), np.where(right, b, x2)
        d = _GOLDEN * (b - a)
        x_new = np.where(right, a + d, b - d)
        x1, x2 = np.where(right, x2, x_new), np.where(right, x_new, x1)
        f_new = fn(x_new, live)
        f1, f2 = np.where(right, f2, f_new), np.where(right, f_new, f1)
    return x, fx


def _vertex(obj, y: float, fy: float, rounding: float) -> float:
    """The vertex of the parabola through obj at y - s, y and y + s, for y
    near a smooth maximum fy = obj(y) that obj reaches to within
    ``rounding``; y itself where obj does not bend down.

    s starts at 1e-4 (1 + |y|), which gauges the curvature c, and is then
    cut to where c s^2 is 1e5 times the rounding: the parabola's error from
    the cubic term falls with s^2, the one from rounding with 1 / s.
    """
    s = 1e-4 * (1.0 + abs(y))
    curv = obj(y - s) - 2.0 * fy + obj(y + s)
    if not curv < 0.0:
        return y
    s *= min(1.0, math.sqrt(1e5 * rounding / -curv))
    lo, hi = obj(y - s), obj(y + s)
    curv = lo - 2.0 * fy + hi
    return y + 0.5 * s * (lo - hi) / curv if curv < 0.0 else y


def young_fenchel(phi: PhiSpec, p: float, p_min: float = 0.5, *, argmax: bool = False):
    """h*(p) = sup_y (p y - h(y)) for finite p >= p_min.

    The objective is concave, so doubling steps away from y0 = 0, the first
    of length one, until the value drops on both sides encloses the maximum;
    golden section narrows it to 1e-12.  If the objective is still
    rising after the expansion cap, the supremum sits at infinity for this p
    and a divergence error names the offending phi.  The whole solve runs
    under one overflow guard and evaluates h on floats.

    With ``argmax`` it returns (h*(p), y*), y* the maximizer: by Danskin's
    theorem the derivative of h* at p.  Golden section leaves its point where
    the objective is flat to rounding, at the left end of that band (a tie
    keeps the left part), so y* is the vertex of a parabola through points
    outside it (``_vertex``); a tabulated h is piecewise linear, and its
    maximizer, a kink, is golden section's point.
    """
    if not (p >= p_min):
        raise ValueError(f"p = {p!r} below the allowed minimum {p_min!r}")
    if p == math.inf:
        raise ValueError("p must be finite, got inf")
    with np.errstate(over="ignore"):
        h_at = phi._h_at

        def obj(y: float) -> float:
            hv = h_at(y)
            if math.isnan(hv):
                return -math.inf
            return p * y - hv

        y0, f0 = 0.0, obj(0.0)

        def expand(sign):
            """Doubling steps from y0 in direction sign: the last point that
            rose, its value, the first point that did not (None if the cap
            came first) and the next step."""
            y, fy, step = y0, f0, 1.0
            for _ in range(200):
                cand = y + sign * step
                fc = obj(cand)
                if not fc > fy:
                    return y, fy, cand, step
                y, fy = cand, fc
                step *= 2.0
                if abs(cand) > 1e9:
                    break
            return y, fy, None, step

        yr, fr, hi, _step = expand(1.0)
        if hi is None:
            raise ConjugateDivergenceError(
                f"conjugate supremum for {phi.label} diverges at p = {p!r}"
            )
        yl, fl, lo, step = expand(-1.0)
        if lo is None:
            lo = yl - step
        y, val = golden_max(obj, lo, hi)
        # the first of the largest values, as max(val, fr, fl, f0) takes it
        best, y = max((val, y), (fr, yr), (fl, yl), (f0, y0), key=lambda c: c[0])
        if not argmax:
            return best
        if phi.family != "tabulated":
            y = _vertex(obj, y, best, np.finfo(float).eps * (abs(p * y) + abs(h_at(y))))
        return best, y


def young_fenchel_or_inf(phi: PhiSpec, p: float, **kw):
    """Scan-friendly variant: divergence collapses to +inf instead of
    raising, and to (inf, inf) with ``argmax``."""
    try:
        return young_fenchel(phi, p, **kw)
    except ConjugateDivergenceError:
        return (math.inf, math.inf) if kw.get("argmax") else math.inf


def young_fenchel_grid(phi: PhiSpec, ps, p_min: float = 0.5) -> np.ndarray:
    """young_fenchel_or_inf at every p of ps, solved in one lockstep pass.

    Each exponent takes the scalar solve's steps from y0 = 0 with unit first
    steps: doubling expansion right, then left, golden section (lane-wise,
    by _golden_lanes) to the same stop test, then the largest of the four
    values (the first wins a tie).  The exponents still moving share one
    vectorized h call per step, so the result has the scalar solve's bits;
    divergent exponents give +inf.
    """
    ps = np.array(ps, dtype=float, ndmin=1)
    below = ps[~(ps >= p_min)]
    if below.size:
        raise ValueError(f"p = {float(below[0])!r} below the allowed minimum {p_min!r}")
    n = ps.size

    def obj(y, p):
        if y.size == 0:  # h is never called with no points
            return y
        hv = phi._h(y)
        with np.errstate(invalid="ignore"):
            return np.where(np.isnan(hv), -np.inf, p * y - hv)

    def expand(sign, lanes):
        """Doubling steps of the lanes in direction sign: (y, value, end,
        step), end NaN where the cap came first, as in the scalar solve."""
        y, f, end = np.zeros(n), f0.copy(), np.full(n, np.nan)
        step = np.ones(n)
        active = lanes
        for _ in range(200):
            if active.size == 0:
                break
            cand = y[active] + sign * step[active]
            fc = obj(cand, ps[active])
            up = fc > f[active]
            end[active[~up]] = cand[~up]
            rose = active[up]
            y[rose], f[rose] = cand[up], fc[up]
            step[rose] *= 2.0
            active = rose[np.abs(cand[up]) <= 1e9]
        return y, f, end, step

    with np.errstate(over="ignore"):
        f0 = obj(np.zeros(n), ps)
        _yr, fr, hi, _ = expand(1.0, np.arange(n))
        solved = np.flatnonzero(~np.isnan(hi))
        yl, fl, lo, step = expand(-1.0, solved)
        lo = np.where(np.isnan(lo), yl - step, lo)

        p = ps[solved]
        _x, best = _golden_lanes(lambda y, lanes: obj(y, p[lanes]), lo[solved], hi[solved], 1e-12)
    for other in (fr[solved], fl[solved], f0[solved]):
        best = np.where(other > best, other, best)
    out = np.full(n, math.inf)
    out[solved] = best
    return out


def psi_log(phi: PhiSpec, p: float) -> float:
    return young_fenchel(phi, p) / p


def psi(phi: PhiSpec, p: float) -> float:
    """exp(h*(p)/p), the weight dividing ||f||_p in the sup-based norms."""
    return math.exp(psi_log(phi, p))


@dataclass
class ConjugateCache:
    """Conjugate values precomputed on a geometric p-grid.

    The grid runs from p_lo to 1024 at 64 points per decade, and each
    ``extend`` takes its top four times higher.  The grid is solved in one
    lockstep pass of young_fenchel_grid, with the scalar solve's steps and
    bits.  Scans read the exact grid values, and asserted values are always
    recomputed exactly via young_fenchel.
    """

    phi: PhiSpec
    p_lo: float = 1.0
    p_hi: float = field(init=False)
    grid: np.ndarray = field(init=False, repr=False)
    hstar: np.ndarray = field(init=False, repr=False)
    psi_log_grid: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        if not (0.0 < self.p_lo < math.inf):
            raise ValueError(f"p_lo must be positive and finite, got {self.p_lo!r}")
        self._build(self.p_lo, 1024.0)

    def _build(self, p_lo, p_hi):
        decades = math.log10(p_hi / p_lo)
        count = max(2, int(round(decades * 64)) + 1)
        grid = np.geomspace(p_lo, p_hi, count)
        hstar = young_fenchel_grid(self.phi, grid)
        self.p_lo = float(p_lo)
        self.p_hi = float(p_hi)
        self.grid = grid
        self.hstar = hstar
        with np.errstate(invalid="ignore"):
            self.psi_log_grid = hstar / grid
        self._check_convexity()

    def _check_convexity(self):
        finite = np.isfinite(self.hstar)
        g = self.grid[finite]
        v = self.hstar[finite]
        if g.size < 3:
            return
        slopes = np.diff(v) / np.diff(g)
        scale = np.maximum(np.abs(v[1:-1]), 1.0)
        if np.any(np.diff(slopes) < -1e-9 * scale):
            raise SummabilityError(
                f"conjugate of {self.phi.label} is not convex on the grid; "
                "phi is outside the admissible class"
            )

    def extend(self):
        self._build(self.p_lo, self.p_hi * 4.0)


def fenchel_moreau_check(phi: PhiSpec, ys) -> float:
    """Max relative deviation of the biconjugate from h on the given y values.

    For convex h the biconjugate reproduces h exactly; the returned deviation
    is therefore a direct measure of conjugate-transform numerics.  The
    supremum over p is searched from p = 1e-6 up to 4096, widened while the
    maximizer sits on the upper edge.
    """
    scans = {}  # hi_p -> (ts, p, h*(p)): the coarse grid does not depend on y

    def coarse(hi_p):
        if hi_p not in scans:
            ts = np.linspace(math.log(1e-6), math.log(hi_p), 120)
            ps = np.array([math.exp(t) for t in ts])
            scans[hi_p] = ts, ps, young_fenchel_grid(phi, ps, p_min=0.0)
        return scans[hi_p]

    worst = 0.0
    for y in np.asarray(ys, dtype=float):
        with np.errstate(over="ignore"):
            hv = phi._h_at(float(y))

        def obj(t: float) -> float:
            p = math.exp(t)
            return p * y - young_fenchel_or_inf(phi, p, p_min=0.0)

        # concave in p; search over log p with golden section after a coarse
        # scan, widening the window whenever the maximizer sits on its edge
        hi_p = 4096.0
        while True:
            ts, ps, hstar = coarse(hi_p)
            vals = ps * y - hstar
            k = int(np.argmax(vals))
            if k < len(ts) - 2 or hi_p >= 1e12:
                break
            hi_p *= 256.0
        lo = ts[max(0, k - 1)]
        hi = ts[min(len(ts) - 1, k + 1)]
        _t, biconj = golden_max(obj, lo, hi, tol=1e-13)
        biconj = max(biconj, float(np.max(vals)))
        dev = abs(biconj - hv) / max(abs(hv), 1e-12)
        worst = max(worst, dev)
    return worst
