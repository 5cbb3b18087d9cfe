"""Growth functions phi, their log-reparametrization h, and conjugates.

A growth function is described once, in y = log z: by h(y) = phi(e^y), its
derivative h'(y) and its kinks, the y where h' jumps (``PhiSpec``).  The
admissible class consists of phi with phi(0) = 0 whose h is strictly
increasing and convex and whose consecutive gaps h(k+1) - h(k) grow fast
enough that sum_k exp(h(k) - h(k+1)) converges (``gap_series``).  Two
built-in families cover the use cases:

* power_log(m, r):  phi(z) = z^m * log(exp(m + |r|) + z)^(-m r).  With r = 0
  this is exactly z^m, for which every conjugate quantity has a closed form
  used as a test oracle.
* log_power(nu):    phi(z) = log(1 + z)^(1 + nu), nu > 0.

The Young-Fenchel transform h*(p) = sup_y (p y - h(y)) is computed from
the first-order condition h'(y) = p (``young_fenchel_lanes``): its root is
the maximizer y*(p), which is h*'(p) (Rockafellar, Convex Analysis, 1970,
Thm 26.5; Danskin's envelope theorem), and h*(p) = p y* - h(y*).  Every
exponent of a grid is one lane of one solve.  The norm scans read h* and y*
on a grid and, between grid points, parametrize p by y: p = h'(y) and
h*(p) = p y - h(y) exactly, with no further solve.  y*(1) is the log of the
knee of the spliced Orlicz function (``norms.construct_N``).
psi(p) = exp(h*(p) / p) is the weight the sup-based norms divide by; it
rises from p = 1 on where h(y*(1)) >= 0 (``ConjugateCache.psi_log_floor``).
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from .errors import ConjugateDivergenceError, DomainEvaluationError, RejectedInputError, SummabilityError
from .quadrature import _bracketed_root

_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0


@dataclass(frozen=True)
class PhiSpec:
    """A growth function phi, described in y = log z by three things: h(y) =
    phi(e^y), its derivative h'(y) = e^y phi'(e^y), and the kinks, the y
    where h' jumps (a table's points and the start of its clamp at zero).

    Every consumer reads these: the conjugate solver, the spliced Orlicz
    function and its knee, the gap series and the membership check.
    """

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

    def h(self, y):
        """phi(e^y), evaluated in a way that stays stable for large |y|."""
        ys = np.asarray(y, dtype=float)
        with np.errstate(over="ignore"):
            if self.family == "power-log":
                lg = np.logaddexp(self.m + abs(self.r), ys)  # log(e^(m+|r|) + e^y)
                return np.exp(self.m * ys - self.m * self.r * np.log(lg))
            if self.family == "log-power":
                soft = np.where(ys > 30.0, ys, np.log1p(np.exp(np.minimum(ys, 30.0))))
                return soft ** (1.0 + self.nu)
            if self.family == "custom":
                return np.asarray(self.fn(np.exp(ys)), dtype=float)
        return np.maximum(self._table_line(ys), 0.0)

    def _table_line(self, ys):
        """The table's piecewise-linear h before the clamp at zero."""
        ty, th = (np.asarray(v) for v in self.table)
        out = np.interp(ys, ty, th)
        # linear continuation by the edge slopes
        s_lo = (th[1] - th[0]) / (ty[1] - ty[0])
        s_hi = (th[-1] - th[-2]) / (ty[-1] - ty[-2])
        below = ys < ty[0]
        above = ys > ty[-1]
        out = np.where(below, th[0] + s_lo * (ys - ty[0]), out)
        return np.where(above, th[-1] + s_hi * (ys - ty[-1]), out)

    def dh(self, y):
        """h'(y) = e^y phi'(e^y), from the same stable forms as h.

        A custom phi's h' is z Im phi(z + i 1e-200) / 1e-200 at z = e^y, a
        complex step (Squire & Trapp, SIAM Review 40, 1998; phi's complex
        extension must be analytic), where its callable maps the complex
        array to finite complex values, and a central difference of phi at
        z otherwise.  A table's h' is the slope of the piece that holds y
        (the right one at a table point) and 0 where the clamp at zero holds.
        """
        ys = np.asarray(y, dtype=float)
        with np.errstate(over="ignore", invalid="ignore"):
            if self.family == "power-log":
                # h = exp(m y - m r log L), L = log(e^(m+|r|) + e^y), dL/dy = e^(y - L)
                lg = np.logaddexp(self.m + abs(self.r), ys)
                return self.m * self.h(ys) * (1.0 - self.r * np.exp(ys - lg) / lg)
            if self.family == "log-power":
                soft = np.where(ys > 30.0, ys, np.log1p(np.exp(np.minimum(ys, 30.0))))
                # d soft / dy = e^y / (1 + e^y) = 1 - e^-soft
                return (1.0 + self.nu) * soft**self.nu * -np.expm1(-soft)
            if self.family == "custom":
                zs = np.exp(ys)
                try:
                    with warnings.catch_warnings(), np.errstate(all="ignore"):
                        # a callable that casts to float drops the imaginary part
                        warnings.simplefilter("ignore", np.exceptions.ComplexWarning)
                        stepped = np.asarray(self.fn(zs + 1e-200j))
                except (TypeError, ValueError, ArithmeticError):
                    stepped = zs  # rejects complex input
                if np.iscomplexobj(stepped) and np.isfinite(stepped).all():
                    return zs * (stepped.imag / 1e-200)
                step = np.maximum(1e-7 * zs, 1e-9)
                lo = np.maximum(zs - step, 0.0)
                up = np.asarray(self.fn(zs + step), dtype=float)
                down = np.asarray(self.fn(lo), dtype=float)
                return zs * ((up - down) / (zs + step - lo))
        ty, th = (np.asarray(v) for v in self.table)
        slopes = np.diff(th) / np.diff(ty)
        piece = np.clip(np.searchsorted(ty, ys, side="right") - 1, 0, slopes.size - 1)
        return np.where(self._table_line(ys) < 0.0, 0.0, slopes[piece])

    def _kinks(self) -> np.ndarray:
        """The y where h' jumps: a table's points and the start of its clamp
        at zero; none for the smooth families."""
        if self.family != "tabulated":
            return np.empty(0)
        ty, th = self.table
        return np.array([ty[0] - th[0] / ((th[1] - th[0]) / (ty[1] - ty[0])), *ty])


def power_log(m: float, r: float = 0.0) -> PhiSpec:
    if not (0.0 < m < math.inf):
        raise RejectedInputError(f"m must be positive and finite, got {m!r}")
    if not math.isfinite(r):
        raise RejectedInputError(f"r must be finite, got {r!r}")
    return PhiSpec("power-log", m=float(m), r=float(r))


def log_power(nu: float) -> PhiSpec:
    if not (0.0 < nu < math.inf):
        raise RejectedInputError(f"nu must be positive and finite, got {nu!r}")
    return PhiSpec("log-power", nu=float(nu))


def custom_phi(fn) -> PhiSpec:
    return PhiSpec("custom", fn=fn)


def tabulated_phi(zs, phis) -> PhiSpec:
    """Tabulated curve (z_i, phi_i); piecewise linear in y = log z.

    Validation requires finite, strictly increasing z and phi and
    nondecreasing chord slopes in y, which preserves convexity of h on the
    table span.
    """
    zs = [float(v) for v in zs]
    phis = [float(v) for v in phis]
    if len(zs) != len(phis) or len(zs) < 2:
        raise RejectedInputError("need at least two (z, phi) pairs of equal length")
    if not all(map(math.isfinite, zs + phis)):
        raise RejectedInputError("tabulated z and phi values must be finite")
    if any(z <= 0 for z in zs):
        raise RejectedInputError("tabulated z values must be positive")
    if any(zs[i + 1] <= zs[i] for i in range(len(zs) - 1)):
        raise RejectedInputError("tabulated z values must increase strictly")
    if any(phis[i + 1] <= phis[i] for i in range(len(phis) - 1)):
        raise RejectedInputError("tabulated phi values must increase strictly")
    ty = [math.log(z) for z in zs]
    slopes = [
        (phis[i + 1] - phis[i]) / (ty[i + 1] - ty[i]) for i in range(len(ty) - 1)
    ]
    if any(slopes[i + 1] < slopes[i] - 1e-12 for i in range(len(slopes) - 1)):
        raise RejectedInputError("tabulated curve is not convex in log z")
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
    ``gap_series`` from k = 3, the certificate of C4's series too.
    """
    hv = phi.h(np.linspace(-30.0, 30.0, 601))
    hv = hv[np.isfinite(hv)]
    if hv.size < 8:
        return MembershipReport(False, False, False, math.nan, math.nan, "h not finite on window")
    d1 = np.diff(hv)
    monotone = bool(np.all(d1 > 0.0))
    scale = np.maximum.accumulate(np.maximum(np.abs(hv[:-2]), 1.0))
    d2 = hv[2:] - 2.0 * hv[1:-1] + hv[:-2]
    convex = bool(np.all(d2 >= -1e-9 * scale))
    partial, tail, detail = gap_series(phi, 3)
    return MembershipReport(monotone, convex, tail < math.inf, partial, tail, detail)


def gap_series(phi: PhiSpec, k0: int) -> tuple[float, float, str]:
    """sum_k exp(h(k) - h(k+1)) from k = k0 as (partial sum, tail bound,
    detail), the one certificate of the series, for admissibility and C4.

    The sum runs to the first term that is 0, or at most 1e-12 and at most
    half the one before.  That term bounds the rest if every later term to
    the horizon is 0 or at most half the one before; otherwise the tail
    bound is +inf and the sum runs to the horizon.  The horizon is 500
    terms, and a table's reaches two terms past its last kink: beyond its
    last point a table's h is linear and its terms stop shrinking.  A gap
    where h is not finite (h overflowed), or below -745, gives a term of 0.
    """
    kinks = phi._kinks()
    count = max(500, math.ceil(kinks[-1]) + 2 - k0) if kinks.size else 500
    hv = phi.h(np.arange(k0, k0 + count + 1, dtype=float))
    finite = np.isfinite(hv[:-1]) & np.isfinite(hv[1:])
    with np.errstate(invalid="ignore"):
        gaps = np.where(finite, hv[:-1] - hv[1:], -math.inf)
    # math.exp, not numpy's exp, which differs from it in the last bit for
    # some arguments: the series sums keep the bits they always had
    terms = np.array([math.exp(gap) if gap > -745.0 else 0.0 for gap in gaps.tolist()])
    halves = np.zeros(count, dtype=bool)
    halves[1:] = terms[1:] <= 0.5 * terms[:-1]
    stops = np.flatnonzero((terms == 0.0) | (halves & (terms <= 1e-12)))
    partials = np.cumsum(terms)
    if not stops.size or not halves[stops[0] + 1 :].all():
        return float(partials[-1]), math.inf, f"did not certify convergence in {count} terms"
    k = stops[0]
    return float(partials[k]), float(terms[k]), f"the term at k = {k0 + k} bounds the rest to k = {k0 + count - 1}"


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


# a doubling step in y, of a conjugate lane or of a scan's polish, stops past
# this |y|: the conjugate is then taken as +inf
_Y_CAP = 1e9


def young_fenchel_lanes(phi: PhiSpec, ps, p_min: float = 0.5):
    """(h*(p), y*(p)) at every p of ps, y* the maximizer of p y - h(y).

    y* solves the first-order condition h'(y) = p, and h*(p) = p y* - h(y*)
    by the equality case of the Fenchel-Young inequality.  Each lane doubles
    its steps away from y = 0, the first of length one, in the direction of
    the sign of p - h'(0), until h' - p changes sign; a lane that passes
    |y| = 1e9 first has h*(p) = y*(p) = +inf.  ``quadrature._bracketed_root``
    then collapses the bracket to 1e-14 (1 + |y|) and y* is its end of
    smaller |h' - p|.  A table's h' is a step function: its lane stops once
    the bracket holds one kink, and y* is that kink, where the maximum
    lies.  Every lane takes its own steps, so a lane's bits do
    not depend on the other exponents of the call.  An h' that falls where
    it should rise means h is not convex: SummabilityError.  An h' that is
    NaN at a y where z = e^y is finite raises DomainEvaluationError.
    """
    ps = np.array(ps, dtype=float, ndmin=1)
    below = ps[~(ps >= p_min)]
    if below.size:
        raise RejectedInputError(f"p = {float(below[0])!r} below the allowed minimum {p_min!r}")
    if np.isinf(ps).any():
        raise RejectedInputError("p must be finite, got inf")

    def g(y, lanes):
        dh = phi.dh(y)
        nan = np.isnan(dh)
        if nan.any():
            # past y = 709.78 z = e^y overflows, and a NaN there is not phi's
            with np.errstate(over="ignore"):
                z = np.exp(y[nan])
            if (z < math.inf).any():
                bad = float(z[np.argmax(z < math.inf)])
                raise DomainEvaluationError(f"h' of {phi.label} is NaN at z = {bad!r}", abscissa=bad)
        return dh - ps[lanes]

    margin = 1e-6 * ps  # the rounding of a differenced h'

    def not_monotone(bad):
        if np.any(bad):
            raise SummabilityError(f"h' of {phi.label} is not monotone; phi is outside the admissible class")

    n = ps.size
    lanes = np.arange(n)
    near, g_near = np.zeros(n), g(np.zeros(n), lanes)
    sign = np.where(g_near < 0.0, 1.0, -1.0)
    far, g_far = np.full(n, np.nan), np.full(n, np.nan)
    step, active = 1.0, lanes
    while active.size:
        cand = near[active] + sign[active] * step
        g_cand = g(cand, active)
        not_monotone(sign[active] * (g_cand - g_near[active]) < -margin[active])
        crossed = sign[active] * g_cand >= 0.0
        far[active[crossed]], g_far[active[crossed]] = cand[crossed], g_cand[crossed]
        moved = ~crossed
        near[active[moved]], g_near[active[moved]] = cand[moved], g_cand[moved]
        active = active[moved][np.abs(cand[moved]) <= _Y_CAP]
        step *= 2.0

    hstar, ystar = np.full(n, math.inf), np.full(n, math.inf)
    solved = np.flatnonzero(~np.isnan(far))
    right = sign[solved] > 0.0
    ends = (np.where(right, near[solved], far[solved]), np.where(right, far[solved], near[solved]))
    seen = np.array([np.where(right, g_near[solved], g_far[solved]), np.where(right, g_far[solved], g_near[solved])])
    tol = 1e-14 * (1.0 + np.maximum(np.abs(ends[0]), np.abs(ends[1])))

    def g_checked(y, lanes):
        """g on the live lanes, which for a monotone h' lies between the
        values at the ends of the lane's bracket, rows 0 and 1 of seen."""
        gy = g(y, solved[lanes])
        m = margin[solved[lanes]]
        not_monotone((gy < seen[0, lanes] - m) | (gy > seen[1, lanes] + m))
        seen[(gy > 0.0).astype(int), lanes] = gy
        return gy

    kinks = phi._kinks()

    def one_kink(lo, hi):
        """Whether h' jumps once in (lo, hi], where it takes the right slope."""
        return np.count_nonzero((kinks > lo[:, None]) & (kinks <= hi[:, None]), axis=1) == 1

    x_neg, x_pos, g_neg, g_pos = _bracketed_root(g_checked, *ends, *seen.copy(), tol, one_kink if kinks.size else None)
    y = np.where(-g_neg < g_pos, x_neg, x_pos)
    if kinks.size:
        # h' - p < 0 < h' - p at the ends of a bracket around one jump: y* is that kink
        y = np.where(one_kink(x_neg, x_pos), kinks[np.searchsorted(kinks, x_pos, side="right") - 1], y)
    hstar[solved] = ps[solved] * y - phi.h(y)
    ystar[solved] = y
    return hstar, ystar


def young_fenchel(phi: PhiSpec, p: float) -> float:
    """h*(p) = sup_y (p y - h(y)) for finite p >= 0.5; a supremum at
    infinity raises a divergence error that names the offending phi."""
    hstar = float(young_fenchel_lanes(phi, [p])[0][0])
    if hstar == math.inf:
        raise ConjugateDivergenceError(f"conjugate supremum for {phi.label} diverges at p = {p!r}")
    return hstar


def psi_log(phi: PhiSpec, p: float) -> float:
    return young_fenchel(phi, p) / p


def exp_or_inf(x: float) -> float:
    """exp(x), or +inf where that overflows: the value of a constant carried
    in log form, whose overflow is correct and sorts last."""
    try:
        return math.exp(x)
    except OverflowError:
        return math.inf


def psi(phi: PhiSpec, p: float) -> float:
    """exp(h*(p)/p), the weight dividing ||f||_p in the sup-based norms;
    +inf where h*(p)/p is finite but exp overflows."""
    return exp_or_inf(psi_log(phi, p))


@dataclass
class ConjugateCache:
    """Conjugate values and maximizers precomputed on a geometric p-grid.

    The grid runs from p_lo to 1024 at 64 points per decade, and each
    ``extend`` takes its top four times higher.  The grid is solved in one
    call of young_fenchel_lanes, so each value has the bits of a solve of
    its exponent alone.  Scans read h* and y* = h*' from the grid, and
    between grid points take p = h'(y) and h*(p) = p y - h(y).
    """

    phi: PhiSpec
    p_lo: float = 1.0
    p_hi: float = field(init=False)
    grid: np.ndarray = field(init=False, repr=False)
    hstar: np.ndarray = field(init=False, repr=False)
    ystar: np.ndarray = field(init=False, repr=False)
    psi_log_grid: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        if not (0.0 < self.p_lo < math.inf):
            raise RejectedInputError(f"p_lo must be positive and finite, got {self.p_lo!r}")
        self._build(self.p_lo, 1024.0)

    def _build(self, p_lo, p_hi):
        decades = math.log10(p_hi / p_lo)
        count = max(2, int(round(decades * 64)) + 1)
        grid = np.geomspace(p_lo, p_hi, count)
        hstar, self.ystar = young_fenchel_lanes(self.phi, grid)
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

    def check_start(self, p_lo: float) -> None:
        """RejectedInputError unless the grid starts at p_lo (1e-12 relative)."""
        if not abs(self.grid[0] - p_lo) <= 1e-12 * self.grid[0]:
            raise RejectedInputError(f"conjugate cache grid starts at p = {self.grid[0]!r}, not at p = {p_lo!r}, the p_lo it is read at")

    def psi_log_floor(self) -> float:
        """psi_log(1) from the grid's first point, the least psi_log over
        p >= 1 once h(y*(1)) >= 0 is checked: d(h*(p)/p)/dp = h(y*(p)) / p^2
        (Rockafellar, Convex Analysis, 1970, section 26) and h rises right of
        y*(1).  A grid that does not start at p = 1, or h(y*(1)) < 0,
        outside the admissible class, raises RejectedInputError."""
        self.check_start(1.0)
        h1 = float(self.phi.h(self.ystar[0]))
        if not h1 >= 0.0:
            raise RejectedInputError(f"{self.phi.label} is outside the admissible class: h(y*(1)) = {h1!r} < 0")
        return float(self.psi_log_grid[0])


def fenchel_moreau_check(phi: PhiSpec, ys) -> float:
    """Max relative deviation of the biconjugate from h on the given y values.

    For convex h the biconjugate reproduces h exactly; the returned deviation
    is therefore a direct measure of conjugate-transform numerics.  The
    supremum of p y - h*(p) over p is attained at p = h'(y), the equality
    case of the Fenchel-Young inequality, so every y takes one lane of one
    solve there.
    """
    ys = np.asarray(ys, dtype=float)
    ps = phi.dh(ys)
    hstar, _ystar = young_fenchel_lanes(phi, ps, p_min=0.0)
    hv = phi.h(ys)
    dev = np.abs(ps * ys - hstar - hv) / np.maximum(np.abs(hv), 1e-12)
    return float(np.max(dev, initial=0.0))
