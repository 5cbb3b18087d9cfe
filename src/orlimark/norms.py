"""Orlicz, Grand Lebesgue, Lorentz and derivative-weighted quasinorms.

The central object is a spliced Orlicz function built from a growth function
phi: linear with slope ``linear_slope`` up to the knee ``splice_point`` and
exp(phi(u)) beyond it.  The knee solves u * phi'(u) = 1, that is h'(log u) = 1
with h(y) = phi(e^y), so its log is the conjugate maximizer y*(1); the two
branches meet there with the linear one supporting the other, so the spliced
function is convex (and C1 where h' is continuous).

Three norm families ride on top:

* ``luxemburg_norm``: inf of l > 0 with integral of N(|f|/l) at most one,
  solved as a root problem in log l from the Jensen bound to where |f| / l
  stays below the knee and the modular has a closed form, on a cached-node
  model of the log modular that exact integrals near the root correct.
* ``g_norm`` / ``sup_ratio_from`` / ``v_quasinorm``: suprema over an
  exponent grid of ||f||_p or ||f||_beta(p) divided by the conjugate weight
  psi(p), computed by one scan, ``_g_scan``, with the exponent map
  p -> beta = p / (p r + 1) (r = 0 for the g-norm).  A scan returns a
  certified value or raises: ``ScanDivergenceError`` only where the
  supremum is infinite, at a singular end too strong for the scanned
  exponents, and ``ConvergenceFailureError`` where an integral or the grid
  runs out of budget, or where the cached-node ratio at the maximizer and
  the exact one differ by more than 1e-6 relative.
  A scan reads a conjugate cache built for its phi that starts at p_lo,
  where the weight must be finite (``ConjugateCache.check_start``).  Its
  grid, its one stopping rule, the cap by sup|f|, and the polish of its
  winner along y, the maximizer of the conjugate, where the slope of the
  log weight h*(p)/p is h(y)/p^2 (Danskin's envelope theorem), are set out
  at ``_g_scan``.
  Both scans ask the one ``quadrature.PowerNormEvaluator`` one question,
  ``log_norm(e)``; it and the model of the log modular are built on
  ``quadrature._NodeRule``, and the integrals of f read one
  ``quadrature._NodeStore``, which computes each node's value and each
  exact L_p integral once and serves the next norm of the same f too: the
  L1 integral of a Luxemburg solve is the floor of the g-scan after it.
* ``weighted_lorentz_g``: sup over p >= 1 of a Lorentz norm over psi(p),
  with no scan.  At finite b the norm does not rise with p and psi does
  not fall, so the supremum is the ratio at p = 1, one exact layer cake;
  at b = inf the suprema over p and w exchange (``_dual_weight``).
* ``lorentz_norm``: distribution-function based two-parameter norms,
  including the sup form at the second index equal to infinity.  At finite
  b its b-th power is the layer cake, the integral of T^(p/b) against the
  measure b w^(b-1) dw (Hunt 1966).  Both forms work
  on the intervals between consecutive critical values of |f|, where T is
  smooth: the layer-cake integral starts with panels inside each, and the
  sup form is maximized on each, one lane per interval, at a root of its
  log-derivative, which the crossings of T give along with T.

A function carries its domain: every norm of f is taken on
``f.natural_domain``, [-1, 1] or the circle, against its normalized
measure, and takes no domain argument; an object without one raises
``RejectedInputError``.  ``evaluate_norm_info`` is the one dispatch from a
``NormSpec`` to these norms, for the harness and the command line alike.

The knee is y*(1) from the conjugate solver.  The root of the model of the
log modular and, when the model does not settle, the Luxemburg root itself
are found by ``quadrature._bracketed_root`` with Brent's tolerances, at the
end of the collapsed bracket with the smaller residual; so is the polish of
a sup-over-p scan, the maximum of the weak Lorentz form and h's inverse.
"""

from __future__ import annotations

import copy
import math
from dataclasses import dataclass

import numpy as np

from .conjugate import _Y_CAP, ConjugateCache, PhiSpec, gap_series, young_fenchel_lanes
from .errors import (
    ConstructionError,
    ConvergenceFailureError,
    DomainEvaluationError,
    RejectedInputError,
    ScanDivergenceError,
    SummabilityError,
)
from .quadrature import (
    _INITIAL_PANELS,
    DEFAULT_CONFIG,
    LevelSampler,
    PowerNormEvaluator,
    QuadratureConfig,
    _abs_nodes,
    _adaptive,
    _break_values,
    _bracketed_root,
    _check_lp_exponent,
    _NodeRule,
    _NodeStore,
    _power_norm,
    lp_quasinorm,
)

def _root(fn, x_neg: float, x_pos: float, f_neg: float, f_pos: float, xtol: float):
    """The end of smaller |fn| of [x_neg, x_pos], with fn = f_neg <= 0 and
    f_pos >= 0 there, collapsed to width xtol + 8.9e-16 |x|, and fn there."""
    ends = _bracketed_root(
        lambda x, _lanes: fn(x), *(np.array([v]) for v in (x_neg, x_pos, f_neg, f_pos)), xtol + 8.9e-16 * max(abs(x_neg), abs(x_pos))
    )
    x_neg, x_pos, f_neg, f_pos = (float(v[0]) for v in ends)
    return (x_neg, f_neg) if -f_neg < f_pos else (x_pos, f_pos)


# ---------------------------------------------------------------------------
# spliced Orlicz function


@dataclass(frozen=True)
class OrliczN:
    """Spliced Orlicz function: linear below the knee, exp(phi) above."""

    phi: PhiSpec
    splice_point: float
    linear_slope: float

    @property
    def log_splice(self) -> float:
        return math.log(self.splice_point)

    @property
    def log_slope(self) -> float:
        return math.log(self.linear_slope)

    @property
    def g_over_b(self) -> float:
        """C3, the bound of the sup-ratio norm by the Orlicz norm."""
        return max(1.0, self.splice_point, 1.0 / self.linear_slope)

    @property
    def split_index(self) -> float:
        """Where C4's gap series starts: the knee solves h'(log u) = 1, so
        log(splice_point) = y*(1) = h*'(1), which the split clears by four."""
        return 4.0 + max(self.log_splice, 1.0)

    def n_log_from_log_u(self, log_u):
        """log N(u) given log u, an array of log u's shape; stable for |log u|
        far beyond float overflow.  The linear branch log slope + log u fills
        the array, and phi's h is evaluated only where log u is above the
        knee's log (or NaN), which a custom phi's ``fn`` allows: it must act
        elementwise, as h' already needs."""
        lu = np.asarray(log_u, dtype=float)
        out = np.empty(lu.shape)
        up = ~(lu <= self.log_splice)
        with np.errstate(invalid="ignore", over="ignore"):
            np.add(self.log_slope, lu, out=out)
            if up.any():
                out[up] = self.phi.h(lu[up])
        return out


def construct_N(phi: PhiSpec) -> OrliczN:
    """Find the tangency knee and slope for the spliced Orlicz function.

    u phi'(u) = h'(log u), so the knee's log is y*(1), the maximizer of
    y - h(y), which ``young_fenchel_lanes`` finds; it must lie in
    [log 1e-3, log 1e3].  The solver's bracket has h' <= 1 to the left of
    y*(1) and h' >= 1 to the right, at a table's kink too, so the line
    through the origin and (knee, exp(h(y*(1)))) supports the exponential
    branch there (is tangent to it where h' is continuous) and the splice
    is convex.  The slope is exp(h(y*(1))) / knee.
    """
    (_hstar,), (y,) = young_fenchel_lanes(phi, [1.0])
    if not (math.log(1e-3) <= y <= math.log(1e3)):
        raise ConstructionError(f"no knee for {phi.label} in [0.001, 1000]: y*(1) = {float(y)!r}")
    knee = math.exp(y)
    slope = math.exp(float(phi.h(y))) / knee
    if not math.isfinite(slope) or slope <= 0.0:
        raise ConstructionError(f"degenerate slope at knee for {phi.label}")
    n = OrliczN(phi, knee, slope)
    # monotonicity spot check across both branches: no value falls below
    # the one before by more than 1e-12; a steep phi's log N overflows to
    # +inf at the top, and inf after inf is no fall
    sample = np.geomspace(max(knee * 1e-3, 1e-12), knee * 1e3, 257)
    vals = n.n_log_from_log_u(np.log(sample))
    if (vals[1:] < vals[:-1] - 1e-12).any():
        raise ConstructionError(f"spliced function for {phi.label} is not monotone")
    return n


# ---------------------------------------------------------------------------
# Luxemburg norm


# rounds of model root and exact correction before the exact solve takes over
_MODEL_ROUNDS = 4


def luxemburg_norm(f, n: OrliczN, cfg: QuadratureConfig = DEFAULT_CONFIG) -> float:
    """Smallest l = e^t with the N-modular I(t) of f / l at most one.  By
    Jensen I(t) >= slope ||f||_1 e^-t = e^(t_lo - t), with
    equality from t_k = log(sup |f| / knee) on, where |f| e^-t stays on the
    linear branch of N: the root lies in [t_lo, t_k].

    Each round solves a model of log I for its root in the bracket,
    integrates the modular exactly there, narrows the bracket by the sign and
    joins that integral's panels to the model.  The model is log I on the
    cached nodes of a ``quadrature._NodeRule``, which starts from the panels
    of the L1 integral: log|f| is evaluated once per node, and each log I(t)
    is one log-sum-exp of n_log(log|f| - t) + log w.  N is convex with
    N(0) = 0, so d log I / dt <= -1, and an exact |log I(t)| within Brent's
    tolerance puts the root within it of t.

    N has a kink where |f| e^-t crosses the knee, at most once on each
    monotone piece of |f|; each exact integral at t starts from those
    crossings, located on the model's nodes.  Those at the model's first
    root join the model before any exact integral, and the slope bound puts
    its new root within twice its value there of that root.

    A model that contradicts a sign known exactly, or has not settled after
    _MODEL_ROUNDS rounds, hands the narrowed bracket to the exact solve.  Its
    lower end comes from steps down from the upper one, doubling, so an exact
    integral is taken at the Jensen end only when the steps reach it.

    A root whose exact log modular is farther than 1e-8 from zero raises
    ConvergenceFailureError, with the root as its ``best_estimate`` and
    |log I| there as its ``error_bound``; so does a log modular below -1e-8
    at the Jensen end, where the integral is off.
    """
    xs, vals = _break_values(f, bounded=True)
    sup = float(np.max(vals))
    if sup == 0.0:
        return 0.0
    nodes = _abs_nodes(f)
    log_l1, p_lo, p_hi = nodes.power_integral(1.0, cfg)
    lo = n.linear_slope * math.exp(log_l1)
    t_lo, t_k = math.log(lo), math.log(sup / n.splice_point)
    if t_lo >= t_k:
        return lo
    rule = _NodeRule(nodes, (p_lo, p_hi))
    log_vals = np.log(vals, out=np.full(vals.shape, -np.inf), where=vals > 0.0)

    def model(ts):
        """The model's log I at each t of the array ts."""
        return rule.log_mean(lambda g: n.n_log_from_log_u(g - ts[:, None]))

    def log_i(t: float) -> float:
        """The exact log modular at t; its panels join the model."""
        value, p_lo, p_hi = _adaptive(nodes, lambda g: n.n_log_from_log_u(g - t), cfg, rule.crossings(t + n.log_splice, xs, log_vals))
        rule.join(p_lo, p_hi)
        return value

    def resolved(t: float) -> float:
        """The model's root once the crossings at its root t join it: in
        [t, t + 2 m(t)], where the slope bound puts it, or in [a, b] where
        rounding leaves that bracket without a sign change."""
        rule.join(rule.crossings(t + n.log_splice, xs, log_vals))
        far = min(max(t + 2.0 * float(model(np.array([t]))[0]), a), b)
        ends = np.array([max(t, far), min(t, far), b, a])
        m = model(ends)
        for i in (0, 2):
            if m[i] <= 0.0 <= m[i + 1]:
                return _root(model, ends[i], ends[i + 1], m[i], m[i + 1], 1e-12)[0]
        return t

    def at_jensen_end(v: float):
        # quadrature noise can put the root at or below t_lo when f is (near)
        # constant and lo is already the answer
        if v < -1e-8:
            raise ConvergenceFailureError(f"log modular {v!r} at the Jensen bound l = {lo!r}; its integral is off", best_estimate=lo, error_bound=abs(v))
        return lo

    tol = 1e-12 + 8.9e-16 * max(abs(t_lo), abs(t_k))
    # log I >= 0 at a (v_a once integrated), log I = v_b < 0 at b
    a, v_a, b, v_b = t_lo, None, t_k, t_lo - t_k
    for _round in range(_MODEL_ROUNDS):
        m_a, m_b = model(np.array([a, b]))
        if v_a is None and m_a <= 0.0:
            t = a  # the model puts the root at the Jensen end
        elif m_a > 0.0 > m_b:
            t, _m = _root(model, b, a, m_b, m_a, 1e-12)
            if _round == 0:
                t = resolved(t)
            if t == b or (t == a and v_a is not None):
                break
        else:
            break
        v = log_i(t)
        if t == t_lo and v <= 0.0:
            return at_jensen_end(v)
        if abs(v) <= tol:
            return math.exp(t)
        if v > 0.0:
            a, v_a = t, v
        else:
            b, v_b = t, v
    # no exact log I > 0 yet: step down from b, doubling the step, and never
    # integrate at the Jensen end, where |f| / l is largest, unless a step
    # reaches it; d log I / dt <= -1 puts log I(b - d) >= v_b + d
    step = -v_b
    while v_a is None:
        t = max(b - step, t_lo)
        v = log_i(t)
        if v > 0.0:
            a, v_a = t, v
        elif t == t_lo:
            return at_jensen_end(v)
        else:
            b, v_b, step = t, v, 2.0 * step
    t_star, residual = _root(lambda ts: np.array([log_i(float(ts[0]))]), b, a, v_b, v_a, 1e-12)
    value = math.exp(t_star)
    if not abs(residual) <= 1e-8:
        raise ConvergenceFailureError(f"Luxemburg root l = {value!r} leaves the log modular at {residual!r}", best_estimate=value, error_bound=abs(residual))
    return value


# ---------------------------------------------------------------------------
# sup-over-p scans


@dataclass
class ScanResult:
    """A scan's certified value and maximizer, the grid extensions it took,
    and ``p_cap``: the largest grid p it evaluated when sup|f| capped the
    grid below its top, None when nothing was capped (or the norm has no p
    scan).  A scan whose cached-node and exact values differ by more than
    1e-6 relative raises instead of returning one."""

    value: float
    p_star: float | None
    extensions: int
    p_cap: float | None = None


# a row is capped when its bound by sup|f| falls short of the floor (the
# exact ratio at p_lo, or the best grid ratio once the grid extends) by 1e-9
# and some ulps of |log sup|f|| + |the floor|, for rounding, which 1e-9
# alone falls below past a log scale of about 1e7, and this many rel_tol:
# the cached-node and the exact log norm each sit within about
# rel_tol / beta of the true one, beta = beta(p_lo) the power of the
# norm's root (beta >= 0.8 but for the v-scan at r > 1, where
# beta = 4 / (4 r + 1)), and an adaptive integral's error can exceed its
# estimate
_P_MARGIN = 1e-9
_P_MARGIN_ULPS = 16
_CAP_REL_TOLS = 1000.0
# a scan whose top row still wins extends its grid fourfold while the top
# lies below this p (2^24, about 1.7e7), and raises past it: the evaluator's
# nodes and its rows-by-nodes query grow fast beyond (x^30 takes 1,632 nodes
# at a top of 2^22, 9,312 at 2^24 and 31,136 at 2^26, and a scan of it to
# 2^28 peaks at 1.5 GB)
_P_CEILING = 2.0**24


def _g_scan(f, phi: PhiSpec, cfg: QuadratureConfig, cache: ConjugateCache | None, p_lo: float, r: float = 0.0) -> ScanResult:
    """sup over grid p >= p_lo of ||f||_beta / psi(p), beta = p / (p r + 1):
    the g-norm family at r = 0 (beta = p exactly), the v-quasinorm at r >= 1.

    A cache passed in must be phi's and start at p_lo, where h* must be
    finite (``ConjugateCache.check_start``); a copy of it takes the
    fourfold grid extensions.
    Each pass asks one ``PowerNormEvaluator`` for the cached-node log norm
    of every row that can win; an L_p member that the adaptive integrator
    cannot settle raises its ConvergenceFailureError: past the growth check
    below, every scanned norm is finite, so that is a budget run out.

    sup|f| caps the grid: every scanned norm is at most sup|f| (power means
    are bounded by the sup norm), so log sup|f| - psi_log(p) bounds the log
    ratio at p, and a row whose bound falls short of the floor L, a lower
    bound on the best ratio, by the margin (rounding, and _CAP_REL_TOLS
    rel_tol for the cached-node error) cannot win.  Such rows read -inf, and
    the evaluator is built up to the grid point after the last row that can
    win, so that the polish bracket stays inside its panels.  L is first the
    exact ratio at p_lo, the scan's exact result when the winner stays
    there.  The cap is the scan's one stopping rule: while nothing caps the
    grid and the winner sits at its top, L rises to the best grid ratio and
    the grid extends.  psi_log(p) = sup_y (y - h(y) / p) grows without
    bound, so for a bounded f the cap falls below the top.  An unbounded f
    (log sup|f| = +inf) caps nothing, and the evaluator adds its singular
    end's rest; a grid whose top reaches _P_CEILING raises
    ConvergenceFailureError, a budget too: the supremum there is at most
    sup|f| / psi(p_lo), or ||f||_(1/r) / psi(p_lo) for a singular end with
    q < r.  Before any row, an f whose log|f| grows at rate q in
    -log(distance) at a singular end, the power that f states
    (``_NodeStore.q``), raises ScanDivergenceError when q > r:
    ||f||_beta is infinite from beta = 1 / q on, and beta, which rises to
    1 / r, reaches it.  At q = r it raises too: ||f||_beta is finite for
    every beta < 1 / r but grows without bound as beta rises to it, as
    2^-q (p q + 1)^(q + 1/p) for (1 - x)^-q, which no grid certifies.

    The grid winner p_k is polished by a root of minus the log ratio's
    slope, times p, along y: p = h'(y) and h*(p) = p y - h(y) (the
    Fenchel-Young equality), so the slope is h(y) / p - p d log_norm / dp
    and no conjugate is solved.  The bracket is [y*(p_(k-1)), y*(p_(k+1))]
    from the cache, clamped to the grid; where the conjugate diverges at
    p_(k+1), its upper end steps up from y*(p_k), doubling, until the ratio
    falls.  The root is taken to 1e-11 in log p, at the end of smaller
    residual, and only when the slope rises at the lower end and falls at
    the upper: a winner at p_lo whose ratio does not rise off the edge, and
    a log ratio of -inf (f = 0), keep their grid value.  The result is the
    exact norm at p over the weight there.  It is certified when the
    cached-node value agrees with it to 1e-6 relative; otherwise the scan
    raises ConvergenceFailureError with the exact value as its
    ``best_estimate`` and the relative gap as its ``error_bound``.  On a
    table p lands on a kink of h*, a chord slope, where a tabulated ratio
    peaks.
    """
    cache = cache if cache is not None else ConjugateCache(phi, p_lo=p_lo)
    cache.check_start(phi, p_lo)
    nodes = _abs_nodes(f)
    # ||f||_beta is infinite from beta = 1 / q on, q the growth of log|f| at
    # a singular end, and grows without bound as beta rises to it; beta
    # rises to 1 / r (without bound at r = 0)
    q = nodes.q or 0.0
    if q > 0.0 and q >= r:
        reach = f"is infinite from beta = 1/q = {1.0 / q:g} on" if q > r else "grows without bound as beta rises to 1/q = 1/r"
        raise ScanDivergenceError(
            f"f is unbounded: ||f||_beta {reach} "
            f"(q = {q:g}, the growth of log|f| in -log(distance) at its singular end), "
            f"and the scan against {phi.label} reaches it"
        )
    # +inf at a singular end, where nothing is capped
    with np.errstate(divide="ignore"):
        log_sup = float(np.log(np.max(_break_values(f, bounded=False)[1])))

    def beta(p):
        return p / (p * r + 1.0)

    def slope(p):
        # d log ||f||_beta / d beta = (E_pi[log|f|] - log ||f||_beta) / beta,
        # and d beta / dp = 1 / (p r + 1)^2
        e = beta(p)
        log_norm, mean_log_f = ev.log_norm(e, moment=True)
        return (mean_log_f - log_norm) / e / (p * r + 1.0) ** 2

    def falls(ys):
        """minus the slope of the log ratio in p, times p, at p = h'(y)."""
        p = phi.dh(ys)
        return phi.h(ys) / p - p * slope(p)

    def falls_at(i):
        """falls at y*(p_i), from the cache."""
        p = grid[i : i + 1]
        return float((cache.ystar[i] - cache.psi_log_grid[i]) - p[0] * slope(p)[0])

    p_0 = float(cache.grid[0])
    # the floor L: -inf, and no row capped, where sup|f| is infinite or 0
    exact_0 = _power_norm(nodes, beta(p_0), beta(p_0), cfg) if math.isfinite(log_sup) else None
    floor = math.log(exact_0) - float(cache.psi_log_grid[0]) if exact_0 else -math.inf
    extensions = 0
    while True:
        grid, psi_log = cache.grid, cache.psi_log_grid
        margin = _P_MARGIN + _P_MARGIN_ULPS * np.spacing(abs(log_sup) + abs(floor)) + _CAP_REL_TOLS * cfg.rel_tol if math.isfinite(floor) else 0.0
        # the last row whose bound reaches the floor, and the grid point after it
        last = int(np.max(np.flatnonzero(~(log_sup - psi_log < floor - margin)), initial=0))
        top = min(last + 1, grid.size - 1)
        lo, hi = beta(p_lo), beta(float(grid[top]))
        # beta = p spans decades, beta < 1 / r does not
        ev = PowerNormEvaluator(nodes, cfg, yardsticks=(lo, math.sqrt(lo * hi) if r == 0.0 else 0.5 * (lo + hi), hi))
        vals = np.full(grid.size, -math.inf)
        vals[: last + 1] = ev.log_norm(beta(grid[: last + 1])) - psi_log[: last + 1]
        k = int(np.nanargmax(vals))
        capped = last < grid.size - 1
        if capped or k < grid.size - 2 or not math.isfinite(vals[k]):
            break
        if cache.p_hi >= _P_CEILING:
            raise ConvergenceFailureError(f"the scan against {phi.label} still rises at p = {_P_CEILING:g}, the top of its last grid extension: psi grows too slowly for sup|f| to cap it", best_estimate=math.exp(vals[k]))
        # the best grid ratio is a lower bound too, within the margin
        floor = max(floor, float(vals[k]))
        cache = copy.copy(cache)
        cache.extend()
        extensions += 1

    best_log, p_star, weight = float(vals[k]), float(grid[k]), float(cache.psi_log_grid[k])
    i, j = max(k - 1, 0), k + 1
    a, b = float(cache.ystar[i]), float(cache.ystar[j])
    # polish only a ratio that rises at a and falls at b
    g_a = falls_at(i) if math.isfinite(best_log) else math.nan
    g_b = math.nan
    if g_a < 0.0 and math.isfinite(b):
        g_b = falls_at(j)
    elif g_a < 0.0:
        b, step = float(cache.ystar[k]), 1.0
        while not g_b >= 0.0 and abs(b) <= _Y_CAP:
            b, step = b + step, 2.0 * step
            g_b = float(falls(np.array([b]))[0])
    if g_b >= 0.0:
        ytol = 1e-11 * (b - a) / math.log(grid[j] / grid[i])
        y, _g = _root(falls, a, b, g_a, g_b, ytol)
        p = float(phi.dh(np.array([y]))[0])
        at_p = y - float(phi.h(np.array([y]))[0]) / p
        fast = float(ev.log_norm(beta(np.array([p])))[0]) - at_p
        if fast > best_log:
            best_log, p_star, weight = fast, p, at_p
    exact = _power_norm(nodes, beta(p_star), beta(p_star), cfg)
    value = exact * math.exp(-weight)
    fast = math.exp(best_log)
    scale = max(value, fast, 1e-300)
    if not abs(value - fast) <= 1e-6 * scale:
        gap = abs(value - fast) / scale
        raise ConvergenceFailureError(
            f"the scan against {phi.label} is not certified at p_star = {p_star!r}: "
            f"the exact ratio {value!r} and the cached-node ratio {fast!r} differ by {gap:.3g} relative",
            best_estimate=value,
            error_bound=gap,
        )
    return ScanResult(value, p_star, extensions, float(grid[last]) if capped else None)


def g_norm(f, phi: PhiSpec, cfg: QuadratureConfig = DEFAULT_CONFIG, cache: ConjugateCache | None = None) -> float:
    """sup over p >= 1 of ||f||_p / psi(p), certified to 1e-6 relative
    between the cached-node and the exact ratio, or ConvergenceFailureError
    (see ``_g_scan``)."""
    return _g_scan(f, phi, cfg, cache, p_lo=1.0).value


def g_norm_info(f, phi: PhiSpec, cfg: QuadratureConfig = DEFAULT_CONFIG, cache: ConjugateCache | None = None) -> ScanResult:
    return _g_scan(f, phi, cfg, cache, p_lo=1.0)


def sup_ratio_from(f, phi: PhiSpec, p_lo: float, cfg: QuadratureConfig = DEFAULT_CONFIG, cache: ConjugateCache | None = None) -> float:
    """sup over p >= p_lo of ||f||_p / psi(p); used by comparison checks.

    A cache passed in must start at p_lo; by default one is built there.
    Like ``g_norm``, it returns a certified value or raises
    ConvergenceFailureError.
    """
    return _g_scan(f, phi, cfg, cache, p_lo=p_lo).value


# the v-quasinorm's scan starts at p = 4
V_SCAN_P_LO = 4.0


def v_quasinorm(f, phi: PhiSpec, r: float, cfg: QuadratureConfig = DEFAULT_CONFIG, cache: ConjugateCache | None = None) -> float:
    """Derivative-weighted quasinorm: sup over shrinking exponents.

    Parametrized by p in [4, inf): the integrability exponent is
    beta = p / (p r + 1), which sweeps (4/(4r+1), 1/r), and the ratio
    ||f||_beta / psi(p) is maximized over the standard grid.  Like
    ``g_norm``, it returns a certified value or raises
    ConvergenceFailureError.
    """
    return v_quasinorm_info(f, phi, r, cfg, cache).value


def _check_v_order(r: float) -> None:
    """RejectedInputError unless 1 <= r < inf: the range of ``v_quasinorm``
    and of ``vnorm_spec``."""
    if not (1.0 <= r < math.inf):
        raise RejectedInputError(f"derivative order r must be at least 1 and finite, got {r!r}")


def v_quasinorm_info(f, phi: PhiSpec, r: float, cfg: QuadratureConfig = DEFAULT_CONFIG, cache: ConjugateCache | None = None) -> ScanResult:
    _check_v_order(r)
    return _g_scan(f, phi, cfg, cache, p_lo=V_SCAN_P_LO, r=r)


# ---------------------------------------------------------------------------
# Lorentz norms


def _level_map(sampler: LevelSampler):
    """The critical-value intervals of T laid end to end, s in [0, K].

    Unit interval i of s covers [a, c] = [levels[i], levels[i + 1]] through
    w = a + (c - a) sin^2(pi (s - i) / 2), which turns the square-root
    behaviour of T at a simple extremum of |f| into a smooth function of s.
    Returns K and at(s) = (w, dw/ds, log T(w)); at(s, slope=True) appends
    d log T / dw, taken at a w held strictly inside the interval, where T is
    smooth: above a, and below the smallest value merged into c, so that the
    pieces of |f| that end at c see w below their ends however they round.
    """
    levels = sampler.critical_values
    if not math.isfinite(levels[-1]):
        raise DomainEvaluationError("function is unbounded; its Lorentz norms need a finite sup")
    lo, hi, width = levels[:-1], sampler.critical_floors[1:], np.diff(levels)

    def at(s, slope=False):
        i = np.minimum(s.astype(np.intp), lo.size - 1)
        theta = 0.5 * math.pi * (s - i)
        w = lo[i] + width[i] * np.sin(theta) ** 2
        dw = 0.5 * math.pi * width[i] * np.sin(2.0 * theta)
        with np.errstate(divide="ignore", invalid="ignore"):
            if not slope:
                return w, dw, np.log(sampler.measure_above_batch(w))
            w = np.clip(w, np.nextafter(lo[i], math.inf), np.nextafter(hi[i], 0.0))
            t, dt = sampler.measure_above_batch(w, slope=True)
            return w, dw, np.log(t), dt / t

    return lo.size, at


def _level_nodes(sampler: LevelSampler, b: float) -> _NodeStore:
    """A node store of log T on the level map of the sampler, s in [0, K],
    weighted by the layer-cake measure b w^(b-1) dw/ds, so that its integral
    of T^(p/b) is ||f||_(p,b)^b; each critical interval (a unit interval of
    s) starts as _INITIAL_PANELS panels, as a whole domain does elsewhere
    (one panel an interval leaves the layer cake of a gap function off by
    far more than its estimate).  The weight is summed in log space, so it
    holds for every scale of f, where w^(b-1) alone over- or underflows, and
    w^(b-1) is 1 at b = 1 even where w underflows to 0."""
    k, at = _level_map(sampler)

    def values(s):
        w, dw, log_t = at(s)
        with np.errstate(divide="ignore"):
            return log_t, math.log(b) + (0.0 if b == 1.0 else (b - 1.0) * np.log(w)) + np.log(dw)

    return _NodeStore(values, np.arange(_INITIAL_PANELS * k + 1) / _INITIAL_PANELS)


# probes per critical interval of the weak form, and the width in s to which
# its roots are solved and by which its brackets keep off an interval's ends
_WEAK_PROBES = 16
_WEAK_TOL = 1e-8


def _lorentz_sup(sampler: LevelSampler, exponent) -> float:
    """max of h = w e^E(w), lane-wise, one lane per critical interval, with
    E and dE/dw = ``exponent(log T, d log T / dw)``: log T / p and its slope
    for the weak form ||f||_(p,inf).  Each interval is probed at a few
    points of s first.  The maximum near the best probe is a root in s of
    g = -d log h / ds = -(dw/ds) (1 / w + dE/dw), which stays finite where
    T' is singular at an end of the interval; there dw/ds = 0, so every
    point keeps _WEAK_TOL off the ends.  A lane holds u, where h rises
    towards d and is no lower than at d: first the best probe and its
    neighbour on the side where h rises.  A point x between them whose g
    has the other sign closes a bracket [u, x]; otherwise x replaces u where
    h is no lower there and d where it is, so a bend of T between two probes
    cannot hide the maximum.  ``_bracketed_root`` collapses the brackets,
    each step one batch of crossing solves giving T and T' together.  The
    result is the largest h at any point evaluated, the probes at the
    critical levels among them.
    """
    k, at = _level_map(sampler)
    rows = np.arange(k)
    s = rows[:, None] + np.linspace(0.0, 1.0, _WEAK_PROBES + 1)[None, :]
    w, _dw, log_t = at(s.ravel())
    vals = (w * np.exp(exponent(log_t, 0.0)[0])).reshape(s.shape)
    best = [float(np.max(vals))]

    def probe(x):
        """(g, h) at each x of the array; h joins the candidates."""
        w, dw, log_t, dlog_t = at(x, slope=True)
        e, de = exponent(log_t, dlog_t)
        h = w * np.exp(e)
        best.append(float(np.max(h)))
        return -dw * (1.0 / w + de), h

    def inside(x):
        return np.clip(x, rows + _WEAK_TOL, rows + (1.0 - _WEAK_TOL))

    j = np.argmax(vals, axis=1)
    u = inside(s[rows, j])
    g_u, h_u = probe(u)
    d = inside(s[rows, np.clip(np.where(g_u < 0.0, j + 1, j - 1), 0, _WEAK_PROBES)])
    live = (g_u != 0.0) & (u != d)
    u, d, g_u, h_u = u[live], d[live], g_u[live], h_u[live]
    x, brackets = d, []
    while u.size:
        g_x, h_x = probe(x)
        # a sign change closes [u, x]: its end of negative g first
        cross, neg = g_x * g_u < 0.0, g_u < 0.0
        ends = np.where(neg, u, x), np.where(neg, x, u), np.minimum(g_u, g_x), np.maximum(g_u, g_x)
        brackets.append([v[cross] for v in ends])
        rise = h_x >= h_u
        u, g_u, h_u, d = np.where(rise, x, u), np.where(rise, g_x, g_u), np.where(rise, h_x, h_u), np.where(rise, d, x)
        keep = ~cross & (g_x != 0.0) & (np.abs(u - d) > _WEAK_TOL)
        u, d, g_u, h_u = u[keep], d[keep], g_u[keep], h_u[keep]
        x = 0.5 * (u + d)
    if brackets:
        _bracketed_root(lambda x, _lanes: probe(x)[0], *(np.concatenate(v) for v in zip(*brackets)), _WEAK_TOL)
    return max(best)


def _check_lorentz_indices(p: float, b: float) -> None:
    """RejectedInputError unless 1 <= p < inf and b >= 1: the range of
    ``lorentz_norm`` and of ``lorentz_spec``."""
    if not (1.0 <= p < math.inf):
        raise RejectedInputError(f"first index must be at least 1 and finite, got {p!r}")
    if not (b >= 1.0):
        raise RejectedInputError("second index must be at least 1 (or inf)")


def lorentz_norm(f, p: float, b: float, cfg: QuadratureConfig = DEFAULT_CONFIG) -> float:
    """Two-parameter distribution norm of f, from T(w) = mu{|f| > w}.

    For finite b it is (b * integral over w > 0 of w^(b-1) T(w)^(p/b) dw)^(1/b),
    the layer cake of |f|^p at b = p, so ||f||_(p,p) = ||f||_p and a constant
    c has norm |c| for every p and b.  As b grows this tends to sup |f|, not
    to the weak form.  b = math.inf gives the weak form sup_w w T(w)^(1/p).
    """
    _check_lorentz_indices(p, b)
    s = LevelSampler(f)
    if s.sup_estimate == 0.0:
        return 0.0
    return _lorentz_sup(s, lambda log_t, dlog_t: (log_t / p, dlog_t / p)) if math.isinf(b) else _power_norm(_level_nodes(s, b), p / b, b, cfg)


def _dual_weight(phi: PhiSpec, cache: ConjugateCache):
    """``_lorentz_sup``'s exponent for the weighted weak norm: -Y(x) and its
    slope Y'(x) dlog_t at x = -log_t, Y(x) = inf over p >= 1 of (x + h*(p)) / p.
    As h = h** (Fenchel-Moreau), Y = x + h*(1) up to x = h(y*(1)) and the
    inverse of h beyond, with Y' = 1 / h'(Y); y*(1) and h*(1) come from the
    first point of ``cache``, at p = 1.  The inverse is one
    lane-wise ``_bracketed_root`` of log h(y) - log x, linear in y for z^m,
    in [y*(1), y*(1) + x - h(y*(1))] (h' >= 1 right of y*(1), h convex),
    collapsed to four ulps of its larger end.
    """
    y1, hstar1 = float(cache.ystar[0]), float(cache.hstar[0])
    h1 = float(phi.h(y1))
    log_h1 = float(np.log(h1)) if h1 > 0.0 else -math.inf  # 0 at a table's clamp

    def exponent(log_t, dlog_t):
        x = -log_t
        y, dy = x + hstar1, np.ones_like(x)
        up = np.flatnonzero((x > h1) & (x < math.inf))  # x = inf where T = 0
        if up.size:
            hi, log_x = y1 + (x[up] - h1), np.log(x[up])
            # h(hi) >= x by convexity, up to its rounding
            g_hi = np.maximum(np.log(phi.h(hi)) - log_x, 0.0)
            tol = 4.0 * np.spacing(np.maximum(abs(y1), np.abs(hi)))
            x_neg, x_pos, g_neg, g_pos = _bracketed_root(lambda ys, lanes: np.log(phi.h(ys)) - log_x[lanes], np.full(up.size, y1), hi, log_h1 - log_x, g_hi, tol)
            y[up] = np.where(-g_neg < g_pos, x_neg, x_pos)
            dy[up] = 1.0 / phi.dh(y[up])
        return -y, dy * dlog_t

    return exponent


def weighted_lorentz_g(f, phi: PhiSpec, b: float, cfg: QuadratureConfig = DEFAULT_CONFIG, cache: ConjugateCache | None = None) -> float:
    """sup over p >= 1 of ||f||_{p,b} / psi(p).

    At finite b the supremum is the ratio at p = 1, ``lorentz_norm`` at
    p = 1 over psi(1), one exact layer cake:
    ||f||_(p,b) does not rise with p, as T <= 1, and psi does not fall from
    p = 1 on, which ``ConjugateCache.psi_log_floor`` checks.  At b = inf,
    where the suprema over p and w exchange, it is one maximization of the
    weak form (``_dual_weight``), the supremum over every real p >= 1.
    Both read the cache at p = 1, after that check.
    """
    _check_lorentz_indices(1.0, b)
    c = cache if cache is not None else ConjugateCache(phi)
    psi_log_1 = c.psi_log_floor(phi)
    if not math.isinf(b):
        return lorentz_norm(f, 1.0, b, cfg) * math.exp(-psi_log_1)
    sampler = LevelSampler(f)
    if sampler.sup_estimate == 0.0:
        return 0.0
    return _lorentz_sup(sampler, _dual_weight(phi, c))


# ---------------------------------------------------------------------------
# equivalence constants


@dataclass(frozen=True)
class EquivalenceConstants:
    """Computable constants for the two-sided Orlicz / sup-ratio comparison.

    ``g_over_b`` bounds the sup-ratio norm by the Orlicz norm;
    ``b_over_g_log`` is the log of the reverse bound, kept in log form
    because it can exceed float range for fast-growing phi.  The alternate
    series shifts the gap index by one; both sums, certified by
    ``conjugate.gap_series`` or SummabilityError, are reported.
    """

    g_over_b: float
    b_over_g_log: float
    b_over_g_alt_log: float
    split_index: float
    series_sum: float
    series_sum_alt: float


def equivalence_constants(n: OrliczN) -> EquivalenceConstants:
    phi = n.phi
    split = n.split_index
    k_start = math.ceil(split - 1e-12)
    sums = [gap_series(phi, k0) for k0 in (k_start, k_start - 1)]
    for _partial, tail, detail in sums:
        if tail == math.inf:
            raise SummabilityError(f"gap series for {phi.label} {detail}")
    series, series_alt = (partial + tail for partial, tail, _detail in sums)
    head_log = float(n.n_log_from_log_u(np.array([split - 2.0]))[0])
    b_over_g_log, b_over_g_alt_log = (
        float(2.0 + np.logaddexp(head_log, math.log(s) if s > 0 else -math.inf)) for s in (series, series_alt)
    )
    return EquivalenceConstants(
        g_over_b=n.g_over_b,
        b_over_g_log=b_over_g_log,
        b_over_g_alt_log=b_over_g_alt_log,
        split_index=split,
        series_sum=series,
        series_sum_alt=series_alt,
    )


# ---------------------------------------------------------------------------
# norm dispatch for the harness and CLI


# the kinds of NormSpec, one spec builder each below
NORM_KINDS = ("lp", "orlicz", "gnorm", "lorentz", "vnorm")


@dataclass(frozen=True)
class NormSpec:
    """Tagged selection of a norm, of one of the NORM_KINDS.  It checks
    itself when built: an unknown kind, a missing phi for the kinds that
    take one, or an index outside the range of the norm it selects (that
    norm's own check and message) raises RejectedInputError."""

    kind: str
    p: float = math.nan
    b: float = math.nan
    r: float = math.nan
    phi: PhiSpec | None = None

    def __post_init__(self):
        if self.kind not in NORM_KINDS:
            raise RejectedInputError(f"unknown norm kind {self.kind!r}; expected one of {NORM_KINDS}")
        if self.kind in ("orlicz", "gnorm", "vnorm") and not isinstance(self.phi, PhiSpec):
            raise RejectedInputError(f"the {self.kind} norm needs a phi, got {self.phi!r}")
        if self.kind == "lp":
            _check_lp_exponent(self.p)
        elif self.kind == "lorentz":
            _check_lorentz_indices(self.p, self.b)
        elif self.kind == "vnorm":
            _check_v_order(self.r)

    @property
    def label(self) -> str:
        if self.kind == "lp":
            return f"lp(p={self.p:g})"
        if self.kind == "orlicz":
            return f"orlicz({self.phi.label})"
        if self.kind == "gnorm":
            return f"gnorm({self.phi.label})"
        if self.kind == "lorentz":
            return f"lorentz(p={self.p:g},b={self.b:g})"
        return f"vnorm({self.phi.label},r={self.r:g})"


def lp_spec(p: float) -> NormSpec:
    """Selects ``lp_quasinorm``."""
    return NormSpec("lp", p=float(p))


def orlicz_spec(phi: PhiSpec) -> NormSpec:
    return NormSpec("orlicz", phi=phi)


def gnorm_spec(phi: PhiSpec) -> NormSpec:
    return NormSpec("gnorm", phi=phi)


def lorentz_spec(p: float, b: float) -> NormSpec:
    """Selects ``lorentz_norm``."""
    return NormSpec("lorentz", p=float(p), b=float(b))


def vnorm_spec(phi: PhiSpec, r: float) -> NormSpec:
    """Selects ``v_quasinorm``."""
    return NormSpec("vnorm", phi=phi, r=float(r))


class NormContext:
    """Caches the spliced Orlicz functions and conjugate grids per phi."""

    def __init__(self, cfg: QuadratureConfig = DEFAULT_CONFIG):
        self.cfg = cfg
        self._n: dict[PhiSpec, OrliczN] = {}
        self._cache: dict[tuple[PhiSpec, float], ConjugateCache] = {}

    def orlicz(self, phi: PhiSpec) -> OrliczN:
        if phi not in self._n:
            self._n[phi] = construct_N(phi)
        return self._n[phi]

    def conjugates(self, phi: PhiSpec, p_lo: float = 1.0) -> ConjugateCache:
        key = (phi, p_lo)
        if key not in self._cache:
            self._cache[key] = ConjugateCache(phi, p_lo=p_lo)
        return self._cache[key]


def evaluate_norm_info(f, spec: NormSpec, ctx: NormContext | None = None) -> ScanResult:
    """The norm ``spec`` selects; kinds without a p scan report p_star None."""
    context = ctx if ctx is not None else NormContext()
    cfg = context.cfg
    if spec.kind == "gnorm":
        return g_norm_info(f, spec.phi, cfg, cache=context.conjugates(spec.phi))
    if spec.kind == "vnorm":
        return v_quasinorm_info(f, spec.phi, spec.r, cfg, cache=context.conjugates(spec.phi, p_lo=V_SCAN_P_LO))
    if spec.kind == "lp":
        value = lp_quasinorm(f, spec.p, cfg=cfg)
    elif spec.kind == "orlicz":
        value = luxemburg_norm(f, context.orlicz(spec.phi), cfg)
    else:
        value = lorentz_norm(f, spec.p, spec.b, cfg)
    return ScanResult(value, None, 0)


def evaluate_norm(f, spec: NormSpec, ctx: NormContext | None = None) -> float:
    return evaluate_norm_info(f, spec, ctx).value
