"""Orlicz, Grand Lebesgue, Lorentz and derivative-weighted quasinorms.

The central object is a spliced Orlicz function built from a growth function
phi: linear with slope ``linear_slope`` up to the knee ``splice_point`` and
exp(phi(u)) beyond it.  The knee solves u * phi'(u) = 1, which makes the two
branches tangent, so the spliced function is convex and C1.

Three norm families ride on top:

* ``luxemburg_norm``: inf of l > 0 with integral of N(|f|/l) at most one,
  solved as a root problem in log l with a Jensen-derived bracket.
* ``g_norm`` / ``v_quasinorm`` / ``weighted_lorentz_g``: suprema over an
  exponent grid of ||f||_p, ||f||_beta(p) or a Lorentz norm divided by the
  conjugate weight psi(p), all computed by the one engine ``_sup_over_p``.
  The two L_p scans share one body, ``_g_scan``, with the exponent map
  p -> p / (p r + 1) (r = 0 for the g-norm); an L_p member the adaptive
  integrator cannot settle makes either scan raise ``ScanDivergenceError``.
  Grids are geometric with 64 points per decade and start at the scan's
  lower exponent p_lo; a maximizer at the right edge triggers two fourfold
  extensions before the scan is declared divergent.  The winning grid point
  is polished by golden section, unless it is p_lo and the ratio does not
  rise off that edge, and re-validated with the exact norm and an exact
  weight.
* ``lorentz_norm``: distribution-function based two-parameter norms,
  including the sup form at the second index equal to infinity.  Both work
  on the intervals between consecutive critical values of |f|, where T is
  smooth: the layer-cake integral starts with panels inside each, and the
  sup form is maximized on each.

``evaluate_norm_info`` is the one dispatch from a ``NormSpec`` to these
norms, for the harness and the command line alike.

The knee and the Luxemburg root are found by ``_brentq``, a step-for-step
port of scipy's C ``brentq``: same bits, same tolerances, and no scipy
import at run time.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .conjugate import ConjugateCache, PhiSpec, psi_log as _psi_log_exact, young_fenchel, young_fenchel_or_inf
from .errors import (
    ConstructionError,
    ConvergenceFailureError,
    DomainEvaluationError,
    LuxemburgBracketError,
    RejectedInputError,
    ScanDivergenceError,
    SummabilityError,
)
from .quadrature import (
    DEFAULT_CONFIG,
    Domain,
    LevelSampler,
    PowerNormEvaluator,
    QuadratureConfig,
    _logsumexp,
    break_points_of,
    composite_nodes,
    integrate_log,
    log_abs_of,
    lp_quasinorm,
    panel_edges,
    sup_norm,
)

_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0
# probe step in log p off the left edge of a scan, close to sqrt(eps)
_EDGE_STEP = 1e-8


def _brentq(f, a: float, b: float, xtol: float, rtol: float, maxiter: int = 100) -> float:
    """Root of f in the bracket [a, b] by Brent's method.

    A step-for-step port of scipy's C ``brentq`` (``Zeros/brentq.c``), so
    it returns the same bits for the same f, bracket and tolerances.  A
    solve that does not converge raises ``ConvergenceFailureError`` with the
    last iterate, a NaN value of f raises ``DomainEvaluationError`` at its
    abscissa, and a bracket without a sign change raises
    ``RejectedInputError``.
    """

    def value(x):
        fx = float(f(x))
        if math.isnan(fx):
            raise DomainEvaluationError(f"root solve: f is NaN at x = {x!r}", abscissa=x)
        return fx

    xpre, xcur = float(a), float(b)
    xblk = fblk = spre = scur = 0.0
    fpre, fcur = value(xpre), value(xcur)
    if fpre == 0.0:
        return xpre
    if fcur == 0.0:
        return xcur
    if math.copysign(1.0, fpre) == math.copysign(1.0, fcur):
        raise RejectedInputError(
            f"root solve: f({xpre!r}) = {fpre!r} and f({xcur!r}) = {fcur!r} have the same sign"
        )
    for _ in range(maxiter):
        if fpre != 0.0 and fcur != 0.0 and math.copysign(1.0, fpre) != math.copysign(1.0, fcur):
            xblk, fblk = xpre, fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur

        delta = (xtol + rtol * abs(xcur)) / 2
        sbis = (xblk - xcur) / 2
        if fcur == 0.0 or abs(sbis) < delta:
            return xcur

        if abs(spre) > delta and abs(fcur) < abs(fpre):
            if xpre == xblk:
                # interpolate
                stry = -fcur * (xcur - xpre) / (fcur - fpre)
            else:
                # extrapolate
                dpre = (fpre - fcur) / (xpre - xcur)
                dblk = (fblk - fcur) / (xblk - xcur)
                stry = -fcur * (fblk * dblk - fpre * dpre) / (dblk * dpre * (fblk - fpre))
            # C's MIN(abs(spre), limit), which unlike min() takes the second
            # operand when the first is NaN
            limit = 3 * abs(sbis) - delta
            if abs(spre) < limit:
                limit = abs(spre)
            if 2 * abs(stry) < limit:
                # good short step
                spre, scur = scur, stry
            else:
                spre = scur = sbis
        else:
            spre = scur = sbis

        xpre, fpre = xcur, fcur
        if abs(scur) > delta:
            xcur += scur
        else:
            xcur += delta if sbis > 0 else -delta
        fcur = value(xcur)
    raise ConvergenceFailureError(
        f"root solve did not converge within {maxiter} iterations", best_estimate=xcur
    )


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

    def n_log_from_log_u(self, log_u):
        """log N(u) given log u; stable for |log u| far beyond float overflow."""
        lu = np.asarray(log_u, dtype=float)
        with np.errstate(invalid="ignore", over="ignore"):
            linear = self.log_slope + lu
            upper = self.phi.h(lu)
        return np.where(lu <= self.log_splice, linear, upper)

    def n_eval(self, u):
        """N(u) for u >= 0; may overflow to inf for very large arguments."""
        us = np.asarray(u, dtype=float)
        if np.any(us < 0.0):
            raise ValueError("argument must be nonnegative")
        with np.errstate(divide="ignore", over="ignore"):
            out = np.exp(self.n_log_from_log_u(np.log(us)))
        return np.where(us == 0.0, 0.0, out)


def construct_N(phi: PhiSpec) -> OrliczN:
    """Find the tangency knee and slope for the spliced Orlicz function.

    The knee is the smallest root of u * phi'(u) = 1 in [1e-3, 1e3]; the
    slope exp(phi(knee)) / knee then matches value and derivative of the
    exponential branch at the knee, making the splice convex.
    """
    us = np.geomspace(1e-3, 1e3, 2401)
    g = us * phi.dphi(us) - 1.0
    good = np.isfinite(g)
    us, g = us[good], g[good]
    idx = None
    for i in range(len(us) - 1):
        if g[i] == 0.0:
            idx = (i, i)
            break
        if g[i] < 0.0 < g[i + 1]:
            idx = (i, i + 1)
            break
    if idx is None:
        raise ConstructionError(
            f"no knee for {phi.label} in [0.001, 1000]: "
            "u * phi'(u) - 1 never crosses zero"
        )
    if idx[0] == idx[1]:
        knee = float(us[idx[0]])
    else:
        knee = _brentq(
            lambda u: float(u * phi.dphi(np.array([u]))[0] - 1.0),
            us[idx[0]],
            us[idx[1]],
            xtol=1e-15,
            rtol=8.9e-16,
        )
    phi_at = float(phi.phi(np.array([knee]))[0])
    slope = math.exp(phi_at) / knee
    tangent = float(phi.dphi(np.array([knee]))[0]) * math.exp(phi_at)
    if not math.isfinite(slope) or slope <= 0.0:
        raise ConstructionError(f"degenerate slope at knee for {phi.label}")
    if abs(knee * float(phi.dphi(np.array([knee]))[0]) - 1.0) > 1e-6:
        raise ConstructionError(f"knee residual too large for {phi.label}")
    if slope > tangent * (1.0 + 1e-9):
        raise ConstructionError(
            f"spliced function for {phi.label} would be non-convex at the knee"
        )
    n = OrliczN(phi, knee, slope)
    # monotonicity spot check across both branches
    sample = np.geomspace(max(knee * 1e-3, 1e-12), knee * 1e3, 257)
    vals = n.n_log_from_log_u(np.log(sample))
    if np.any(np.diff(vals) < -1e-12):
        raise ConstructionError(f"spliced function for {phi.label} is not monotone")
    return n


# ---------------------------------------------------------------------------
# Luxemburg norm


def _luxemburg_detail(f, n: OrliczN, domain: Domain, cfg: QuadratureConfig):
    sup = sup_norm(f, domain)
    if sup == 0.0:
        return 0.0, 0.0, True
    l1 = lp_quasinorm(f, 1.0, domain, cfg)
    lo = n.linear_slope * l1
    hi = n.linear_slope * sup * (1.0 + 1e-6)
    log_f = log_abs_of(f)
    # the modular at each t it has been integrated at: the root solve starts
    # from the two sign checks and ends on an iterate it has evaluated
    modular: dict[float, float] = {}

    def log_i(t: float) -> float:
        if t not in modular:
            modular[t] = _log_modular(t)
        return modular[t]

    def _log_modular(t: float) -> float:
        def g(xs):
            return n.n_log_from_log_u(log_f(xs) - t)

        # the kinks of |f| start the panels, as in lp_quasinorm
        try:
            return integrate_log(g, domain.lo, domain.hi, cfg, break_points_of(f, domain)) + math.log(domain.density)
        except ConvergenceFailureError as err:
            # Far below the root the modular explodes (fast phi makes the
            # integrand spike beyond any bisection depth), but only the sign
            # matters there.  Many log-units away from zero the partial
            # estimate cannot be on the wrong side; near the root the
            # integrand is tame and this branch is unreachable.
            if err.best_estimate is not None and abs(err.best_estimate) > 10.0:
                return err.best_estimate
            raise

    t_lo, t_hi = math.log(lo), math.log(hi)
    v_hi = log_i(t_hi)
    if v_hi > 0.0:
        raise LuxemburgBracketError(
            "upper bracket failed its sign check; the sup-norm estimate is off"
        )
    v_lo = log_i(t_lo)
    if v_lo < 0.0:
        # Jensen puts the true solution at or below lo; quadrature noise can
        # land here when f is (near) constant and lo is already the answer.
        return lo, v_lo, abs(v_lo) <= 1e-8
    if v_lo == 0.0:
        return lo, 0.0, True
    t_star = _brentq(log_i, t_lo, t_hi, xtol=1e-12, rtol=8.9e-16)
    residual = log_i(t_star)
    return math.exp(t_star), residual, abs(residual) <= 1e-8


def luxemburg_norm(f, n: OrliczN, domain: Domain | None = None, cfg: QuadratureConfig = DEFAULT_CONFIG) -> float:
    """Smallest l with the N-modular of f / l at most one."""
    dom = domain if domain is not None else f.natural_domain
    value, _residual, _ok = _luxemburg_detail(f, n, dom, cfg)
    return value


# ---------------------------------------------------------------------------
# sup-over-p scans


@dataclass
class ScanResult:
    value: float
    p_star: float | None
    tolerance_met: bool
    extensions: int


def _golden_max(fn, lo, hi, tol: float):
    """Golden-section search for a maximum of fn on each bracket [lo, hi].

    fn maps an array of abscissae to values; the brackets shrink together
    until every one is narrower than tol.  Returns the final probes and
    their values, (x1, f1, x2, f2).
    """
    x1 = hi - _GOLDEN * (hi - lo)
    x2 = lo + _GOLDEN * (hi - lo)
    f1, f2 = fn(x1), fn(x2)
    while np.max(hi - lo) >= tol:
        left = ~(f1 < f2)  # the maximum lies in [lo, x2]
        hi, lo = np.where(left, x2, hi), np.where(left, lo, x1)
        x1, x2 = np.where(left, hi - _GOLDEN * (hi - lo), x2), np.where(left, x1, lo + _GOLDEN * (hi - lo))
        f_new = fn(np.where(left, x1, x2))
        f1, f2 = np.where(left, f_new, f2), np.where(left, f1, f_new)
    return x1, f1, x2, f2


def _sup_over_p(make_log_norm, exact_norm, phi: PhiSpec, cache: ConjugateCache, p_lo: float) -> ScanResult:
    """sup over grid p >= p_lo of exp(log_norm(p) - psi_log(p)), certified.

    The cache grid must start at p_lo (to 1e-12 relative), or ValueError.
    make_log_norm() returns a cached-node p -> log norm; it is called again
    after each fourfold extension of the grid, so evaluators can re-panelize
    for the larger exponents.  The grid winner is polished by golden section
    in log p, which assumes the ratio unimodal; a winner at p_lo skips the
    polish when the ratio at log p_lo + 1e-8 is no higher than at the edge.
    The result is re-validated with exact_norm(p) and an exact weight; the
    fast value counts only if the two agree to 1e-6.
    """
    if abs(cache.grid[0] - p_lo) > 1e-12 * p_lo:
        raise ValueError(f"conjugate cache grid starts at p = {cache.grid[0]!r}, not at p_lo = {p_lo!r}")
    log_norm = make_log_norm()
    extensions = 0
    while True:
        grid = cache.grid
        vals = log_norm(grid) - cache.psi_log_grid
        k = int(np.nanargmax(vals))
        if k < len(grid) - 2 or not math.isfinite(vals[k]):
            break
        if extensions >= 2:
            raise ScanDivergenceError(
                "sup scan still rising after two grid extensions; "
                "the ratio appears unbounded in p"
            )
        cache.extend()
        log_norm = make_log_norm()
        extensions += 1

    def ratio(x):
        p = math.exp(x)
        return log_norm(p) - young_fenchel_or_inf(phi, p) / p

    a = math.log(grid[max(k - 1, 0)])
    best_log, p_star = float(vals[k]), float(grid[k])
    # a winner at p_lo whose ratio does not rise off the edge keeps its grid
    # value: with the ratio unimodal the maximum then lies within _EDGE_STEP
    # of the edge, where it exceeds the edge value by far less than rounding
    if k > 0 or ratio(a + _EDGE_STEP) > ratio(a):
        b = math.log(grid[min(k + 1, len(grid) - 1)])
        x1, f1, x2, f2 = _golden_max(lambda xs: np.array([ratio(x) for x in xs]), np.array([a]), np.array([b]), 1e-11)
        for cand_log, cand_x in ((f1[0], x1[0]), (f2[0], x2[0])):
            if cand_log > best_log:
                best_log, p_star = float(cand_log), math.exp(cand_x)
    value = exact_norm(p_star) * math.exp(-_psi_log_exact(phi, p_star))
    fast = math.exp(best_log)
    ok = abs(value - fast) <= 1e-6 * max(value, fast, 1e-300)
    return ScanResult(max(value, fast) if ok else value, p_star, ok, extensions)


def _g_scan(f, phi: PhiSpec, domain: Domain | None, cfg: QuadratureConfig, cache: ConjugateCache | None, p_lo: float, r: float = 0.0) -> ScanResult:
    """sup over p >= p_lo of ||f||_beta / psi(p), beta = p / (p r + 1): the
    g-norm family at r = 0 (beta = p exactly), the v-quasinorm at r >= 1."""
    dom = domain if domain is not None else f.natural_domain
    c = cache if cache is not None else ConjugateCache(phi, p_lo=p_lo)

    def beta(p):
        return p / (p * r + 1.0)

    def make_log_norm():
        lo, hi = beta(p_lo), beta(c.p_hi)
        # beta = p spans decades, beta < 1 / r does not
        mid = math.sqrt(lo * hi) if r == 0.0 else 0.5 * (lo + hi)
        log_norm = PowerNormEvaluator(f, dom, cfg, yardsticks=(lo, mid, hi)).log_norm
        return lambda p: log_norm(beta(p))

    # f identically zero needs no special case: every log ratio is -inf and
    # the scan collapses to value 0; this also keeps unbounded f (integrable
    # singularities) out of sup_norm, which rejects them.
    try:
        return _sup_over_p(make_log_norm, lambda p: lp_quasinorm(f, beta(p), dom, cfg), phi, c, p_lo)
    except ConvergenceFailureError as err:
        # an L_p member that the adaptive integrator cannot settle means the
        # scanned ratio has no certified finite supremum
        raise ScanDivergenceError(
            f"an L_p member diverges while scanning against {phi.label}; "
            "the function sits outside this grand space"
        ) from err


def g_norm(f, phi: PhiSpec, domain: Domain | None = None, cfg: QuadratureConfig = DEFAULT_CONFIG, cache: ConjugateCache | None = None) -> float:
    """sup over p >= 1 of ||f||_p / psi(p)."""
    return _g_scan(f, phi, domain, cfg, cache, p_lo=1.0).value


def g_norm_info(f, phi: PhiSpec, domain: Domain | None = None, cfg: QuadratureConfig = DEFAULT_CONFIG, cache: ConjugateCache | None = None) -> ScanResult:
    return _g_scan(f, phi, domain, cfg, cache, p_lo=1.0)


def sup_ratio_from(f, phi: PhiSpec, p_lo: float, domain: Domain | None = None, cfg: QuadratureConfig = DEFAULT_CONFIG, cache: ConjugateCache | None = None) -> float:
    """sup over p >= p_lo of ||f||_p / psi(p); used by comparison checks.

    A cache passed in must start at p_lo; by default one is built there.
    """
    return _g_scan(f, phi, domain, cfg, cache, p_lo=p_lo).value


def v_quasinorm(
    f,
    phi: PhiSpec,
    r: float,
    domain: Domain | None = None,
    cfg: QuadratureConfig = DEFAULT_CONFIG,
    cache: ConjugateCache | None = None,
) -> float:
    """Derivative-weighted quasinorm: sup over shrinking exponents.

    Parametrized by p in [4, inf): the integrability exponent is
    beta = p / (p r + 1), which sweeps (4/(4r+1), 1/r), and the ratio
    ||f||_beta / psi(p) is maximized over the standard grid.
    """
    return v_quasinorm_info(f, phi, r, domain, cfg, cache).value


def v_quasinorm_info(f, phi, r, domain=None, cfg=DEFAULT_CONFIG, cache=None) -> ScanResult:
    if not (r >= 1.0):
        raise ValueError("derivative order r must be at least 1")
    return _g_scan(f, phi, domain, cfg, cache, p_lo=4.0, r=r)


# ---------------------------------------------------------------------------
# Lorentz norms


def _level_map(sampler: LevelSampler):
    """The critical-value intervals of T laid end to end, s in [0, K].

    Unit interval i of s covers [a, c] = [levels[i], levels[i + 1]] through
    w = a + (c - a) sin^2(pi (s - i) / 2), which turns the square-root
    behaviour of T at a simple extremum of |f| into a smooth function of s.
    Returns K and s -> (w, dw/ds, log T(w)).
    """
    levels = sampler.critical_values
    if not math.isfinite(levels[-1]):
        raise DomainEvaluationError("function is unbounded; its Lorentz norms need a finite sup")
    lo, width = levels[:-1], np.diff(levels)

    def at(s):
        i = np.minimum(s.astype(np.intp), lo.size - 1)
        theta = 0.5 * math.pi * (s - i)
        w = lo[i] + width[i] * np.sin(theta) ** 2
        with np.errstate(divide="ignore"):
            return w, 0.5 * math.pi * width[i] * np.sin(2.0 * theta), np.log(sampler.measure_above_batch(w))

    return lo.size, at


def _log_w_power(w, b: float):
    """log of w^(b-1), which is 0 at b = 1 even where w underflows to 0."""
    if b == 1.0:
        return np.zeros_like(w)
    with np.errstate(divide="ignore"):
        return (b - 1.0) * np.log(w)


def _log_layer_cake(at, b: float):
    """(s, p) -> log of b w^(b-1) T(w)^(p/b) dw/ds, for the level map ``at``.

    Its integral over s in [0, K] is ||f||_(p,b)^b.  Summed in log space, it
    holds for every scale of f, where w^(b-1) alone over- or underflows.
    """

    def log_integrand(s, p):
        w, dw, log_t = at(s)
        with np.errstate(divide="ignore"):
            return (p / b) * log_t + _log_w_power(w, b) + np.log(dw) + math.log(b)

    return log_integrand


def _eighths(k: int) -> np.ndarray:
    """The eighths of [0, K]: each critical interval (a unit interval of s)
    starts as eight panels."""
    return np.arange(8 * k + 1) / 8


def _lorentz_finite(sampler: LevelSampler, p: float, b: float, cfg: QuadratureConfig) -> float:
    k, at = _level_map(sampler)
    log_integrand = _log_layer_cake(at, b)
    log_i = integrate_log(lambda s: log_integrand(s, p), 0.0, float(k), cfg, _eighths(k))
    return math.exp(log_i / b)


def _lorentz_sup(sampler: LevelSampler, p: float) -> float:
    """max of w T(w)^(1/p), by golden section on each critical interval.

    Each interval is probed at a few points first, and the section runs on
    the bracket around its best probe, so an interval holding two local
    maxima still yields the larger.
    """
    k, at = _level_map(sampler)

    def h(s):
        w, _dw, log_t = at(s)
        return w * np.exp(log_t / p)

    probes = 16
    s = np.arange(k)[:, None] + np.linspace(0.0, 1.0, probes + 1)[None, :]
    vals = h(s.ravel()).reshape(s.shape)
    j = np.argmax(vals, axis=1)
    rows = np.arange(k)
    _x1, f1, _x2, f2 = _golden_max(h, s[rows, np.maximum(j - 1, 0)], s[rows, np.minimum(j + 1, probes)], 1e-7)
    return float(max(np.max(vals), np.max(f1), np.max(f2)))


def lorentz_norm(
    f,
    p: float,
    b: float,
    domain: Domain | None = None,
    cfg: QuadratureConfig = DEFAULT_CONFIG,
    sampler: LevelSampler | None = None,
) -> float:
    """Two-parameter distribution norm of f, from T(w) = mu{|f| > w}.

    For finite b it is (b * integral over w > 0 of w^(b-1) T(w)^(p/b) dw)^(1/b),
    the layer cake of |f|^p at b = p, so ||f||_(p,p) = ||f||_p and a constant
    c has norm |c| for every p and b.  As b grows this tends to sup |f|, not
    to the weak form.  b = math.inf gives the weak form sup_w w T(w)^(1/p).
    """
    if not (p >= 1.0):
        raise ValueError("first index must be at least 1")
    if not (b >= 1.0):
        raise ValueError("second index must be at least 1 (or inf)")
    dom = domain if domain is not None else f.natural_domain
    s = sampler if sampler is not None else LevelSampler(f, dom)
    if s.sup_estimate == 0.0:
        return 0.0
    return _lorentz_sup(s, p) if math.isinf(b) else _lorentz_finite(s, p, b, cfg)


class _LorentzEvaluator:
    """Cached-node evaluator of p -> ||f||_{p,b} for scans at fixed b."""

    # nodes of the weak-form evaluator, shared among the critical intervals
    WEAK_NODES = 8192

    def __init__(self, sampler: LevelSampler, b: float, cfg: QuadratureConfig, p_hi: float):
        self.b = b
        k, at = _level_map(sampler)
        if math.isinf(b):
            per = max(16, self.WEAK_NODES // k)
            self._step = 1.0 / per
            self._s = (np.arange(k * per) + 0.5) * self._step
            self._at = at
            w, _dw, self._log_t = at(self._s)
            self._log_w = np.log(w)
            # a node whose two neighbours lie in its own interval
            self._inner = np.zeros(self._s.size, dtype=bool)
            self._inner[1:-1] = np.floor(self._s[:-2]) == np.floor(self._s[2:])
            return

        # panelize for a sweep of p values, from the panels _lorentz_finite starts with
        edges = panel_edges(_log_layer_cake(at, b), 0.0, float(k), (1.0, 32.0, p_hi), cfg, _eighths(k))
        xs, weights, half = composite_nodes(edges)
        w, dw, self._log_t = at(xs.ravel())
        # log of each node's weight in the layer cake b int w^(b-1) T^(p/b) dw
        with np.errstate(divide="ignore"):
            self._log_c = np.log(b * (weights[None, :] * half[:, None]).ravel() * dw) + _log_w_power(w, b)

    def log_value(self, p):
        p_arr = np.atleast_1d(np.asarray(p, dtype=float))
        if math.isinf(self.b):
            vals = self._log_w[None, :] + self._log_t[None, :] / p_arr[:, None]
            # the best node, and the value at the vertex of the parabola
            # through it and its two neighbours, which are equally spaced in s
            k = np.argmax(vals, axis=1)
            rows = np.arange(p_arr.size)
            inner = self._inner[k]
            mid = vals[rows, k]
            left = vals[rows, np.where(inner, k - 1, k)]
            right = vals[rows, np.where(inner, k + 1, k)]
            curv = left - 2.0 * mid + right
            with np.errstate(divide="ignore", invalid="ignore"):
                shift = np.where(inner & (curv < 0.0), 0.5 * (left - right) / curv, 0.0)
                w, _dw, log_t = self._at(self._s[k] + shift * self._step)
                out = np.maximum(mid, np.log(w) + log_t / p_arr)
        else:
            out = _logsumexp((p_arr[:, None] / self.b) * self._log_t[None, :] + self._log_c[None, :]) / self.b
        if np.ndim(p) == 0:
            return float(out[0])
        return out


def weighted_lorentz_g(
    f,
    phi: PhiSpec,
    b: float,
    domain: Domain | None = None,
    cfg: QuadratureConfig = DEFAULT_CONFIG,
    cache: ConjugateCache | None = None,
) -> float:
    """sup over p >= 1 of ||f||_{p,b} / psi(p)."""
    dom = domain if domain is not None else f.natural_domain
    c = cache if cache is not None else ConjugateCache(phi)
    sampler = LevelSampler(f, dom)
    if sampler.sup_estimate == 0.0:
        return 0.0

    def make_log_norm():
        return _LorentzEvaluator(sampler, b, cfg, c.p_hi).log_value

    def exact_norm(p):
        return lorentz_norm(f, p, b, dom, cfg, sampler=sampler)

    return _sup_over_p(make_log_norm, exact_norm, phi, c, 1.0).value


# ---------------------------------------------------------------------------
# equivalence constants


@dataclass(frozen=True)
class EquivalenceConstants:
    """Computable constants for the two-sided Orlicz / sup-ratio comparison.

    ``g_over_b`` bounds the sup-ratio norm by the Orlicz norm;
    ``b_over_g_log`` is the log of the reverse bound, kept in log form
    because it can exceed float range for fast-growing phi.  The alternate
    series shifts the gap index by one; both sums are reported.
    """

    g_over_b: float
    b_over_g_log: float
    b_over_g_alt_log: float
    split_index: float
    series_sum: float
    series_sum_alt: float

    @property
    def b_over_g(self) -> float:
        try:
            return math.exp(self.b_over_g_log)
        except OverflowError:
            return math.inf


def _gap_series(phi: PhiSpec, k_start: int, shift: int) -> float:
    total = 0.0
    prev = None
    k = k_start
    with np.errstate(over="ignore"):
        hk1 = phi._h_at(float(k - shift))
        for _ in range(500):
            hk, hk1 = hk1, phi._h_at(float(k + 1 - shift))
            if math.isfinite(hk) and math.isfinite(hk1):
                gap = hk - hk1
            else:
                gap = -math.inf  # beyond float range the gaps dwarf anything summable
            term = math.exp(gap) if gap > -745.0 else 0.0
            total += term
            if term == 0.0:
                return total
            if prev is not None and term <= 0.5 * prev and term <= 1e-12:
                return total + term  # ratio <= 1/2 bounds the tail by the last term
            prev = term
            k += 1
    raise SummabilityError(
        f"gap series for {phi.label} did not certify convergence in 500 terms"
    )


def equivalence_constants(n: OrliczN) -> EquivalenceConstants:
    phi = n.phi
    g_over_b = max(1.0, n.splice_point, 1.0 / n.linear_slope)
    hstar_1 = young_fenchel(phi, 1.0)
    delta = 1e-6
    right_deriv = (young_fenchel(phi, 1.0 + delta) - hstar_1) / delta
    split = max(4.0 + max(math.log(n.splice_point), 1.0), right_deriv)
    k_start = math.ceil(split - 1e-12)
    series = _gap_series(phi, k_start, shift=0)
    series_alt = _gap_series(phi, k_start, shift=1)
    head_log = float(n.n_log_from_log_u(np.array([split - 2.0]))[0])
    b_over_g_log = 2.0 + np.logaddexp(head_log, math.log(series) if series > 0 else -math.inf)
    b_over_g_alt_log = 2.0 + np.logaddexp(
        head_log, math.log(series_alt) if series_alt > 0 else -math.inf
    )
    return EquivalenceConstants(
        g_over_b=g_over_b,
        b_over_g_log=float(b_over_g_log),
        b_over_g_alt_log=float(b_over_g_alt_log),
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
    """Tagged selection of a norm, of one of the NORM_KINDS."""

    kind: str
    p: float = math.nan
    b: float = math.nan
    r: float = math.nan
    phi: PhiSpec | None = None

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
    return NormSpec("lp", p=float(p))


def orlicz_spec(phi: PhiSpec) -> NormSpec:
    return NormSpec("orlicz", phi=phi)


def gnorm_spec(phi: PhiSpec) -> NormSpec:
    return NormSpec("gnorm", phi=phi)


def lorentz_spec(p: float, b: float) -> NormSpec:
    return NormSpec("lorentz", p=float(p), b=float(b))


def vnorm_spec(phi: PhiSpec, r: float) -> NormSpec:
    return NormSpec("vnorm", phi=phi, r=float(r))


class NormContext:
    """Caches the spliced Orlicz functions and conjugate grids per phi."""

    def __init__(self, cfg: QuadratureConfig = DEFAULT_CONFIG):
        self.cfg = cfg
        self._n: dict[str, OrliczN] = {}
        self._cache: dict[tuple[str, float], ConjugateCache] = {}

    def orlicz(self, phi: PhiSpec) -> OrliczN:
        key = phi.label
        if key not in self._n:
            self._n[key] = construct_N(phi)
        return self._n[key]

    def conjugates(self, phi: PhiSpec, p_lo: float = 1.0) -> ConjugateCache:
        key = (phi.label, p_lo)
        if key not in self._cache:
            self._cache[key] = ConjugateCache(phi, p_lo=p_lo)
        return self._cache[key]


def evaluate_norm_info(f, spec: NormSpec, domain: Domain | None = None, ctx: NormContext | None = None) -> ScanResult:
    """The norm ``spec`` selects; kinds without a p scan report p_star None."""
    dom = domain if domain is not None else f.natural_domain
    context = ctx if ctx is not None else NormContext()
    cfg = context.cfg
    if spec.kind == "gnorm":
        return g_norm_info(f, spec.phi, dom, cfg, cache=context.conjugates(spec.phi))
    if spec.kind == "vnorm":
        return v_quasinorm_info(f, spec.phi, spec.r, dom, cfg, cache=context.conjugates(spec.phi, p_lo=4.0))
    if spec.kind == "lp":
        value = lp_quasinorm(f, spec.p, dom, cfg)
    elif spec.kind == "orlicz":
        value = luxemburg_norm(f, context.orlicz(spec.phi), dom, cfg)
    elif spec.kind == "lorentz":
        value = lorentz_norm(f, spec.p, spec.b, dom, cfg)
    else:
        raise ValueError(f"unknown norm kind {spec.kind!r}")
    return ScanResult(value, None, True, 0)


def evaluate_norm(f, spec: NormSpec, domain: Domain | None = None, ctx: NormContext | None = None) -> float:
    return evaluate_norm_info(f, spec, domain, ctx).value
