"""Integration against normalized measure on an interval or the circle.

Everything downstream (Orlicz, Grand Lebesgue, Lorentz and derived norms)
reduces to three primitives implemented here:

* ``integrate_log``: adaptive composite 16-point Gauss-Legendre with
  bisection refinement and a parent-versus-children error estimate, the
  one adaptive integrator.  It integrates ``exp(g)`` over [lo, hi] for a
  supplied ``g = log(integrand)`` and carries everything through
  log-sum-exp, which keeps integrands far outside double range
  representable.  The log-sum-exp is computed here, row by row, with
  ``scipy.special.logsumexp``'s real-input operations in the same order,
  so it returns the same bits without that function's per-call overhead.
* ``lp_quasinorm``: ``(integral of |f|^p dmu)^(1/p)`` for any p > 0, valid
  below p = 1 as a quasinorm.
* ``LevelSampler`` / ``distribution``: the distribution function
  ``mu{ |f| > w }``, summed over the pieces between the break points that
  every function representation reports (the domain ends and the zeros of
  f and f'), on which |f| is monotone; each crossing of a level is solved
  to a collapsed bracket.  ``sup_norm`` is the largest |f| over the same
  break points.

Adaptive integrals of functions of |f| (``lp_quasinorm``, the panels of
``PowerNormEvaluator`` and the Luxemburg modular in the norms module) start
with the break points of f as panel edges besides the uniform ones, as
QUADPACK's QAGP takes known singular points: |f| has a kink at every zero
of f.  Each of these functions asks f for its break points itself; a
representation computes them once per domain and keeps them, so repeated
calls on the same f reuse one array.  An object that reports no break
points starts from the uniform panels.

The norms are taken against Lebesgue measure scaled to total mass one:
``integrate_log`` integrates against plain dx, and its callers add
``log(domain.density)``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConvergenceFailureError, DomainEvaluationError, RejectedInputError

_TWO_PI = 2.0 * math.pi


@dataclass(frozen=True)
class Domain:
    """Carrier set with normalized Lebesgue measure."""

    kind: str
    lo: float
    hi: float

    @staticmethod
    def interval() -> "Domain":
        return Domain("interval", -1.0, 1.0)

    @staticmethod
    def circle() -> "Domain":
        return Domain("circle", 0.0, _TWO_PI)

    @property
    def length(self) -> float:
        return self.hi - self.lo

    @property
    def density(self) -> float:
        """Density of the normalized measure with respect to dx."""
        return 1.0 / (self.hi - self.lo)


@dataclass(frozen=True)
class QuadratureConfig:
    rel_tol: float = 1e-10
    max_depth: int = 48

    def __post_init__(self):
        if not (self.rel_tol > 0.0):
            raise ValueError("rel_tol must be positive")
        if self.max_depth < 1:
            raise ValueError("degenerate quadrature configuration")


DEFAULT_CONFIG = QuadratureConfig()

# Looser profile for integrands with endpoint singularities: the algebraic
# convergence rate near the singular point needs depth, not node count.
SINGULAR_CONFIG = QuadratureConfig(rel_tol=1e-8, max_depth=64)

# every panel carries the 16-point Gauss-Legendre rule
_NODES, _WEIGHTS = np.polynomial.legendre.leggauss(16)
# an adaptive integral starts from this many uniform panels and the break points
_INITIAL_PANELS = 8
# a wave with more live panels than this gives up as not converging
_MAX_PANELS = 60000


def as_vectorized(f):
    """Wrap a callable so it maps ndarray -> ndarray of the same shape."""

    def call(xs: np.ndarray) -> np.ndarray:
        out = np.asarray(f(xs), dtype=float)
        if out.shape != xs.shape:
            out = np.broadcast_to(out, xs.shape).copy()
        return out

    return call


def log_abs_of(f):
    """Return a vectorized x -> log|f(x)|, honoring a rep-provided log_abs."""
    direct = getattr(f, "log_abs", None)
    if direct is not None:
        return as_vectorized(direct)
    fv = as_vectorized(f)

    def call(xs: np.ndarray) -> np.ndarray:
        with np.errstate(divide="ignore"):
            return np.log(np.abs(fv(xs)))

    return call


def break_points_of(f, domain: Domain):
    """The break points f reports on the domain (the kinks of |f| among
    them), or None for an object that reports none."""
    report = getattr(f, "break_points", None)
    return None if report is None else report(domain)


def _check_finite(values: np.ndarray, xs: np.ndarray):
    """Raise at the first NaN or +inf log-integrand value; -inf is a zero."""
    bad = ~np.isfinite(values) & ~np.isneginf(values)
    if bad.any():
        idx = int(np.argmax(bad))
        x = float(np.ravel(xs)[idx])
        raise DomainEvaluationError(
            f"integrand is not finite at x = {x!r}", abscissa=x
        )


def _logsumexp(a: np.ndarray) -> np.ndarray:
    """log(sum(exp(a), axis=1)) for a 2-d float array, row by row.

    The operations and their order are those of scipy.special.logsumexp on
    real input: the row maximum is taken out, its m copies are counted and
    set to -inf, the rest is summed shifted by the maximum, and
    log1p(s / m) + log(m) + max is returned.  Rows whose result is not
    finite (an infinite or NaN maximum, overflow) fall back to the direct
    log(sum(exp(row))).
    """
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        a_max = a.max(axis=1, keepdims=True)
        at_max = a == a_max
        m = at_max.sum(axis=1, keepdims=True, dtype=float)
        shifted = np.where(at_max, -np.inf, a)
        np.subtract(shifted, a_max, out=shifted)
        np.exp(shifted, out=shifted)
        s = shifted.sum(axis=1, keepdims=True)
        np.divide(s, m, out=s, where=s != 0)
        out = (np.log1p(s) + np.log(m) + a_max)[:, 0]
        finite = np.isfinite(out)
        if not finite.all():
            bad = ~finite
            out[bad] = np.log(np.exp(a[bad]).sum(axis=1))
    return out


def _panel_nodes(lo, hi):
    half = 0.5 * (hi - lo)
    mid = 0.5 * (hi + lo)
    return mid[:, None] + half[:, None] * _NODES[None, :], half


def _initial_edges(lo, hi, count, breaks):
    """The ``count`` uniform panel edges of [lo, hi] and the points of
    ``breaks`` inside, sorted; a point within rounding of an edge already
    taken is dropped."""
    edges = np.linspace(lo, hi, count + 1)
    if breaks is None:
        return edges
    tol = 4.0 * np.finfo(float).eps * max(1.0, abs(lo), abs(hi))
    inner = np.unique(np.asarray(breaks, dtype=float))
    inner = inner[(inner > lo + tol) & (inner < hi - tol)]
    i = np.searchsorted(edges, inner)
    inner = inner[(inner - edges[i - 1] > tol) & (edges[i] - inner > tol)]
    inner = inner[np.diff(inner, prepend=-np.inf) > tol]
    return np.sort(np.concatenate([edges, inner]))


def _adaptive(log_f, lo, hi, cfg, breaks):
    """Adaptive quadrature of exp(log_f) over [lo, hi], in log space.

    All active panels are bisected together each wave, so the integrand is
    evaluated in large vectorized batches.  A panel's children are accepted
    once the parent-children discrepancy fits in a budget proportional to
    the panel's share of the domain; a global test retires the whole queue
    early when the total outstanding discrepancy is already below tolerance.
    The points of ``breaks`` inside (lo, hi), where the integrand may have a
    kink, are initial panel edges besides the uniform ones, as QUADPACK's
    QAGP takes its break points.

    Returns the log of the integral, the error estimate in units of the
    largest panel value, and the ends of the accepted panels as two arrays.
    """
    total_len = hi - lo
    # Gauss nodes are interior to every panel in exact arithmetic; under
    # extreme subdivision the rounded abscissa can land on a panel edge,
    # which only matters when the integrand is singular exactly there.
    # Clamping into the open interval keeps such integrands evaluable.
    open_lo = np.nextafter(lo, hi)
    open_hi = np.nextafter(hi, lo)
    logw = np.log(_WEIGHTS)

    def panel_values(plo, phi_):
        xs, half = _panel_nodes(plo, phi_)
        xs = np.clip(xs, open_lo, open_hi)
        g = log_f(xs.ravel()).reshape(xs.shape)
        _check_finite(g, xs)
        with np.errstate(divide="ignore"):
            return _logsumexp(g + logw[None, :]) + np.log(half)

    edges = _initial_edges(lo, hi, _INITIAL_PANELS, breaks)
    p_lo = edges[:-1].copy()
    p_hi = edges[1:].copy()
    p_val = panel_values(p_lo, p_hi)

    # every contribution is stored as exp(value - scale_log), at most one, so
    # sums and error comparisons stay in ordinary floating point whatever
    # the integrand's magnitude
    scale_log = float(np.max(p_val))
    if scale_log == -math.inf:
        return -math.inf, 0.0, np.array([lo]), np.array([hi])

    acc_sum = 0.0
    acc_err = 0.0
    done_lo, done_hi = [], []

    for _depth in range(cfg.max_depth):
        k = p_lo.size
        mid = 0.5 * (p_lo + p_hi)
        c_lo = np.concatenate([p_lo, mid])
        c_hi = np.concatenate([mid, p_hi])
        c_val = panel_values(c_lo, c_hi)

        new_max = float(np.max(c_val, initial=-math.inf))
        if new_max > scale_log:
            shift = math.exp(scale_log - new_max)
            acc_sum *= shift
            acc_err *= shift
            scale_log = new_max

        s_child = np.exp(c_val - scale_log)
        s_pair = s_child[:k] + s_child[k:]
        err = np.abs(s_pair - np.exp(p_val - scale_log))

        scale_ref = max(acc_sum + float(np.sum(s_pair)), 1e-300)
        budget = cfg.rel_tol * scale_ref * ((p_hi - p_lo) / total_len)
        done = (err <= budget) | (err <= 1e-16 * scale_ref)
        if float(np.sum(err[~done])) + acc_err <= cfg.rel_tol * scale_ref:
            done[:] = True

        if done.any():
            acc_sum += float(np.sum(s_pair[done]))
            acc_err += float(np.sum(err[done]))
            done_lo += [c_lo[:k][done], c_lo[k:][done]]
            done_hi += [c_hi[:k][done], c_hi[k:][done]]

        live = ~done
        if not live.any():
            log_value = scale_log + math.log(acc_sum) if acc_sum > 0 else -math.inf
            return log_value, acc_err, np.concatenate(done_lo), np.concatenate(done_hi)

        p_lo = np.concatenate([c_lo[:k][live], c_lo[k:][live]])
        p_hi = np.concatenate([c_hi[:k][live], c_hi[k:][live]])
        p_val = np.concatenate([c_val[:k][live], c_val[k:][live]])
        if p_lo.size > _MAX_PANELS:
            break

    live_mass = float(np.sum(np.exp(p_val - scale_log)))
    best = acc_sum + live_mass
    raise ConvergenceFailureError(
        f"quadrature did not converge within depth {cfg.max_depth}",
        best_estimate=scale_log + math.log(best) if best > 0 else -math.inf,
        error_bound=acc_err + live_mass,  # crude: full live mass
    )


def integrate_log(log_f, lo: float, hi: float, cfg: QuadratureConfig = DEFAULT_CONFIG, breaks=None) -> float:
    """log of the plain Lebesgue integral of exp(log_f) over [lo, hi].

    ``breaks``, where the integrand may have kinks, start as panel edges.
    Returns -inf when the integrand vanishes identically on the sample set.
    A normalized-measure mean adds ``log(domain.density)``.
    """
    value, _err, _lo, _hi = _adaptive(as_vectorized(log_f), lo, hi, cfg, breaks)
    return value


def panel_edges(log_integrand, lo: float, hi: float, exponents, cfg: QuadratureConfig, breaks=None) -> np.ndarray:
    """Merged panel edges refined for exp(log_integrand(xs, e)) at each e.

    The union of the per-exponent adaptive panelizations of [lo, hi] gives a
    fixed composite rule that is then accurate across the whole exponent
    range in between, which is what the sup-over-p scans want: one set of
    cached nodes, many p.  Each panelization starts from ``breaks`` too.
    """
    parts = [np.array([lo, hi], dtype=float)]
    for e in exponents:
        _val, _err, a, b = _adaptive(lambda xs, _e=float(e): log_integrand(xs, _e), lo, hi, cfg, breaks)
        parts += [a, b]
    return np.unique(np.concatenate(parts))


def composite_nodes(edges: np.ndarray):
    """Gauss-Legendre nodes of the composite rule with the given panel edges.

    Returns (xs, weights, half): xs has one row per panel, and the weight of
    xs[i, j] is weights[j] * half[i].
    """
    xs, half = _panel_nodes(edges[:-1], edges[1:])
    return xs, _WEIGHTS, half


class PowerNormEvaluator:
    """Evaluates p -> ||f||_p for many p from one cached panelization.

    Node values of log|f| are computed once; each subsequent norm is a single
    vectorized log-sum-exp.  Intended for scan loops; the returned maximizer
    should be re-validated with a fully adaptive call (see norms module).
    The panels start at the break points of f.
    """

    def __init__(self, f, domain: Domain, cfg: QuadratureConfig, yardsticks):
        log_f = log_abs_of(f)
        edges = panel_edges(lambda xs, e: e * log_f(xs), domain.lo, domain.hi, yardsticks, cfg, break_points_of(f, domain))
        xs, weights, half = composite_nodes(edges)
        # same open-interval clamp as the adaptive loop: a rounded node must
        # not land on a singular endpoint
        xs = np.clip(xs, np.nextafter(domain.lo, domain.hi), np.nextafter(domain.hi, domain.lo))
        g = log_f(xs.ravel()).reshape(xs.shape)
        _check_finite(g, xs)
        self._g = g.ravel()
        with np.errstate(divide="ignore"):
            self._logw = (np.log(weights)[None, :] + np.log(half)[:, None]).ravel()
        self._log_density = math.log(domain.density)
        self.node_count = self._g.size

    def log_norm(self, p):
        """log ||f||_p, vectorized over an array of exponents p > 0."""
        p_arr = np.atleast_1d(np.asarray(p, dtype=float))
        with np.errstate(invalid="ignore"):
            a = p_arr[:, None] * self._g[None, :] + self._logw[None, :]
        log_i = _logsumexp(a) + self._log_density
        out = log_i / p_arr
        if np.isscalar(p) or np.ndim(p) == 0:
            return float(out[0])
        return out


def lp_quasinorm(f, p: float, domain: Domain, cfg: QuadratureConfig = DEFAULT_CONFIG) -> float:
    """(integral |f|^p dmu)^(1/p); a norm for p >= 1, quasinorm below.

    The integral starts with the break points of f as panel edges.
    """
    if not (p > 0.0):
        raise ValueError(f"exponent must be positive, got {p!r}")
    log_f = log_abs_of(f)

    def scaled(xs):
        return p * log_f(xs)

    log_i = integrate_log(scaled, domain.lo, domain.hi, cfg, break_points_of(f, domain)) + math.log(domain.density)
    if log_i == -math.inf:
        return 0.0
    return math.exp(log_i / p)


def _break_values(f, domain: Domain, bounded: bool):
    """Break points of f on the domain and |f| at them.

    An undefined value raises DomainEvaluationError, and so does an
    infinite one when ``bounded``.
    """
    xs = break_points_of(f, domain)
    if xs is None:
        raise RejectedInputError(f"{type(f).__name__} reports no break points; pass a function representation")
    vals = np.abs(as_vectorized(f)(xs))
    bad = ~np.isfinite(vals) if bounded else np.isnan(vals)
    if bad.any():
        x = float(xs[np.argmax(bad)])
        raise DomainEvaluationError(f"function is not finite at x = {x!r}", abscissa=x)
    return xs, vals


def sup_norm(f, domain: Domain) -> float:
    """Sup of |f|: its largest value over the break points of f, between
    which |f| is monotone.  Unbounded f raises DomainEvaluationError."""
    return float(np.max(_break_values(f, domain, bounded=True)[1]))


class LevelSampler:
    """Distribution function of |f| assembled from its monotone pieces.

    The break points of f cut the domain into pieces on which |f| is
    monotone.  The measure of { |f| > w } sums, over the pieces, the whole
    piece when w is below its smaller end value, nothing when w is at or
    above its larger one, and otherwise the part beyond the one crossing
    |f| = w.  The crossings of a batch of thresholds are solved together by a
    bracketed iteration, each one until its bracket has collapsed to rounding
    level.  ``critical_values`` are 0 and the values of |f| at the break
    points, sorted: T is smooth between consecutive ones.  An end value may
    be infinite (an integrable singularity); ``sup_estimate`` is then inf.
    """

    def __init__(self, f, domain: Domain):
        self.domain = domain
        self._f = as_vectorized(f)
        xs, vals = _break_values(f, domain, bounded=False)
        self.sup_estimate = float(np.max(vals))
        levels = np.unique(np.append(vals, 0.0))
        # a value within 1e-12 of the next one merges into it: equal extrema
        # (|T_n| = 1) round apart, and every interval costs panels downstream
        self.critical_values = levels[np.append(np.diff(levels) > 1e-12 * levels[1:], True)]
        # per piece: its length, its ends where |f| is smaller and larger,
        # and the values there
        self._length = np.diff(xs)
        rising = vals[1:] > vals[:-1]
        self._below = np.where(rising, xs[:-1], xs[1:])
        self._above = np.where(rising, xs[1:], xs[:-1])
        self._v_min = np.minimum(vals[:-1], vals[1:])
        self._v_max = np.maximum(vals[:-1], vals[1:])
        self._tol = np.finfo(float).eps * max(1.0, abs(domain.lo), abs(domain.hi))

    def _level_roots(self, below, above, g_below, g_above, w):
        """x with |f(x)| = w, bracketed by g_below = |f| - w <= 0 at ``below``
        and g_above > 0 at ``above``, to a bracket no wider than 2 * tol.

        Regula falsi with Anderson-Bjorck scaling of an end kept twice
        running, and two safeguards from Brent's method: a step longer than
        half the step before last becomes a bisection, and every point stays
        tol inside the bracket, so a converged iterate gets straddled.
        """
        tol = self._tol
        out = below.copy()
        live = np.flatnonzero(g_below < 0.0)
        xb, xa, gb, ga, w = below[live], above[live], g_below[live], g_above[live], w[live]
        moved = np.zeros(live.size)  # +1: the above end moved last, -1: the below end
        last = np.where(-gb < ga, xb, xa)
        step = older = np.abs(xa - xb)
        with np.errstate(divide="ignore", invalid="ignore"):
            while live.size:
                x = np.clip(xb + (gb / (gb - ga)) * (xa - xb), np.minimum(xb, xa) + tol, np.maximum(xb, xa) - tol)
                # an infinite end value (a singular end) pins regula falsi to the other end
                x = np.where((np.abs(x - last) <= 0.5 * older) & np.isfinite(ga), x, 0.5 * (xb + xa))
                step, older, last = np.abs(x - last), step, x
                g = np.abs(self._f(x)) - w
                up = g > 0.0
                scale = 1.0 - g / np.where(up, ga, gb)
                scale = np.where(scale > 0.0, scale, 0.5)
                gb = np.where(up, np.where(moved > 0, scale * gb, gb), g)
                ga = np.where(up, g, np.where(moved < 0, scale * ga, ga))
                xb = np.where(up, xb, x)
                xa = np.where(up, x, xa)
                moved = np.where(up, 1.0, -1.0)
                done = (np.abs(xa - xb) <= 2.0 * tol) | (g == 0.0)
                if done.any():
                    out[live[done]] = np.where(g == 0.0, x, 0.5 * (xb + xa))[done]
                    keep = ~done
                    live, xb, xa, gb, ga, w = live[keep], xb[keep], xa[keep], gb[keep], ga[keep], w[keep]
                    step, older, last, moved = step[keep], older[keep], last[keep], moved[keep]
        return out

    def measure_above_batch(self, ws) -> np.ndarray:
        ws = np.asarray(ws, dtype=float)
        flat_ws = ws.ravel()
        # thresholds go in chunks of about 2^18 (piece, threshold) pairs at most
        size = max(1, 2**18 // self._length.size)
        parts = [self._measure(flat_ws[i : i + size]) for i in range(0, flat_ws.size, size)]
        out = np.concatenate(parts) if parts else np.zeros(0)
        return (out * self.domain.density).reshape(ws.shape)

    def _measure(self, ws):
        whole = ws[None, :] < self._v_min[:, None]
        out = self._length @ whole
        piece, j = np.nonzero(~whole & (ws[None, :] < self._v_max[:, None]))
        w = ws[j]
        below, above = self._below[piece], self._above[piece]
        roots = self._level_roots(below, above, self._v_min[piece] - w, self._v_max[piece] - w, w)
        # the part of the piece beyond the crossing lies above w
        return out + np.bincount(j, weights=np.abs(above - roots), minlength=ws.size)

    def measure_above(self, w: float) -> float:
        return float(self.measure_above_batch(np.array([w]))[0])


def distribution(f, w: float, domain: Domain, sampler: LevelSampler | None = None) -> float:
    """mu{ x : |f(x)| > w } for w >= 0."""
    if w < 0.0:
        raise ValueError("threshold must be nonnegative")
    s = sampler if sampler is not None else LevelSampler(f, domain)
    return s.measure_above(w)
