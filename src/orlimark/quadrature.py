"""Integration against normalized measure on an interval or the circle.

Everything downstream (Orlicz, Grand Lebesgue, Lorentz and derived norms)
reduces to three primitives implemented here:

* ``_adaptive``: adaptive composite 16-point Gauss-Legendre with
  bisection refinement and a parent-versus-children error estimate, the
  one adaptive integrator.  It integrates ``exp(transform(g))`` over the
  interval of a node store of g, summed in units of e^c, one shift c per
  integral, which keeps integrands far outside double range
  representable.
* ``lp_quasinorm``: ``(integral of |f|^p dmu)^(1/p)`` for any finite
  p > 0, valid below p = 1 as a quasinorm.
* ``LevelSampler`` / ``distribution``: the distribution function
  ``mu{ |f| > w }``, summed over the pieces between the break points that
  every function representation reports (the domain ends and the zeros of
  f and f'), on which |f| is monotone; each crossing of a level is solved
  to a collapsed bracket by ``_bracketed_root``, the one root solver, which
  also finds the maximum of the weak Lorentz form, the polish of the
  sup-over-p scans, the splice knee and the Luxemburg root in the norms
  module.  One step, in two halves around one call of g, runs many lanes
  on arrays and the last few live (up to _FLOAT_LANES, the one lane of a
  call among them) on Python floats, in lockstep, with float selections
  that give numpy's bits, in the same steps.  A crossing starts from one
  cell of a fixed table of |f| at the Chebyshev-Lobatto points of its
  piece, looked up for every lane at once, as Boyd (2002) isolates roots
  on Chebyshev points.  The same crossings give the slope T'(w), from the
  derivative each bounded representation reports.  Beside a singular end,
  whose power q f states, the part of its piece above w is w^(-1/q) long,
  in closed form.
  ``sup_norm`` is the largest |f| over the same break points.

Adaptive integrals of functions of |f| (``lp_quasinorm``, the panels of
``PowerNormEvaluator`` and the Luxemburg modular in the norms module) start
with the break points of f as panel edges besides the uniform ones, as
QUADPACK's QAGP takes known singular points: |f| has a kink at every zero
of f.  An integral may add break points of its own to those edges: the
Luxemburg modular adds its splice crossings, where N(|f| / l) has a kink.
An integrable singular end that f reports (``InversePowerRep``) states its
power q, as QUADPACK's QAWS takes an algebraic end's exponent, and is
integrated in y = -log(distance to it), where log|f| = q y, as QAWS and
Takahasi & Mori (1974) give such an end a coordinate of its own: by the
rule up to the smallest normal distance, and beyond it in closed form.

Every integral reads its node values from a ``_NodeStore`` and is taken
against the store's measure, a constant density and log weights where it
varies: the layer-cake measure on the level map of the Lorentz norms, log
dx/ds at a singular end.  Integrals of the same node values (the Luxemburg solve, a
p scan with its re-validation) share one store, so each Gauss panel's
values are computed once, as Gander & Gautschi (2000) reuse integrand
values across refinements, and a store takes each exact power integral
once.  The store of log|f| outlives its call until a norm of another
function asks for one: consecutive norms of one f (a harness row's B, G
and R) continue it.  ``PowerNormEvaluator``, the evaluator of the L_p
scans, and the Luxemburg model rest on one cached-node rule,
``_NodeRule``, that reads the same store: one log-sum-exp per query.

The norms are taken against Lebesgue measure scaled to total mass one,
whose density the store of log|f| carries, so ``_adaptive`` and
``_NodeRule.log_mean`` return them with no density for callers to add.

A function carries its domain, ``f.natural_domain``: the entry points
(``LevelSampler``, ``sup_norm``, ``distribution``), like the norms and
``break_points()``, take none, and ``lp_quasinorm``'s ``domain`` must be
f's own.  An object that reports no natural domain or no break points
raises RejectedInputError.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import ConvergenceFailureError, DomainEvaluationError, RejectedInputError, ScanDivergenceError

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

    def __post_init__(self):
        if not (0.0 < self.rel_tol < math.inf):
            raise RejectedInputError(f"rel_tol must be positive and finite, got {self.rel_tol!r}")


DEFAULT_CONFIG = QuadratureConfig()

_EPS = float(np.finfo(float).eps)
# every panel carries the 16-point Gauss-Legendre rule, numpy's
# ``leggauss(16)`` to the bit: its nodes and weights in (0, 1), mirrored
_HALF_NODES = np.array(
    [0.09501250983763744, 0.2816035507792589, 0.45801677765722737, 0.6178762444026438,
     0.755404408355003, 0.8656312023878318, 0.9445750230732326, 0.9894009349916499]
)
_HALF_WEIGHTS = np.array(
    [0.18945061045506864, 0.18260341504492364, 0.16915651939500265, 0.1495959888165767,
     0.12462897125553407, 0.0951585116824926, 0.062253523938647456, 0.027152459411754176]
)
_NODES, _WEIGHTS = np.concatenate([-_HALF_NODES[::-1], _HALF_NODES]), np.concatenate([_HALF_WEIGHTS[::-1], _HALF_WEIGHTS])
_LOG_WEIGHTS = np.log(_WEIGHTS)
# two adjacent Gauss nodes of a panel narrower than this many ulps of its
# abscissae may fall within one ulp
_MERGE_ULPS = 2.0 / float(np.min(np.diff(_NODES)))
# an adaptive integral starts from this many uniform panels and the break points
_INITIAL_PANELS = 8
# an adaptive integral bisects its panels at most this many times
_MAX_DEPTH = 48
# a wave with more live panels than this gives up as not converging
_MAX_PANELS = 60000
# a singular end's piece reaches y = -log(distance) of the smallest normal double
_Y_END = -math.log(np.finfo(float).tiny)


def log_abs_of(f):
    """Return x -> log|f(x)|, honoring a rep-provided log_abs."""
    direct = getattr(f, "log_abs", None)
    if direct is not None:
        return direct

    def call(xs: np.ndarray) -> np.ndarray:
        with np.errstate(divide="ignore"):
            return np.log(np.abs(f(xs)))

    return call


def _carrier(f):
    """f's own domain, where its norms are taken, the break points f reports
    there, the kinks of |f| among them, and the power q of the singular end
    that f states (``singular_end``), |f| = distance^-q next to the domain's
    upper end, or None without one; an object that reports no domain or no
    break points raises RejectedInputError."""
    domain, report = getattr(f, "natural_domain", None), getattr(f, "break_points", None)
    if domain is None or report is None:
        raise RejectedInputError(f"{type(f).__name__} reports no natural domain or no break points; pass a function representation")
    return domain, report(), getattr(f, "singular_end", lambda: None)()


def _check_finite(values: np.ndarray, p_lo, p_hi) -> None:
    """Raise DomainEvaluationError at the first NaN or +inf of values, a row
    at the nodes of each panel of [p_lo, p_hi]; -inf is 0.  One reduction
    passes values without either: their largest is below +inf."""
    if np.maximum.reduce(values, axis=None, initial=-math.inf) < math.inf:
        return
    bad = ~np.isfinite(values) & (values != -math.inf)
    if bad.any():
        xs = _panel_nodes(p_lo, p_hi)[0].ravel()
        x = float(xs[np.argmax(bad)])
        raise DomainEvaluationError(f"integrand is not finite at x = {x!r}", abscissa=x)


def _panel_nodes(lo, hi):
    """The Gauss nodes of the panels [lo, hi], a row per panel, and the
    panels' half widths."""
    half = 0.5 * (hi - lo)
    mid = 0.5 * (hi + lo)
    return mid[:, None] + half[:, None] * _NODES[None, :], half


def _sorted_distinct(values) -> np.ndarray:
    """np.unique of a float array, by its own sort path: flattened, sorted,
    each value once, NaNs collapsed to one at the end.  np.unique itself is
    not used in the library, as its first call imports numpy.ma."""
    a = values.flatten()
    a.sort()
    first = np.ones(a.shape, dtype=bool)
    first[1:] = (a[1:] != a[:-1]) & ~np.isnan(a[:-1])
    return a[first]


def _inner_points(edges, points):
    """The distinct points of ``points`` strictly inside the sorted
    ``edges``, sorted; a point closer to an edge or to a point already taken
    than _MERGE_ULPS (about 45) ulps is dropped."""
    lo, hi = edges[0], edges[-1]
    tol = _EPS * max(1.0, abs(lo), abs(hi)) * _MERGE_ULPS
    inner = _sorted_distinct(np.asarray(points, dtype=float))
    inner = inner[(inner > lo + tol) & (inner < hi - tol)]
    i = edges.searchsorted(inner)
    inner = inner[(inner - edges[i - 1] > tol) & (edges[i] - inner > tol)]
    apart = np.ones(inner.size, dtype=bool)
    apart[1:] = inner[1:] - inner[:-1] > tol
    return inner[apart]


def _merged(edges, points) -> np.ndarray:
    """The sorted edges and the points of ``points`` that ``_inner_points``
    keeps inside them, sorted together."""
    out = np.concatenate([edges, _inner_points(edges, points)])
    out.sort()
    return out


def _initial_edges(lo, hi, breaks):
    """The _INITIAL_PANELS uniform panel edges of [lo, hi] and the points of
    ``breaks`` inside, merged by ``_inner_points``."""
    return _merged(np.linspace(lo, hi, _INITIAL_PANELS + 1), breaks)


class _NodeStore:
    """The node values of integrals over [lo, hi], each computed once, with
    the log weights of the measure they are integrated against.

    ``values`` maps a flat array of abscissae to the node value g of its
    shape: log|f| for the integrals of a function of |f|, or a tuple
    (g, log weight), the weight being the measure's density with respect to
    the abscissa: (log T, log b w^(b-1) dw/ds) on the level map of the
    Lorentz layer cake.
    A panel's rows at its 16 Gauss nodes are computed on its first request
    and found again by its exact ends, lo + 1j hi, in one sorted array.
    Every integral of a call starts from the same sorted ``edges``, which
    span [lo, hi], and halves its panels, so panels recur bit for bit; an
    integral that adds break points of its own to the edges splits the
    panels they fall in, whose pieces are new keys.  Every integral is
    against the store's measure, its log weights plus ``log_density``.
    ``power_integral`` takes each exact integral of e^(e g) once.

    ``q`` is the power of a singular end at hi that f states (on an
    unweighted store), the growth of g = log|f| = q y at distance e^-y below
    hi, or None without one.  With it, the last initial panel maps affinely
    onto y up to _Y_END, where each panel takes its Gauss nodes, and the log
    weight is log dx/ds.
    """

    def __init__(self, values, edges, log_density: float = 0.0, q=None):
        self._values, self.q = values, q
        self.edges, self.log_density = edges, log_density
        self.lo, self.hi = float(edges[0]), float(edges[-1])
        if q is not None:
            x_a = self._cut = float(edges[-2])
            y_a = -math.log(self.hi - x_a)
            self._y = lambda s: y_a + (s - x_a) * ((_Y_END - y_a) / (self.hi - x_a))
        # the sorted keys, and the row of each in the columns: g, and the log weight if any
        self._keys, self._index = self.edges[:-1] + 1j * self.edges[1:], np.arange(self.edges.size - 1)
        self._cols = self._evaluate(self.edges[:-1], self.edges[1:])
        self._powers = {}

    def _evaluate(self, p_lo, p_hi):
        xs = _panel_nodes(p_lo, p_hi)[0]
        if self.q is None:
            cols = self._values(xs.ravel())
            return [v.reshape(xs.shape) for v in (cols if isinstance(cols, tuple) else (cols,))]
        on = p_lo >= self._cut
        ys, half_y = _panel_nodes(self._y(p_lo[on]), self._y(p_hi[on]))
        g, log_dx = np.empty(xs.shape), np.zeros(xs.shape)
        g[~on], g[on] = self._values(xs[~on].ravel()).reshape(-1, _NODES.size), self.q * ys
        # dx/ds = e^-y dy/ds on the singular piece
        log_dx[on] = np.log(half_y / (0.5 * (p_hi[on] - p_lo[on])))[:, None] - ys
        return [g, log_dx]

    def rows(self, p_lo, p_hi):
        """g at the nodes of the distinct panels [p_lo, p_hi], a (panels, 16)
        array, and the log weights there, None in a store without them."""
        keys = p_lo + 1j * p_hi
        at = np.minimum(self._keys.searchsorted(keys), self._keys.size - 1)
        new = self._keys[at] != keys
        at = self._index[at]
        if new.any():
            at[new] = self._cols[0].shape[0] + np.arange(np.count_nonzero(new))
            self._cols = [np.concatenate([c, v]) for c, v in zip(self._cols, self._evaluate(p_lo[new], p_hi[new]))]
            keys = np.concatenate([self._keys, keys[new]])
            order = keys.argsort(kind="stable")
            self._keys, self._index = keys[order], np.concatenate([self._index, at[new]])[order]
        cols = [c[at] for c in self._cols]
        return cols[0], cols[1] if len(cols) > 1 else None

    def power_integral(self, e: float, cfg):
        """``_adaptive`` of e^(e g) on this store, taken once for each
        (e, cfg): the log integral and its panels' read-only ends."""
        if (e, cfg) not in self._powers:
            out = self._powers[e, cfg] = _adaptive(self, lambda g: e * g, cfg)
            for ends in out[1:]:
                ends.flags.writeable = False
        return self._powers[e, cfg]

    def rest(self, transform):
        """log of the integral of e^G, G(y) = transform(q y) - y, past the
        singular piece's end y_1 (-inf without one): e^G(y_1) / -G', as G is
        linear for a power singularity, G' its secant on [y_1, 2 y_1]; and
        the mean of g under e^G there, q y_1 + q / -G'.  transform is given
        one panel row and may return a row for each of several integrands,
        as ``_NodeRule.log_mean`` asks for them at once: a rest each."""
        if self.q is None:
            return -math.inf, 0.0
        y = self._y(self.hi) * np.array([[1.0, 2.0]])
        g = (transform(self.q * y) - y)[..., 0, :]
        slope = (g[..., 1] - g[..., 0]) / y[0, 0]
        if not (slope < 0.0).all():
            raise ConvergenceFailureError(f"the integrand does not decay at the singular end: slope {float(slope.max())!r} in -log(distance)")
        return g[..., 0] - np.log(-slope), self.q * y[0, 0] + self.q / -slope


# the last function given to ``_abs_nodes`` and its store; the library is single-threaded
_held = None


def _abs_nodes(f) -> _NodeStore:
    """A node store of log|f| on its domain, whose integrals start at the
    break points of f, take its singular end in distance, if it states the
    end's power, and are taken against the normalized measure.  The same
    object as the last call's (``is``: == ignores a ``PolynomialRep``'s
    ``cheb``, which changes its bits) continues that call's store."""
    global _held
    if _held is None or _held[0] is not f:
        domain, xs, q = _carrier(f)
        _held = f, _NodeStore(log_abs_of(f), _initial_edges(domain.lo, domain.hi, xs), math.log(domain.density), q)
    return _held[1]


def _adaptive(nodes: _NodeStore, transform, cfg, breaks=None):
    """Adaptive quadrature of exp(transform(g)) against the measure of the
    node store ``nodes`` over its interval, in log space, from its initial
    edges and the points of ``breaks``, merged into them by
    ``_inner_points``: kinks of this integrand alone, such as the splice
    crossings of a Luxemburg modular.

    All active panels are bisected together each wave, and their node values
    come from the store in one batch.  A panel's children are accepted once
    the parent-children discrepancy fits in a budget proportional to the
    panel's share of the domain; a global test retires the whole queue early
    when the total outstanding discrepancy is already below tolerance.  The
    store's edges hold the break points, where the integrand may have a
    kink, as QUADPACK's QAGP takes its break points; its ``rest`` is added.

    One shift c serves the whole integral: the largest log integrand t (the
    transform plus the store's log weight) at the nodes, raised, with the sums
    rescaled, by a wave that exceeds it.  t - c is formed before anything is
    exponentiated, so a huge constant t sums exactly, and a panel's value is
    exp(t - c) @ weights times its half width.

    Returns the log of the integral against the store's measure, a float,
    and the accepted panels' ends; the error estimate, in units of e^c, only
    decides acceptance.  Past the depth or panel budget it raises
    ConvergenceFailureError whose ``best_estimate`` is the log of the
    accepted sum plus the mass of the live panels and whose ``error_bound``
    is the accepted error plus that live mass, relative to
    exp(best_estimate), both floats.
    """

    def terms(p_lo, p_hi):
        g, log_w = nodes.rows(p_lo, p_hi)
        t = transform(g) if log_w is None else transform(g) + log_w
        _check_finite(t, p_lo, p_hi)
        return t

    edges = nodes.edges if breaks is None else _merged(nodes.edges, breaks)
    p_lo, p_hi = edges[:-1].copy(), edges[1:].copy()
    t = terms(p_lo, p_hi)
    rest = nodes.rest(transform)[0]
    c = np.maximum(t.max(), rest)
    # an integrand that vanishes at every node of the first wave is zero
    if not np.isfinite(c):
        return float(c + nodes.log_density), np.array([nodes.lo]), np.array([nodes.hi])
    p_val = (np.exp(t - c) @ _WEIGHTS) * (0.5 * (p_hi - p_lo))
    acc_sum, acc_err = np.exp(rest - c), 0.0
    done_lo, done_hi = [], []

    for _depth in range(_MAX_DEPTH):
        k = p_lo.size
        mid = 0.5 * (p_lo + p_hi)
        c_lo = np.concatenate([p_lo, mid])
        c_hi = np.concatenate([mid, p_hi])
        t = terms(c_lo, c_hi)

        new_c = t.max()
        if new_c > c:
            shift = np.exp(c - new_c)
            acc_sum, acc_err, p_val, c = acc_sum * shift, acc_err * shift, p_val * shift, new_c

        s_child = (np.exp(t - c) @ _WEIGHTS) * (0.5 * (c_hi - c_lo))
        s_pair = s_child[:k] + s_child[k:]
        err = np.abs(s_pair - p_val)

        # every panel of a wave is live: a done one leaves the queue
        scale_ref = np.maximum(acc_sum + np.add.reduce(s_pair), 1e-300)
        budget = cfg.rel_tol * scale_ref * ((p_hi - p_lo) / (nodes.hi - nodes.lo))
        done = (err <= budget) | (err <= 1e-16 * scale_ref)
        if np.add.reduce(err, where=~done) + acc_err <= cfg.rel_tol * scale_ref:
            done[:] = True

        acc_sum += np.add.reduce(s_pair, where=done)
        acc_err += np.add.reduce(err, where=done)
        done_lo += [c_lo[:k][done], c_lo[k:][done]]
        done_hi += [c_hi[:k][done], c_hi[k:][done]]
        if done.all():
            log_sum = float(c + np.log(acc_sum) + nodes.log_density) if acc_sum > 0.0 else -math.inf
            return log_sum, np.concatenate(done_lo), np.concatenate(done_hi)

        keep = ~done
        p_lo = np.concatenate([c_lo[:k][keep], c_lo[k:][keep]])
        p_hi = np.concatenate([c_hi[:k][keep], c_hi[k:][keep]])
        p_val = np.concatenate([s_child[:k][keep], s_child[k:][keep]])
        if p_lo.size > _MAX_PANELS:
            break

    live_mass = np.add.reduce(p_val)
    total = acc_sum + live_mass
    with np.errstate(divide="ignore", invalid="ignore"):
        # crude bound: the full live mass, relative to the estimate
        best, bound = c + np.log(total) + nodes.log_density, (acc_err + live_mass) / total
    raise ConvergenceFailureError(f"quadrature did not converge within depth {_MAX_DEPTH}", best_estimate=float(best), error_bound=float(bound))


class _NodeRule:
    """Composite Gauss rule on the union of adaptive panelizations of the
    interval of a node store, the sorted distinct panel ends ``ends``.

    Its node values ``g`` and their log weights ``logw``, a row per panel,
    are the store's rows and the log of the Gauss weights times the panels'
    half widths, plus the store's log weights; each query adds a singular
    end's ``rest``, as ``_adaptive`` does.  The store evaluates each node
    once, for every integral alike.
    """

    def __init__(self, nodes: _NodeStore, ends):
        self._nodes = nodes
        self._edges = np.array([nodes.lo, nodes.hi])
        self.join(*ends)

    def join(self, *ends):
        """Refine the rule with the panels of further integrals, given as
        arrays of panel ends."""
        self._edges = _sorted_distinct(np.concatenate([self._edges, *ends]))
        lo, hi = self._edges[:-1], self._edges[1:]
        self.g, log_w = self._nodes.rows(lo, hi)
        with np.errstate(divide="ignore"):
            self.logw = _LOG_WEIGHTS[None, :] + np.log(0.5 * (hi - lo))[:, None]
        self.logw = self.logw if log_w is None else self.logw + log_w
        _check_finite(self.g, lo, hi)

    def log_mean(self, log_integrand, moment: bool = False):
        """log of the rule applied to exp(log_integrand(g)) plus the store's
        log_density, one per row: g is the row of node values.  Each row's
        terms are summed by one matrix product, shifted by the row's largest
        term, or by 0 where that is not finite: a row of zeros gives -inf,
        and +inf or NaN propagates.

        With ``moment`` it also returns, per row, the mean of g under the
        normalised weights pi of the rule's terms; a node whose term is 0
        (g = -inf, say) has weight 0 and adds 0.  A singular end's ``rest``
        joins each sum, and its weight times its own mean of g each mean.
        """
        g = self.g.ravel()[None, :]
        # -inf + inf and -inf - -inf are NaN terms, and a row of zeros has log 0;
        # only a row whose largest term is +inf (its shift reset to 0) can
        # overflow exp, and its sum is +inf either way
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            a = log_integrand(g) + self.logw.ravel()[None, :]
            if self._nodes.q is not None:
                # the rest is one more term a row, with its own mean of g
                rest, rest_mean = self._nodes.rest(lambda g: log_integrand(g)[:, None, :])
                a, g = np.column_stack([a, rest]), np.column_stack([np.broadcast_to(g, a.shape), rest_mean])
            shift = a.max(axis=1)
            shift[~np.isfinite(shift)] = 0.0
            # the shifted terms overwrite a unless the moment reads it, so a
            # query of many rows holds two rows x nodes arrays at most, not three
            terms = np.subtract(a, shift[:, None], out=None if moment else a)
            log_sum = np.log(np.exp(terms, out=terms) @ np.ones(a.shape[1])) + shift
            if not moment:
                return log_sum + self._nodes.log_density
            pi = np.exp(a - log_sum[:, None])
        return log_sum + self._nodes.log_density, np.add.reduce(pi * np.where(pi > 0.0, g, 0.0), axis=1)

    def crossings(self, level, points, values):
        """Where log|f|, the node values of this rule, crosses ``level``: at
        most once between consecutive break ``points`` of f (``values`` log|f|
        there), interpolated linearly between the straddling nodes or break
        points (in |f| next to a zero of f), as ``_inner_points`` keeps them
        inside the rule's edges."""
        xs = np.concatenate([_panel_nodes(self._edges[:-1], self._edges[1:])[0].ravel(), points])
        order = xs.argsort(kind="stable")
        xs, d = xs[order], np.concatenate([self.g.ravel(), values])[order] - level
        i = ((d[:-1] > 0.0) != (d[1:] > 0.0)).nonzero()[0]
        d0, d1 = d[i], d[i + 1]
        with np.errstate(invalid="ignore", over="ignore"):
            frac = np.where(d0 == -math.inf, np.exp(-d1), np.where(d1 == -math.inf, -np.expm1(-d0), d0 / (d0 - d1)))
        return _inner_points(self._edges, xs[i] + frac * (xs[i + 1] - xs[i]))


class PowerNormEvaluator(_NodeRule):
    """Evaluates e -> (integral of e^(e g))^(1/e) for many e from one cached
    panelization of a node store of g.

    A node rule on the union of the panels of the store's exact integrals
    of exp(e g), ``power_integral``, at the e of ``yardsticks``: the store
    integrates only those it does not hold yet.  Each query is then a
    single vectorized log-sum-exp, a singular end's rest included.  On a
    store of log|f|, ``log_norm(p)`` is log ||f||_p.  Intended for scan
    loops; the returned maximizer should be re-validated with a fully
    adaptive integral on the same store (see norms module).
    """

    def __init__(self, nodes: _NodeStore, cfg: QuadratureConfig, yardsticks):
        super().__init__(nodes, [ends for e in yardsticks for ends in nodes.power_integral(float(e), cfg)[1:]])
        self.node_count = self.g.size

    def log_norm(self, e, moment: bool = False):
        """log (integral of e^(e g))^(1/e) at each e of an array; with
        ``moment`` also E_pi[g], pi the normalised node weights of e^(e g),
        from which the scans take their slopes in the exponent."""
        e_arr = np.atleast_1d(np.asarray(e, dtype=float))
        if not moment:
            return self.log_mean(lambda g: e_arr[:, None] * g) / e_arr
        log_mean, mean_g = self.log_mean(lambda g: e_arr[:, None] * g, moment=True)
        return log_mean / e_arr, mean_g


def _power_norm(nodes: _NodeStore, e: float, q: float, cfg: QuadratureConfig) -> float:
    """(integral of e^(e g))^(1/q), the adaptive integral on a node store of
    g: ||f||_p at e = q = p on a store of log|f|, ||f||_(p,b) at e = p / b,
    q = b on the level store of the layer cake."""
    # exp(-inf) is 0 where the integrand vanishes on every node
    return math.exp(nodes.power_integral(e, cfg)[0] / q)


def _check_lp_exponent(p: float) -> None:
    """RejectedInputError unless 0 < p < inf: the range of ``lp_quasinorm``
    and of ``norms.lp_spec``."""
    if not (0.0 < p < math.inf):
        raise RejectedInputError(f"exponent must be positive and finite, got {p!r}")


def lp_quasinorm(f, p: float, domain: Domain | None = None, cfg: QuadratureConfig = DEFAULT_CONFIG) -> float:
    """(integral |f|^p dmu)^(1/p); a norm for p >= 1, quasinorm below.

    The integral is on f's own domain, which ``domain``, if given, must be,
    or RejectedInputError, and starts with the break points of f as panel
    edges.  A singular end of power q that f states makes the norm infinite
    at q p >= 1, which raises ScanDivergenceError before any integral.
    """
    _check_lp_exponent(p)
    if domain is not None and domain != _carrier(f)[0]:
        raise RejectedInputError(f"{type(f).__name__} is taken on its own domain {f.natural_domain}, not on {domain}")
    nodes = _abs_nodes(f)
    if nodes.q is not None and nodes.q * p >= 1.0:
        raise ScanDivergenceError(
            f"||f||_p is infinite: q p = {nodes.q * p:g} >= 1, so p = {p:g} reaches 1/q = {1.0 / nodes.q:g} "
            f"(q = {nodes.q:g}, the power of f's singular end)"
        )
    return _power_norm(nodes, p, p, cfg)


def _break_values(f, bounded: bool):
    """Break points of f on its domain and |f| at them.

    An undefined value raises DomainEvaluationError, and so does an
    infinite one when ``bounded``.
    """
    xs = _carrier(f)[1]
    vals = np.abs(f(xs))
    bad = ~np.isfinite(vals) if bounded else np.isnan(vals)
    if bad.any():
        x = float(xs[np.argmax(bad)])
        raise DomainEvaluationError(f"function is not finite at x = {x!r}", abscissa=x)
    return xs, vals


def sup_norm(f) -> float:
    """Sup of |f|: its largest value over the break points of f, between
    which |f| is monotone.  Unbounded f raises DomainEvaluationError."""
    return float(_break_values(f, bounded=True)[1].max())


# a crossing's first bracket is one of this many cells of its piece.  A warm
# seed-7 ``lorentz`` pass took 368 solver steps at 64 cells and 296 at 512,
# but a finer table moves crossings within their collapsed brackets, and so
# T by up to 2.5e-13 relative where T < 0.011
_CELLS = 64
# steps before a bracketed root solve gives up with its end of smaller |g|;
# from a table cell, a crossing within 1e-6 relative of a critical value of
# |f| takes up to 69 (10,008 such levels of 84 corpus and random functions)
_MAX_ROOT_STEPS = 200


def _where(c, a, b):
    """np.where of one lane."""
    return a if c else b


def _minimum(a, b):
    """np.minimum of two floats: NaN if either is, and b on a tie, as of two
    zeros of either sign."""
    return a if a < b or a != a else b


def _maximum(a, b):
    """np.maximum of two floats: NaN if either is, and b on a tie."""
    return a if a > b or a != a else b


def _divide(a, b):
    """a / b of two floats, numpy's signed inf or NaN where b is zero."""
    try:
        return a / b
    except ZeroDivisionError:
        return math.nan if a == 0.0 or a != a else math.copysign(math.inf, a) * math.copysign(1.0, b)


# the selections a root step takes from numpy on arrays of lanes, and the
# same selections on one lane of Python floats
_ON_ARRAYS = (np.where, np.minimum, np.maximum, np.isfinite, np.true_divide)
_ON_FLOATS = (_where, _minimum, _maximum, math.isfinite, _divide)


def _nan_at(x: float) -> DomainEvaluationError:
    return DomainEvaluationError(f"root solve: g is NaN at x = {x!r}", abscissa=x)


def _first_state(where, xn, xp, gn, gp, tol, unmoved, unbounded):
    """The state of live lanes before their first step, a list: the bracket
    and g at its ends; the end values regula falsi reads, scaled; which end
    moved last; the last point and the last two step lengths; the bracket
    widths before each of the last three steps, oldest first; xp - xn and
    its width; tol and tol / 2.  ``unmoved`` and ``unbounded`` are False and
    inf in every lane."""
    d = xp - xn
    width = abs(d)
    return [xn, xp, gn, gp, gn, gp, unmoved, unmoved, where(-gn < gp, xn, xp), width, width, unbounded, unbounded, unbounded, d, width, tol, 0.5 * tol]


def _step_point(ops, state):
    """The half of a step of ``_bracketed_root`` before g, on the lanes of
    ``state``, with the selections ``ops``: the point x where g is taken
    next.  Each half empties the list ``state`` and refills it with the
    state after it, so that, as in a loop that rebinds its variables, each
    array of the old state is freed once the step has replaced it."""
    where, minimum, maximum, isfinite, divide = ops
    xn, xp, gn, gp, sn, sp, pos_moved, neg_moved, last, step, older, w3, w2, w1, d, width, tol, half = state
    state.clear()
    span = sn - sp
    x = minimum(maximum(xn + divide(sn, span) * d, minimum(xn, xp) + half), maximum(xn, xp) - half)
    # an infinite end value would pin regula falsi to the other end: the
    # upper end of ``_dual_weight``'s bracket is +inf where h overflows there,
    # as h = e^(2y) of power_log(2) has at an end near y = 745
    falsi = (abs(x - last) <= 0.5 * older) & isfinite(span) & (width <= 0.5 * w3)
    x = where(falsi, x, 0.5 * (xn + xp))
    step, older, last = abs(x - last), step, x
    w3, w2, w1 = w2, w1, width
    state += (xn, xp, gn, gp, sn, sp, pos_moved, neg_moved, last, step, older, w3, w2, w1, d, width, tol, half)
    return x


def _step_update(ops, state, x, gx):
    """The half of a step after g, once g(x) = gx, which is not NaN: which
    lanes are done, collapsed or on a zero of g, which g_neg is then."""
    where, _minimum, _maximum, _isfinite, divide = ops
    xn, xp, gn, gp, sn, sp, pos_moved, neg_moved, last, step, older, w3, w2, w1, d, width, tol, half = state
    state.clear()
    up = gx > 0.0
    scale = 1.0 - divide(gx, where(up, sp, sn))
    scale = where(scale > 0.0, scale, 0.5)
    sn = where(up, where(pos_moved, scale * sn, sn), gx)
    sp = where(up, gx, where(neg_moved, scale * sp, sp))
    # gx is not NaN, so the negative end moved where it is not up
    pos_moved, neg_moved = up, gx <= 0.0
    xn, xp, gn, gp = where(up, xn, x), where(up, x, xp), where(up, gn, gx), where(up, gx, gp)
    d = xp - xn
    width = abs(d)
    state += (xn, xp, gn, gp, sn, sp, pos_moved, neg_moved, last, step, older, w3, w2, w1, d, width, tol, half)
    return (width <= tol) | (gx == 0.0)


# at most this many live lanes step on Python floats, in lockstep, with one
# call of g a step: a numpy operation costs about 0.5 us whatever its length,
# and a solve of x^3 = c on 2, 4 and 8 lanes took 98, 123 and 200 us so,
# against 320, 283 and 347 us on arrays, on a 2-vCPU x86 machine; in three
# sweeps a warm seed-7 ``lorentz`` pass took at best 43.2 to 43.7 ms at 8
# lanes, 42.2 to 45.1 at 16 and 42.1 to 44.5 at 32, and 46.6 to 53.8 ms with
# one lane on floats
_FLOAT_LANES = 8


def _bracketed_root(g, x_neg, x_pos, g_neg, g_pos, tol, stop=None):
    """Collapse brackets around roots of g, lane by lane, to width tol.

    Lane i runs from x_neg[i], where g <= 0, to x_pos[i], where g >= 0, and
    g(x, lanes) returns g of lane lanes[i] at x[i].  tol is one width for
    every lane or an array of one a lane; a lane's steps depend only on its
    own bracket, values and tol.  ``stop(x_neg, x_pos)``, if given, marks
    the lanes whose brackets after a step locate their roots already; those
    stop there, uncollapsed.  Regula falsi with
    Anderson-Bjorck scaling of an end kept twice running, and three
    safeguards: two from Brent's method, a step longer than half the step
    before last becomes a bisection and every point stays tol / 2 inside the
    bracket, so a converged iterate gets straddled; and, as ITP bounds its
    steps, a bracket wider than half its width three steps before is
    bisected, so at least every fourth step halves it.  Returns the
    collapsed (x_neg, x_pos, g_neg, g_pos), both ends on a zero of g where
    one is found.

    A step, ``_step_point`` and then ``_step_update`` around one call of g,
    follows numpy's operation order throughout: the bracket difference
    xp - xn is taken once a step and read by the width, the regula-falsi
    point and the stop test, tol / 2 once a lane, and the clip is a maximum,
    then a minimum, as ``np.clip`` takes them.  So a lane's iterates have
    the bits of a loop that recomputes xp - xn at each use and calls
    ``np.clip``, alone or among other lanes.  While more than _FLOAT_LANES
    lanes are live, a step runs on arrays of them, and one that finishes
    lanes drops them from every array of the state by the integer positions
    of the rest, found once, which numpy gathers faster than a boolean
    mask.  The last _FLOAT_LANES or fewer, as the lone lane of a call, run
    on Python floats, each through the same two halves with float
    selections that give numpy's NaN and signed-zero results, and so with
    the same bits and steps.  They step in lockstep: g gets the points of
    all of them in one array a step, ``stop`` their brackets, and the floats
    of g's values are read.  While two or more lanes are live, g runs with
    numpy's divide, overflow and invalid warnings off; a lane alone, the
    one lane of a call or the last one live, calls g under the caller's
    error state.
    """
    lone = x_neg.size == 1
    if lone:
        x_neg, x_pos, g_neg, g_pos = (v.item() for v in (x_neg, x_pos, g_neg, g_pos))
    valid = (g_neg <= 0.0) & (g_pos >= 0.0)
    if not (valid if lone else valid.all()):
        raise RejectedInputError("root solve: g must be <= 0 at x_neg and >= 0 at x_pos in every lane")
    where = _where if lone else np.where
    # a zero of g at either end moves both ends onto it
    x_pos, g_pos = where(g_neg == 0.0, x_neg, x_pos), where(g_neg == 0.0, 0.0, g_pos)
    x_neg, g_neg = where(g_pos == 0.0, x_pos, x_neg), where(g_pos == 0.0, 0.0, g_neg)

    if lone:
        live = np.arange(int(g_neg < 0.0))
        lanes = [_first_state(where, x_neg, x_pos, g_neg, g_pos, tol.item() if isinstance(tol, np.ndarray) else float(tol), False, math.inf)][: live.size]
        x_neg, x_pos, g_neg, g_pos = (np.array([v]) for v in (x_neg, x_pos, g_neg, g_pos))
    else:
        live = (g_neg < 0.0).nonzero()[0]
        state = _first_state(
            where,
            *(v[live] for v in (x_neg, x_pos, g_neg, g_pos)),
            tol[live] if isinstance(tol, np.ndarray) and tol.ndim else np.full(live.size, tol),
            np.zeros(live.size, dtype=bool),
            np.full(live.size, np.inf),
        )

    def evaluate(x):
        gx = g(x, live)
        # one reduction a step; the sum is also NaN on inf - inf
        if math.isnan(np.add.reduce(gx)) and np.isnan(gx).any():
            raise _nan_at(float(x[np.argmax(np.isnan(gx))]))
        return gx

    def float_step():
        nonlocal live, lanes
        xs = [_step_point(_ON_FLOATS, lane) for lane in lanes]
        gxs = g(np.array(xs), live).tolist()
        # one sum a step, as on arrays
        if math.isnan(sum(gxs)):
            raise _nan_at(next(x for x, gx in zip(xs, gxs) if math.isnan(gx)))
        done = [_step_update(_ON_FLOATS, lane, x, gx) for lane, x, gx in zip(lanes, xs, gxs)]
        if stop is not None:
            done = [a or b for a, b in zip(done, stop(*(np.array([lane[i] for lane in lanes]) for i in (0, 1))).tolist())]
        if True in done:
            for i in [i for i, lane_done in enumerate(done) if lane_done]:
                xn, xp, gn, gp = lanes[i][:4]
                zero = gn == 0.0
                x_neg[live[i]], x_pos[live[i]] = xn, xn if zero else xp
                g_neg[live[i]], g_pos[live[i]] = gn, 0.0 if zero else gp
            keep = [i for i, lane_done in enumerate(done) if not lane_done]
            live, lanes = live[keep], [lanes[i] for i in keep]

    steps = 0
    if not lone:
        # while two or more lanes are live, g and the array steps run quiet
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            while live.size > _FLOAT_LANES and steps < _MAX_ROOT_STEPS:
                steps += 1
                x = _step_point(_ON_ARRAYS, state)
                done = _step_update(_ON_ARRAYS, state, x, evaluate(x))
                if stop is not None:
                    done |= stop(state[0], state[1])
                fin = done.nonzero()[0]
                if fin.size:
                    idx = live[fin]
                    xn, xp, gn, gp = (v[fin] for v in state[:4])
                    # a zero of g, which only a finished lane's g_neg is, moves both ends onto it
                    zero = gn == 0.0
                    x_neg[idx], x_pos[idx] = xn, np.where(zero, xn, xp)
                    g_neg[idx], g_pos[idx] = gn, np.where(zero, 0.0, gp)
                    keep = (~done).nonzero()[0]
                    live, state[:] = live[keep], [v[keep] for v in state]
            # the state of each live lane, on Python floats
            lanes = [list(lane) for lane in zip(*(v.tolist() for v in state))]
            while len(lanes) > 1 and steps < _MAX_ROOT_STEPS:
                steps += 1
                float_step()
    while lanes and steps < _MAX_ROOT_STEPS:
        steps += 1
        float_step()
    if lanes:
        # the first live lane's end of smaller |g|
        xn, xp, gn, gp = lanes[0][:4]
        raise ConvergenceFailureError(f"root solve did not converge within {_MAX_ROOT_STEPS} steps", best_estimate=float(xn if -gn < gp else xp))
    return x_neg, x_pos, g_neg, g_pos


class LevelSampler:
    """Distribution function of |f| assembled from its monotone pieces.

    The break points of f cut the domain into pieces on which |f| is
    monotone.  The measure of { |f| > w } sums, over the pieces, the whole
    piece when w is below its smaller end value, nothing when w is at or
    above its larger one, and otherwise the part beyond the one crossing
    |f| = w.  The crossings of a batch of thresholds are solved together by a
    bracketed iteration, each one until its bracket has collapsed to rounding
    level.  A crossing's first bracket is a cell of the piece's table of |f|
    at _CELLS + 1 Chebyshev-Lobatto points, built on the first batch: the
    cell after the count of table values <= w, found for all lanes by one
    ``searchsorted``.  The whole piece is the bracket instead where that
    cell holds no sign change of |f| - w (rounding can make the table
    decrease on a flat stretch).  A crossing's bits so depend only on the
    sampler and its threshold.  The same crossings give the slope of T, by
    the coarea formula on the pieces: T'(w) is minus the density times the
    sum of 1 / |f'| over them, with f' from the derivative f reports.
    ``critical_values`` are 0 and the values of |f| at the break points,
    sorted: T is smooth between consecutive ones, and each of
    ``critical_floors`` is the smallest value merged into the critical value
    of its index, the same value where none is.

    An end value may be infinite at a singular end whose power q f states
    (``singular_end``), and ``sup_estimate`` is then inf: next to that end
    |f| = distance^-q, so the part of the piece above w is w^(-1/q) long, in
    closed form, with no crossing solved in x, where 1 - x cancels.  An
    infinite value without a stated power raises DomainEvaluationError.
    """

    def __init__(self, f):
        self._f = f
        domain, _xs, self._q = _carrier(f)
        xs, vals = _break_values(f, bounded=self._q is None)
        self.sup_estimate = float(vals.max())
        # a value below 1e-12 sup|f| is a computed zero of f and merges into
        # 0, and a value within 1e-12 of the next one merges into it: equal
        # extrema (|T_n| = 1) round apart, and every interval costs panels
        # and crossings downstream
        levels = _sorted_distinct(np.concatenate([np.where(vals < 1e-12 * self.sup_estimate, 0.0, vals), [0.0]]))
        apart = levels[1:] - levels[:-1] > 1e-12 * levels[1:]
        self.critical_values = levels[np.concatenate([apart, [True]])]
        self.critical_floors = levels[np.concatenate([[True], apart])]
        # per piece: its length, its ends where |f| is smaller and larger,
        # and the values there
        self._length = xs[1:] - xs[:-1]
        rising = vals[1:] > vals[:-1]
        self._below = np.where(rising, xs[:-1], xs[1:])
        self._above = np.where(rising, xs[1:], xs[:-1])
        self._v_min = np.minimum(vals[:-1], vals[1:])
        self._v_max = np.maximum(vals[:-1], vals[1:])
        # the widest bracket a crossing may end with
        self._tol = 2.0 * _EPS * max(1.0, abs(domain.lo), abs(domain.hi))
        self._density = domain.density

    @functools.cached_property
    def _df(self):
        """f', from the derivative that f reports."""
        report = getattr(self._f, "derivative", None)
        if report is None:
            raise RejectedInputError(f"{type(self._f).__name__} reports no derivative; the slope of T needs one")
        return report()

    def measure_above_batch(self, ws, slope: bool = False):
        """T(w) = mu{|f| > w} at each threshold of ``ws``, in its shape; with
        ``slope``, the pair (T, T') from the same crossings.  T is 1 below
        the smallest |f|, and a NaN threshold raises RejectedInputError."""
        ws = np.asarray(ws, dtype=float)
        flat_ws = ws.ravel()
        if np.isnan(flat_ws).any():
            raise RejectedInputError("threshold must not be NaN")
        # thresholds go in chunks of about 2^18 (piece, threshold) pairs at most
        size = max(1, 2**18 // self._length.size)
        parts = [self._measure(flat_ws[i : i + size], slope) for i in range(0, flat_ws.size, size)]
        out = np.concatenate(parts, axis=-1) if parts else np.zeros((2, 0) if slope else 0)
        out = out * self._density
        return (out[0].reshape(ws.shape), out[1].reshape(ws.shape)) if slope else out.reshape(ws.shape)

    @functools.cached_property
    def _table(self):
        """A row per piece: the ends of its _CELLS cells, from its end of
        smaller |f| to the other, and |f| there, the break values at the
        ends; and the lookup's keys piece + 1j |f|, each row's values
        sorted, in one sorted array."""
        xs = self._below[:, None] + np.sin(np.linspace(0.0, 0.5 * math.pi, _CELLS + 1)) ** 2 * (self._above - self._below)[:, None]
        xs[:, -1] = self._above
        vals = self._v_max[:, None].repeat(_CELLS + 1, axis=1)
        vals[:, 0] = self._v_min
        inner = xs[:, 1:-1]
        vals[:, 1:-1] = np.abs(self._f(inner.ravel())).reshape(inner.shape)
        keys = np.empty(vals.shape, dtype=complex)  # 1j * inf would be nan + inf j
        keys.real, keys.imag = np.arange(vals.shape[0])[:, None], vals
        keys.imag.sort(axis=1)
        return xs, vals, keys.ravel()

    def _measure(self, ws, slope):
        whole = ws[None, :] < self._v_min[:, None]
        out = self._length @ whole
        piece, j = (~whole & (ws[None, :] < self._v_max[:, None])).nonzero()
        if self._q is not None:
            # next to the stated end, |f| = distance^-q is above w on the last w^(-1/q)
            end = self._v_max[piece] == math.inf
            out = out + np.bincount(j[end], weights=ws[j[end]] ** (-1.0 / self._q), minlength=ws.size)
            piece, j = piece[~end], j[~end]
        w = ws[j]
        # the cell after the row's count of values <= w, or the whole piece
        # where rounding leaves that cell without a sign change of |f| - w
        xs, vals, keys = self._table
        k = keys.searchsorted(piece + 1j * w, side="right") - piece * (_CELLS + 1) - 1
        cell = (vals[piece, k] <= w) & (vals[piece, k + 1] >= w)
        k_neg, k_pos = np.where(cell, k, 0), np.where(cell, k + 1, _CELLS)
        x_neg, x_pos, _g_neg, _g_pos = _bracketed_root(
            lambda x, lanes: np.abs(self._f(x)) - w[lanes],
            xs[piece, k_neg],
            xs[piece, k_pos],
            vals[piece, k_neg] - w,
            vals[piece, k_pos] - w,
            self._tol,
        )
        roots = 0.5 * (x_neg + x_pos)
        above = self._above[piece]
        # the part of the piece beyond the crossing lies above w
        out = out + np.bincount(j, weights=np.abs(above - roots), minlength=ws.size)
        if not slope:
            return out
        with np.errstate(divide="ignore"):
            rate = np.bincount(j, weights=1.0 / np.abs(self._df(roots)), minlength=ws.size)
        return np.stack([out, -rate])


def distribution(f, w: float) -> float:
    """mu{ x : |f(x)| > w } for w >= 0."""
    if not (w >= 0.0):
        raise RejectedInputError(f"threshold must be nonnegative, got {w!r}")
    return float(LevelSampler(f).measure_above_batch(np.array([w]))[0])
