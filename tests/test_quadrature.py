"""Quadrature layer: integration, log-mode accumulation, norms, level sets."""

import math

import mpmath as mp
import numpy as np
import pytest

from orlimark import quadrature
from orlimark.errors import ConvergenceFailureError, DomainEvaluationError, RejectedInputError
from orlimark.functions import (
    GapDerivative,
    GapRep,
    InversePowerRep,
    PolynomialRep,
    TrigPolynomialRep,
    chebyshev_t,
    random_family,
)
from orlimark.harness import build_corpus
from orlimark.quadrature import (
    DEFAULT_CONFIG,
    Domain,
    LevelSampler,
    QuadratureConfig,
    _abs_nodes,
    _adaptive,
    _initial_edges,
    _NodeRule,
    _NodeStore,
    distribution,
    log_abs_of,
    lp_quasinorm,
    sup_norm,
)

INTERVAL = Domain.interval()
CIRCLE = Domain.circle()


def integrate(log_f, lo, hi, cfg=DEFAULT_CONFIG, breaks=()):
    """log of the plain integral of exp(log_f) over [lo, hi], the panels starting at ``breaks``."""
    return _adaptive(_NodeStore(log_f, _initial_edges(lo, hi, breaks)), lambda g: g, cfg)[0]


def log_mean(log_f, domain, cfg=DEFAULT_CONFIG):
    """log of the mean of exp(log_f) against the normalized measure."""
    return integrate(log_f, domain.lo, domain.hi, cfg) + math.log(domain.density)


def log_abs_power(k):
    def log_f(x):
        with np.errstate(divide="ignore"):
            return k * np.log(np.abs(x))

    return log_f


def test_interval_is_normalized():
    for one in (PolynomialRep([1.0]), TrigPolynomialRep([1.0], [])):
        assert lp_quasinorm(one, 1.0, one.natural_domain) == pytest.approx(1.0, rel=1e-12)


def test_polynomial_moments():
    # normalized measure dx/2 on [-1,1]: even moments are 1/(k+1)
    for k in (2, 4, 8):
        got = math.exp(log_mean(log_abs_power(k), INTERVAL))
        assert got == pytest.approx(1.0 / (k + 1), rel=1e-12)


def test_circle_mean_of_sin_squared():
    got = math.exp(log_mean(lambda t: log_abs_power(2)(np.sin(t)), CIRCLE))
    assert got == pytest.approx(0.5, rel=1e-12)


def test_unnormalized_integral():
    # the adaptive integral itself is taken against plain dx over its ends
    got = integrate(log_abs_power(2), 0.0, 2.0)
    assert got == pytest.approx(math.log(8.0 / 3.0), abs=1e-12)


def test_log_mode_matches_linear():
    f = PolynomialRep([2.0, 0.0, 1.0])  # 2 + x^2 > 0, mean 7/3
    logv = log_mean(lambda x: np.log(f(x)), INTERVAL)
    assert logv == pytest.approx(math.log(7.0 / 3.0), abs=1e-12)


def test_log_mode_handles_huge_values():
    # exp(600) overflows double; the log-sum-exp path must not
    got = log_mean(lambda x: np.full_like(x, 600.0), INTERVAL)
    assert got == pytest.approx(600.0, abs=1e-12)


@pytest.mark.parametrize("c", [1e7, 1e8, 1e12, 1e15])
def test_large_log_integrand_sums_without_rounding(c):
    # g - c is formed before anything is exponentiated: a constant log
    # integrand far above 1 sums exactly, to c + log 2 on [-1, 1]
    got = integrate(lambda x: np.full_like(x, c), -1.0, 1.0)
    assert abs(got - (c + math.log(2.0))) <= np.spacing(c)


def test_log_mode_all_neg_inf_returns_neg_inf():
    got = log_mean(lambda x: np.full_like(x, -np.inf), INTERVAL)
    assert got == -math.inf


def test_non_finite_integrand_names_its_abscissa():
    with pytest.raises(DomainEvaluationError, match="not finite") as info:
        integrate(lambda x: np.where(x > 0.3, np.nan, 0.0), -1.0, 1.0)
    assert 0.3 < info.value.abscissa <= 1.0


def test_integrable_singularity():
    # int_{-1}^{1} (1-x)^{-1/2} dx/2 = [-2(1-x)^{1/2}]/2 over [-1, 1] = sqrt(2)
    got = lp_quasinorm(InversePowerRep(0.5), 1.0, INTERVAL)
    assert got == pytest.approx(math.sqrt(2.0), rel=1e-12)


@pytest.mark.parametrize("q, beta", [(0.5, 0.8), (0.8, 0.9), (0.9, 0.95), (0.99, 1.0)])
def test_singular_end_matches_closed_form(q, beta):
    # ||(1 - x)^-q||_beta^beta = 2^-s / (1 - s) against dx/2, s = q beta: the
    # piece next to x = 1 is integrated in -log(1 - x), the rest in closed form
    s = q * beta
    got = lp_quasinorm(InversePowerRep(q), beta, INTERVAL)
    assert got == pytest.approx((2.0**-s / (1.0 - s)) ** (1.0 / beta), rel=1e-12)


@pytest.mark.parametrize("q, beta", [(0.6, 2.0), (1.0, 2.0)])
def test_non_integrable_singular_end_raises(q, beta):
    # q beta >= 1: |f|^beta is not integrable at x = 1
    with pytest.raises(ConvergenceFailureError):
        lp_quasinorm(InversePowerRep(q), beta, INTERVAL)


@pytest.mark.parametrize("q", [0.5, 0.9])
@pytest.mark.parametrize("w", [10.0, 1e3, 1e5, 1e8, 1e12])
def test_distribution_beside_a_singular_end(q, w):
    # |(1 - x)^-q| > w on the last w^(-1/q) of [-1, 1], against dx/2; a
    # crossing solved in x loses 1 - w^(-1/q) to rounding as w grows
    with mp.workdps(30):
        want = float(mp.mpf(w) ** (-1 / mp.mpf(q)) / 2)
    assert distribution(InversePowerRep(q), w) == pytest.approx(want, rel=1e-12, abs=0.0)


@pytest.mark.parametrize("q", [k / 10 for k in range(1, 40)])
def test_node_store_growth_is_the_stated_power(q):
    # a secant of g on [y_1, 2 y_1] read q an ulp off at 0.9, 1.5 and 3.0
    assert _abs_nodes(InversePowerRep(q)).q == q


def test_infinite_break_value_without_a_stated_power_raises():
    class Unstated:
        natural_domain = INTERVAL

        def break_points(self):
            return np.array([-1.0, 1.0])

        def __call__(self, x):
            with np.errstate(divide="ignore"):
                return 1.0 / np.sqrt(1.0 - np.asarray(x, dtype=float))

    with pytest.raises(DomainEvaluationError, match="not finite"):
        distribution(Unstated(), 10.0)


def test_lp_quasinorm_closed_form():
    f = PolynomialRep([0.0, 1.0])
    for p in (0.5, 1.0, 2.0, 4.0):
        expect = (1.0 / (p + 1.0)) ** (1.0 / p)
        assert lp_quasinorm(f, p, INTERVAL) == pytest.approx(expect, rel=1e-10)


def test_lp_quasinorm_scaling_tight():
    # scaling must hold to 1e-10 relative, not merely to quadrature tolerance
    f = PolynomialRep([0.3, -1.2, 0.8])
    base = lp_quasinorm(f, 3.0, INTERVAL)
    for c in (0.1, 3.0, 100.0):
        scaled = lp_quasinorm(PolynomialRep([c * v for v in f.coeffs]), 3.0, INTERVAL)
        assert scaled == pytest.approx(c * base, rel=1e-10)


def test_lp_quasinorm_of_identity():
    # ||x||_2 = 1/sqrt(3) against dx/2 on [-1, 1], kinked at its zero x = 0
    assert lp_quasinorm(PolynomialRep([0.0, 1.0]), 2, INTERVAL) == pytest.approx(1.0 / math.sqrt(3.0), rel=1e-13)


def test_gauss_rule_is_leggauss():
    # the rule's tabulated half, mirrored, is numpy's leggauss(16) to the bit
    nodes, weights = np.polynomial.legendre.leggauss(16)
    assert quadrature._NODES.tobytes() == nodes.tobytes()
    assert quadrature._WEIGHTS.tobytes() == weights.tobytes()


def test_initial_edges_take_the_break_points():
    # interior break points join the eight uniform edges; the ends, points
    # outside and points within rounding of an edge taken already add nothing
    eps = np.finfo(float).eps
    breaks = [-1.0, -0.3, -0.3 + eps, 0.5 + eps, 0.7, 1.0, 2.0]
    edges = _initial_edges(-1.0, 1.0, breaks)
    assert edges.tolist() == [-1.0, -0.75, -0.5, -0.3, -0.25, 0.0, 0.25, 0.5, 0.7, 0.75, 1.0]
    assert np.array_equal(_initial_edges(-1.0, 1.0, []), np.linspace(-1.0, 1.0, 9))


def test_lp_quasinorm_zero():
    assert lp_quasinorm(PolynomialRep([0.0]), 2.0, INTERVAL) == 0.0


def test_sup_norm_interior_and_endpoint():
    f = PolynomialRep([1.0, 0.0, -1.0])  # 1 - x^2, max at 0
    assert sup_norm(f) == pytest.approx(1.0, rel=1e-9)
    g = PolynomialRep([0.0, 0.0, 1.0])  # x^2, max at the closed endpoints
    assert sup_norm(g) == pytest.approx(1.0, rel=1e-12)


def test_sup_norm_rejects_unbounded():
    with pytest.raises(DomainEvaluationError):
        sup_norm(InversePowerRep(0.5))


def test_distribution_of_identity():
    # m{ |x| > u } under dx/2 is 1-u on [0,1]
    f = PolynomialRep([0.0, 1.0])
    for u in (0.0, 0.25, 0.5, 0.99):
        assert distribution(f, u) == pytest.approx(1.0 - u, abs=1e-10)
    assert distribution(f, 1.5) == 0.0


def test_level_sampler_batch_matches_scalar():
    f = PolynomialRep([0.1, 0.3, 1.0, -0.5])
    sampler = LevelSampler(f)
    ws = np.linspace(0.0, sampler.sup_estimate * 1.1, 17)
    batch = sampler.measure_above_batch(ws)
    singles = np.array([distribution(f, float(w)) for w in ws])
    assert np.allclose(batch, singles, atol=1e-12)


# 1,000 thresholds inside (0, 1), each crossing every one of the 50
# monotone pieces of T_25 once
THRESHOLDS_25 = np.linspace(0.0005, 0.9995, 1000)


def test_level_sampler_chebyshev_closed_form():
    # x = cos(theta) turns {|T_n| > w} into theta-arcs of half-width
    # arccos(w)/n around k*pi/n; 2n monotone runs, one crossing in each
    n = 25
    f = chebyshev_t(n)
    sampler = LevelSampler(f)
    sup = sampler.sup_estimate

    def exact(w):
        half = math.acos(w) / n
        centers = np.arange(n + 1) * math.pi / n
        a = np.clip(centers - half, 0.0, math.pi)
        b = np.clip(centers + half, 0.0, math.pi)
        return float(np.sum(np.abs(np.cos(a) - np.cos(b)))) / 2.0

    ws = np.linspace(0.05, 0.95, 37) * sup
    for w, got in zip(ws, sampler.measure_above_batch(ws)):
        assert got == pytest.approx(exact(w), abs=1e-10)
    got = sampler.measure_above_batch(THRESHOLDS_25)
    assert np.max(np.abs(got - [exact(w) for w in THRESHOLDS_25])) <= 1e-14
    # a threshold equal to |T_n| at an extremum: {|T_n| > 1 - d} has measure
    # about sqrt(d), so the rounding of the computed T_n there shows at 1e-8
    w = float(np.abs(f(np.array([math.cos(4 * math.pi / n)])))[0])
    t = sampler.measure_above_batch(np.array([w, 0.0, sup, 2.0 * sup]))
    assert t[0] == pytest.approx(exact(min(w, 1.0)), abs=1e-7)
    assert t[1] == pytest.approx(1.0, abs=1e-10)
    assert t[2] == t[3] == 0.0


def test_level_sampler_plateaus():
    const = LevelSampler(PolynomialRep([0.7]))
    assert list(const.measure_above_batch([0.0, 0.69, 0.7, 1.0])) == [1.0, 1.0, 0.0, 0.0]
    # (1 - x)^(-1/2) is one increasing piece with an infinite end value:
    # T(w) = min(1, w^(-2)/2) at every level
    singular = LevelSampler(InversePowerRep(0.5))
    ws = np.array([0.5, 1.5, 3.0, 10.0, 50.0, 99.0, 1e6])
    expect = np.minimum(1.0, ws**-2 / 2.0)
    assert np.allclose(singular.measure_above_batch(ws), expect, rtol=1e-12, atol=1e-15)
    assert singular.sup_estimate == math.inf


def test_level_sampler_cosine_on_circle():
    # |cos(n t)| > w on arcs of total normalized measure (2/pi) arccos(w)
    n = 7
    sampler = LevelSampler(TrigPolynomialRep([0.0] * n + [1.0], [0.0] * n))
    ws = np.linspace(0.0, 0.99, 34)
    expect = 2.0 / math.pi * np.arccos(ws)
    assert np.allclose(sampler.measure_above_batch(ws), expect, rtol=0.0, atol=1e-12)


def test_level_sampler_slope_closed_forms():
    # |x| on [-1, 1]: T(w) = 1 - w; |cos(7t)| on the circle:
    # T(w) = (2/pi) arccos(w), T'(w) = -(2/pi) / sqrt(1 - w^2)
    ws = np.linspace(0.05, 0.95, 19)
    t, dt = LevelSampler(PolynomialRep([0.0, 1.0])).measure_above_batch(ws, slope=True)
    assert np.allclose(t, 1.0 - ws, rtol=0.0, atol=1e-15)
    assert np.allclose(dt, -1.0, rtol=1e-14, atol=0.0)
    t, dt = LevelSampler(TrigPolynomialRep([0.0] * 7 + [1.0], [0.0] * 7)).measure_above_batch(ws, slope=True)
    assert np.allclose(t, 2.0 / math.pi * np.arccos(ws), rtol=0.0, atol=1e-12)
    assert np.allclose(dt, -2.0 / math.pi / np.sqrt(1.0 - ws**2), rtol=1e-12, atol=0.0)


def test_rounding_level_values_merge_into_zero():
    # |sin(40x)| at its 80 computed zeros is rounding noise, not 80 levels
    sampler = LevelSampler(TrigPolynomialRep([0.0] * 41, [0.0] * 39 + [1.0]))
    assert sampler.critical_values.tolist() == [0.0, pytest.approx(1.0, rel=1e-14)]


def test_crossing_by_a_flat_minimum_is_bounded(monkeypatch):
    # a level a few ulps above the flat minimum of |gap-01| at x = 0.943 sits
    # 1.4e-8 from it, where regula falsi creeps; 53 halvings collapse any
    # double bracket, and the solve stays within twice that
    f = dict(build_corpus(7))["gap-01"]
    sampler = LevelSampler(f)
    xs = f.break_points()
    x_min = float(xs[np.argmin(np.abs(xs - 0.9434))])
    steps, solve = [], quadrature._bracketed_root

    def counted(g, *args):
        calls = [0]

        def g_counted(x, lanes):
            calls[0] += 1
            return g(x, lanes)

        out = solve(g_counted, *args)
        steps.append(calls[0])
        return out

    monkeypatch.setattr(quadrature, "_bracketed_root", counted)
    w = float(np.abs(f(np.array([x_min])))[0]) + 2.7755575615628914e-16
    assert 0.0 < sampler.measure_above_batch(np.array([w]))[0] < 1.0
    assert 60 < steps[0] <= 2 * 53


def test_crossings_start_from_a_table_cell(monkeypatch):
    # a crossing's first bracket is a cell of its piece's table of |f|, so
    # with the table's 50 x 63 evaluations included it takes fewer than 6
    # evaluations of f a lane (7.6 from the whole piece)
    f = chebyshev_t(25)
    assert f.break_points().size == 51
    points, call = [0], PolynomialRep.__call__

    def counted(self, x):
        points[0] += np.size(x)
        return call(self, x)

    monkeypatch.setattr(PolynomialRep, "__call__", counted)
    sampler = LevelSampler(f)
    points[0] = 0
    sampler.measure_above_batch(THRESHOLDS_25)
    assert points[0] <= 6 * 50 * THRESHOLDS_25.size


class _Blip:
    """|x| on [-1, 1], raised at the point ``x_top`` to |x_high|: a stand-in
    for the rounding that can make a table of |f| decrease on a flat stretch."""

    natural_domain = INTERVAL

    def __init__(self, x_top, x_high):
        self.x_top, self.x_high = x_top, x_high

    def __call__(self, x):
        x = np.asarray(x, dtype=float)
        return np.where(x == self.x_top, self.x_high, np.abs(x))

    def break_points(self):
        return np.array([-1.0, 0.0, 1.0])


@pytest.mark.parametrize("f", [chebyshev_t(25), "blip"], ids=["chebyshev", "blip"])
def test_table_cell_matches_whole_piece(monkeypatch, f):
    # at the table's values and one ulp on either side, T from the cell
    # brackets is T from the whole-piece brackets, a one-cell table; within
    # 5e-4 of an extremum the rounding of T_25 moves T by more than 1e-14
    # (the crossings of T_25 = 1 - d lie about sqrt(d) from the extrema)
    blip = f == "blip"
    if blip:
        # point 10 of the table of [0, 1] takes the value of point 12, so
        # the values of points 10 and 11 decrease: at the value of point 11
        # and one ulp above, the cell after the count of values <= w, [10,
        # 11], holds no sign change, and the lane solves on the whole piece
        xs = LevelSampler(PolynomialRep([0.0, 1.0]))._table[0][1]
        f = _Blip(xs[10], xs[12])
        ws = np.array([xs[11], np.nextafter(xs[11], np.inf)])
    sampler = LevelSampler(f)
    if not blip:
        ws = np.unique(sampler._table[1])
        ws = ws[(ws >= THRESHOLDS_25[0]) & (ws <= THRESHOLDS_25[-1])]
        ws = np.concatenate([np.nextafter(ws, 0.0), ws, np.nextafter(ws, np.inf)])
    brackets, solve = [], quadrature._bracketed_root

    def recorded(g, x_neg, x_pos, *args):
        brackets.append((x_neg, x_pos))
        return solve(g, x_neg, x_pos, *args)

    monkeypatch.setattr(quadrature, "_bracketed_root", recorded)
    got = sampler.measure_above_batch(ws)
    x_neg, x_pos = brackets[0]
    whole = np.count_nonzero((x_neg == 0.0) & (x_pos == 1.0))
    assert whole == (2 if blip else 0)
    monkeypatch.setattr(quadrature, "_CELLS", 1)
    assert np.max(np.abs(got - LevelSampler(f).measure_above_batch(ws))) <= 1e-14


def test_distribution_rejects_nan_threshold():
    with pytest.raises(ValueError, match="threshold"):
        distribution(PolynomialRep([0.3, 1.0, -0.7]), math.nan)


def test_config_rejects_infinite_tolerance():
    with pytest.raises(ValueError, match="rel_tol"):
        QuadratureConfig(rel_tol=math.inf)


def test_lp_quasinorm_rejects_infinite_exponent():
    with pytest.raises(ValueError, match="exponent"):
        lp_quasinorm(PolynomialRep([0.3, 1.0, -0.7]), math.inf, INTERVAL)


def _dense_distribution(f, domain, ws, cells=2**20):
    # f taken linear on each of 2^20 cells; the part of a cell where the line
    # is above w or below -w is exact for the line, off by O(h^2) for f
    xs = np.linspace(domain.lo, domain.hi, cells + 1)
    vals = np.concatenate([f(chunk) for chunk in np.array_split(xs, 64)])
    a, b = vals[:-1], vals[1:]
    top, bottom = np.maximum(a, b), np.minimum(a, b)
    span = np.where(top > bottom, top - bottom, np.inf)
    out = []
    for w in ws:
        above = np.clip((top - w) / span, 0.0, 1.0) + np.clip((-w - bottom) / span, 0.0, 1.0)
        flat = top == bottom
        above[flat] = np.abs(top[flat]) > w
        out.append(float(np.sum(above)) / cells)
    return np.array(out)


SAMPLED = [
    random_family("trig", 6, 3),
    random_family("rational", 5, 3),
    random_family("gap", 4, 3),
    GapDerivative(random_family("gap", 4, 3)),
    # a real node is a break point where Q' = Q S is 0 times 0/0
    GapDerivative(GapRep([(0.1, 0.0, 2.0), (-0.5, 0.4, 1.5)])),
]
SAMPLED_IDS = ["trig", "rational", "gap", "gap-derivative", "gap-derivative-real-node"]


@pytest.mark.parametrize("f", SAMPLED, ids=SAMPLED_IDS)
def test_level_sampler_matches_dense_reference(f):
    dom = f.natural_domain
    sampler = LevelSampler(f)
    dense_max = float(np.max(np.abs(f(np.linspace(dom.lo, dom.hi, 2**16 + 1)))))
    assert dense_max <= sampler.sup_estimate <= dense_max * (1.0 + 1e-6)
    assert sup_norm(f) == sampler.sup_estimate
    ws = np.linspace(0.0, sampler.sup_estimate, 25)[1:-1]
    got = sampler.measure_above_batch(ws)
    assert np.allclose(got, _dense_distribution(f, dom, ws), rtol=0.0, atol=1e-6)


@pytest.mark.parametrize("f", SAMPLED, ids=SAMPLED_IDS)
def test_level_sampler_slope_matches_central_difference(f):
    # at the middle of each critical interval, where T is smooth, that is
    # wide enough for a difference quotient
    sampler = LevelSampler(f)
    levels = sampler.critical_values
    wide = np.diff(levels) > 1e-3 * levels[-1]
    ws, hs = 0.5 * (levels[1:] + levels[:-1])[wide], 1e-4 * np.diff(levels)[wide]
    _t, dt = sampler.measure_above_batch(ws, slope=True)
    central = (sampler.measure_above_batch(ws + hs) - sampler.measure_above_batch(ws - hs)) / (2.0 * hs)
    assert np.allclose(dt, central, rtol=1e-6, atol=0.0)


def test_plain_callable_rejected():
    # every entry point starts from f's domain and break points, which a bare
    # callable cannot report
    for call in (
        lambda: LevelSampler(np.sin),
        lambda: sup_norm(np.sin),
        lambda: lp_quasinorm(np.sin, 2.0, INTERVAL),
        lambda: distribution(np.sin, 0.5),
    ):
        with pytest.raises(RejectedInputError, match="reports no natural domain or no break points"):
            call()


@pytest.mark.parametrize(
    "f, domain",
    [
        (dict(build_corpus(7))["trig-03"], INTERVAL),
        (PolynomialRep([0.3, 1.0, -0.7]), Domain("interval", -0.5, 0.5)),
    ],
    ids=["trig-on-interval", "polynomial-on-half-interval"],
)
def test_lp_quasinorm_rejects_another_domain(f, domain):
    # a function carries its domain: L_p on another one is not a norm of f,
    # and trig-03's L_2 over [-1, 1] is 1.0294 against 0.93181 on the circle
    with pytest.raises(RejectedInputError, match="its own domain"):
        lp_quasinorm(f, 2.0, domain)
    assert lp_quasinorm(f, 2.0, f.natural_domain) > 0.0


def test_convergence_failure_carries_estimate():
    # e^1e16 times a factor e^(64 sin(1e20 x)) that changes from one double
    # to the next: no depth settles the estimate, but the partial answer
    # must carry the right sign and order of magnitude
    def log_f(x):
        return 1e16 + 64.0 * np.sin(1e20 * np.asarray(x))

    tight = QuadratureConfig(rel_tol=1e-12)
    with pytest.raises(ConvergenceFailureError) as info:
        integrate(log_f, INTERVAL.lo, INTERVAL.hi, tight)
    assert info.value.best_estimate is not None
    assert info.value.best_estimate > 1e15
    # relative to exp(best_estimate): at most the whole estimate
    assert 0.0 < info.value.error_bound <= 1.0 + 1e-12


def test_config_budget_is_respected():
    loose = QuadratureConfig(rel_tol=1e-4)
    a = math.exp(log_mean(log_abs_power(4), INTERVAL, loose))
    b = math.exp(log_mean(log_abs_power(4), INTERVAL, DEFAULT_CONFIG))
    assert a == pytest.approx(b, rel=1e-4)


def test_log_mean_matches_mpmath():
    # the rule's log-sum-exp, one shifted matrix product a row, against
    # 30-digit sums of the same terms: random rows, rows with -inf terms,
    # ties at the maximum and a constant near 1e15; a row of zeros gives
    # -inf, and +inf and NaN propagate
    f = chebyshev_t(12)
    nodes = _NodeStore(log_abs_of(f), _initial_edges(-1.0, 1.0, f.break_points()))
    rule = _NodeRule(nodes, _adaptive(nodes, lambda g: 60.0 * g, DEFAULT_CONFIG)[2:])
    size = rule.g.size
    rng = np.random.default_rng(5)
    rows = np.stack(
        [
            rng.uniform(-30.0, 30.0, size),
            np.where(rng.random(size) < 0.5, -np.inf, rng.uniform(-1e3, 1e3, size)),
            rng.choice([-2.0, 0.5, 7.0], size),
            np.full(size, 3.0),
            np.full(size, 1e15),
            1e15 + rng.uniform(-8.0, 8.0, size),
            np.full(size, -np.inf),
        ]
    )
    got = rule.log_mean(lambda _g: rows)
    terms = rows + rule.logw.ravel()[None, :]
    with mp.workdps(30):
        for row, value in zip(terms, got[:-1]):
            ref = float(mp.log(mp.fsum(mp.exp(mp.mpf(x)) for x in row if x != -np.inf)))
            assert abs(value - ref) <= 1e-13 + 2.0 * np.spacing(abs(ref)), (value, ref)
    assert got[-1] == -np.inf
    special = np.full((2, size), 1.0)
    special[0, -1], special[1, 0] = np.inf, np.nan
    inf, nan = rule.log_mean(lambda _g: special)
    assert inf == np.inf and np.isnan(nan)


def test_break_point_next_to_an_edge_is_merged():
    # T_12's extremum at x = 0.5 rounds 1e-15 off the uniform edge there; a
    # panel that narrow would round its Gauss nodes onto a few abscissae
    edges = _initial_edges(-1.0, 1.0, chebyshev_t(12).break_points())
    assert np.min(np.diff(edges)) > np.finfo(float).eps * 2.0 / np.min(np.diff(quadrature._NODES))
    xs = quadrature._panel_nodes(edges[:-1], edges[1:])[0]
    assert all(np.unique(row).size == 16 for row in xs)


def test_lanes_share_one_pass():
    # three transforms of one store integrated together: each lane within
    # rel_tol of a 50-digit mpmath value of |T_12|^e on [-1, 1], split at
    # the break points cos(k pi / 24), twice the even integrand's on [0, 1]
    f, es = chebyshev_t(12), np.array([1.0, 32.0, 1024.0])
    values, errors, _lo, _hi = _adaptive(_abs_nodes(f), lambda g: es[:, None, None] * g, DEFAULT_CONFIG)
    assert values.shape == errors.shape == es.shape
    coeffs = [int(c) for c in np.polynomial.chebyshev.cheb2poly([0] * 12 + [1])[::-1]]
    with mp.workdps(50):
        points = [mp.cos(mp.pi * k / 24) for k in range(12, -1, -1)]
        for e, value in zip(es, values):
            ref = 2 * mp.quad(lambda x, e=int(e): abs(mp.polyval(coeffs, x)) ** e, points)
            assert math.exp(value) == pytest.approx(float(ref), rel=DEFAULT_CONFIG.rel_tol)


def test_node_store_evaluates_each_panel_once():
    # the panels of |T_12|^60 refine most, not all, of those of |T_12|; both
    # integrals and the rule on their union read one store, which evaluates
    # every node once, and each integral keeps its one-shot bits
    f = chebyshev_t(12)
    log_f, breaks, points = log_abs_of(f), f.break_points(), []

    def counted(xs):
        points.append(xs.copy())
        return log_f(xs)

    nodes = _NodeStore(counted, _initial_edges(-1.0, 1.0, breaks))
    first, second = (_adaptive(nodes, lambda g, e=e: e * g, DEFAULT_CONFIG) for e in (1.0, 60.0))
    for e, result in ((1.0, first), (60.0, second)):
        assert result[0] == integrate(lambda xs, e=e: e * log_f(xs), -1.0, 1.0, DEFAULT_CONFIG, breaks)
    rule = _NodeRule(nodes, first[2:])
    held = len(points)
    rule.join(*second[2:])
    assert len(points) == held
    # every node is evaluated once, and no two nodes round onto one abscissa
    nodes_seen = np.concatenate(points)
    assert np.unique(nodes_seen).size == nodes_seen.size
    fresh = _NodeRule(_abs_nodes(f), first[2:] + second[2:])
    assert rule.g.tobytes() == fresh.g.tobytes() and rule.logw.tobytes() == fresh.logw.tobytes()
