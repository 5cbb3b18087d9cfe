"""Quadrature layer: integration, log-mode accumulation, norms, level sets."""

import math
import warnings

import numpy as np
import pytest
from scipy.special import logsumexp

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
from orlimark.quadrature import (
    DEFAULT_CONFIG,
    SINGULAR_CONFIG,
    Domain,
    LevelSampler,
    QuadratureConfig,
    _initial_edges,
    _logsumexp,
    distribution,
    integrate_log,
    lp_quasinorm,
    sup_norm,
)

INTERVAL = Domain.interval()
CIRCLE = Domain.circle()


def log_mean(log_f, domain, cfg=DEFAULT_CONFIG):
    """log of the mean of exp(log_f) against the normalized measure."""
    return integrate_log(log_f, domain.lo, domain.hi, cfg) + math.log(domain.density)


def log_abs_power(k):
    def log_f(x):
        with np.errstate(divide="ignore"):
            return k * np.log(np.abs(x))

    return log_f


def test_interval_is_normalized():
    for dom in (INTERVAL, CIRCLE):
        assert lp_quasinorm(lambda x: np.ones_like(x), 1.0, dom) == pytest.approx(1.0, rel=1e-12)


def test_polynomial_moments():
    # normalized measure dx/2 on [-1,1]: even moments are 1/(k+1)
    for k in (2, 4, 8):
        got = math.exp(log_mean(log_abs_power(k), INTERVAL))
        assert got == pytest.approx(1.0 / (k + 1), rel=1e-12)


def test_circle_mean_of_sin_squared():
    got = math.exp(log_mean(lambda t: log_abs_power(2)(np.sin(t)), CIRCLE))
    assert got == pytest.approx(0.5, rel=1e-12)


def test_unnormalized_integral():
    # integrate_log itself integrates against plain dx over its ends
    got = integrate_log(log_abs_power(2), 0.0, 2.0)
    assert got == pytest.approx(math.log(8.0 / 3.0), abs=1e-12)


def test_log_mode_matches_linear():
    f = PolynomialRep([2.0, 0.0, 1.0])  # 2 + x^2 > 0, mean 7/3
    logv = log_mean(lambda x: np.log(f(x)), INTERVAL)
    assert logv == pytest.approx(math.log(7.0 / 3.0), abs=1e-12)


def test_log_mode_handles_huge_values():
    # exp(600) overflows double; the log-sum-exp path must not
    got = log_mean(lambda x: np.full_like(x, 600.0), INTERVAL)
    assert got == pytest.approx(600.0, abs=1e-12)


def test_log_mode_all_neg_inf_returns_neg_inf():
    got = log_mean(lambda x: np.full_like(x, -np.inf), INTERVAL)
    assert got == -math.inf


def test_integrable_singularity():
    # int_{-1}^{1} (1-x)^{-1/2} dx/2 = [-2(1-x)^{1/2}]/2 over [-1, 1] = sqrt(2)
    got = lp_quasinorm(InversePowerRep(0.5), 1.0, INTERVAL, SINGULAR_CONFIG)
    assert got == pytest.approx(math.sqrt(2.0), rel=1e-7)


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


def test_lp_quasinorm_plain_callable():
    # an object without break points integrates from the uniform panels
    assert lp_quasinorm(lambda x: x, 2, INTERVAL) == pytest.approx(1.0 / math.sqrt(3.0), rel=1e-13)


def test_initial_edges_take_the_break_points():
    # interior break points join the uniform edges; the ends, points outside
    # and points within rounding of an edge taken already add nothing
    eps = np.finfo(float).eps
    breaks = [-1.0, -0.3, -0.3 + eps, 0.5 + eps, 0.7, 1.0, 2.0]
    edges = _initial_edges(-1.0, 1.0, 4, breaks)
    assert edges.tolist() == [-1.0, -0.5, -0.3, 0.0, 0.5, 0.7, 1.0]
    assert np.array_equal(_initial_edges(-1.0, 1.0, 4, None), np.linspace(-1.0, 1.0, 5))


def test_lp_quasinorm_zero():
    assert lp_quasinorm(PolynomialRep([0.0]), 2.0, INTERVAL) == 0.0


def test_sup_norm_interior_and_endpoint():
    f = PolynomialRep([1.0, 0.0, -1.0])  # 1 - x^2, max at 0
    assert sup_norm(f, INTERVAL) == pytest.approx(1.0, rel=1e-9)
    g = PolynomialRep([0.0, 0.0, 1.0])  # x^2, max at the closed endpoints
    assert sup_norm(g, INTERVAL) == pytest.approx(1.0, rel=1e-12)


def test_sup_norm_rejects_unbounded():
    with pytest.raises(DomainEvaluationError):
        sup_norm(InversePowerRep(0.5), INTERVAL)


def test_distribution_of_identity():
    # m{ |x| > u } under dx/2 is 1-u on [0,1]
    f = PolynomialRep([0.0, 1.0])
    sampler = LevelSampler(f, INTERVAL)
    for u in (0.0, 0.25, 0.5, 0.99):
        assert distribution(f, u, INTERVAL, sampler) == pytest.approx(1.0 - u, abs=1e-10)
    assert distribution(f, 1.5, INTERVAL, sampler) == 0.0


def test_level_sampler_batch_matches_scalar():
    f = PolynomialRep([0.1, 0.3, 1.0, -0.5])
    sampler = LevelSampler(f, INTERVAL)
    ws = np.linspace(0.0, sampler.sup_estimate * 1.1, 17)
    batch = sampler.measure_above_batch(ws)
    singles = np.array([distribution(f, float(w), INTERVAL, sampler) for w in ws])
    assert np.allclose(batch, singles, atol=1e-12)


def test_level_sampler_chebyshev_closed_form():
    # x = cos(theta) turns {|T_n| > w} into theta-arcs of half-width
    # arccos(w)/n around k*pi/n; 2n monotone runs, one crossing in each
    n = 25
    f = chebyshev_t(n)
    sampler = LevelSampler(f, INTERVAL)
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
    # a threshold equal to |T_n| at an extremum: {|T_n| > 1 - d} has measure
    # about sqrt(d), so the rounding of the computed T_n there shows at 1e-8
    w = float(np.abs(f(np.array([math.cos(4 * math.pi / n)])))[0])
    assert sampler.measure_above(w) == pytest.approx(exact(min(w, 1.0)), abs=1e-7)
    assert sampler.measure_above(0.0) == pytest.approx(1.0, abs=1e-10)
    assert sampler.measure_above(sup) == 0.0
    assert sampler.measure_above(2.0 * sup) == 0.0


def test_level_sampler_plateaus():
    const = LevelSampler(PolynomialRep([0.7]), INTERVAL)
    assert list(const.measure_above_batch([0.0, 0.69, 0.7, 1.0])) == [1.0, 1.0, 0.0, 0.0]
    # (1 - x)^(-1/2) is one increasing piece with an infinite end value:
    # T(w) = min(1, w^(-2)/2) at every level
    singular = LevelSampler(InversePowerRep(0.5), INTERVAL)
    ws = np.array([0.5, 1.5, 3.0, 10.0, 50.0, 99.0, 1e6])
    expect = np.minimum(1.0, ws**-2 / 2.0)
    assert np.allclose(singular.measure_above_batch(ws), expect, rtol=1e-12, atol=1e-15)
    assert singular.sup_estimate == math.inf


def test_level_sampler_cosine_on_circle():
    # |cos(n t)| > w on arcs of total normalized measure (2/pi) arccos(w)
    n = 7
    sampler = LevelSampler(TrigPolynomialRep([0.0] * n + [1.0], [0.0] * n), CIRCLE)
    ws = np.linspace(0.0, 0.99, 34)
    expect = 2.0 / math.pi * np.arccos(ws)
    assert np.allclose(sampler.measure_above_batch(ws), expect, rtol=0.0, atol=1e-12)


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


@pytest.mark.parametrize(
    "f",
    [
        random_family("trig", 6, 3),
        random_family("rational", 5, 3),
        random_family("gap", 4, 3),
        GapDerivative(random_family("gap", 4, 3)),
        # a real node is a break point where Q' = Q S is 0 times 0/0
        GapDerivative(GapRep([(0.1, 0.0, 2.0), (-0.5, 0.4, 1.5)])),
    ],
    ids=["trig", "rational", "gap", "gap-derivative", "gap-derivative-real-node"],
)
def test_level_sampler_matches_dense_reference(f):
    dom = f.natural_domain
    sampler = LevelSampler(f, dom)
    dense_max = float(np.max(np.abs(f(np.linspace(dom.lo, dom.hi, 2**16 + 1)))))
    assert dense_max <= sampler.sup_estimate <= dense_max * (1.0 + 1e-6)
    assert sup_norm(f, dom) == sampler.sup_estimate
    ws = np.linspace(0.0, sampler.sup_estimate, 25)[1:-1]
    got = sampler.measure_above_batch(ws)
    assert np.allclose(got, _dense_distribution(f, dom, ws), rtol=0.0, atol=1e-6)


def test_plain_callable_rejected():
    # T and the sup come from break points, which a bare callable cannot report
    with pytest.raises(RejectedInputError):
        LevelSampler(lambda x: np.sin(3.0 * x), INTERVAL)
    with pytest.raises(RejectedInputError):
        sup_norm(lambda x: np.sin(3.0 * x), INTERVAL)


def test_convergence_failure_carries_estimate():
    # slope 1e16 concentrates all mass within ~1e-16 of the right endpoint;
    # a capped depth cannot settle the estimate, but the partial answer must
    # carry the right sign and order of magnitude
    def log_f(x):
        return 1e16 * np.asarray(x)

    capped = QuadratureConfig(rel_tol=1e-12, max_depth=12)
    with pytest.raises(ConvergenceFailureError) as info:
        integrate_log(log_f, INTERVAL.lo, INTERVAL.hi, capped)
    assert info.value.best_estimate is not None
    assert info.value.best_estimate > 1e15
    assert info.value.error_bound is not None


def test_config_budget_is_respected():
    loose = QuadratureConfig(rel_tol=1e-4, max_depth=20)
    a = math.exp(log_mean(log_abs_power(4), INTERVAL, loose))
    b = math.exp(log_mean(log_abs_power(4), INTERVAL, DEFAULT_CONFIG))
    assert a == pytest.approx(b, rel=1e-4)


@pytest.mark.parametrize("shape", [(1, 16), (400, 16), (3, 5000)])
def test_logsumexp_matches_scipy_bit_for_bit(shape):
    # scipy's logsumexp is the reference: same bits on random rows, ties at
    # the maximum and rows holding -inf only, +inf or NaN
    rng = np.random.default_rng(sum(shape))
    a = rng.uniform(-1e4, 1e4, shape)
    ties = rng.uniform(-1.0, 1.0, shape)
    ties[:, 1::3] = ties.max(axis=1, keepdims=True)
    special = rng.uniform(-30.0, 30.0, (3, shape[1]))
    special[0] = -np.inf
    special[1, -1] = np.inf
    special[2, 0] = np.nan
    draws = [rng.uniform(-scale, scale, shape) for scale in (1.0, 30.0) for _ in range(4)]
    for rows in (a, ties, special, *draws):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = _logsumexp(rows)
        assert np.array_equal(got, logsumexp(rows, axis=1), equal_nan=True)
