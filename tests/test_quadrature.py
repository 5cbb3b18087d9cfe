"""Quadrature layer: integration, log-mode accumulation, norms, level sets."""

import math
import warnings

import numpy as np
import pytest
from scipy.special import logsumexp

from orlimark.errors import ConvergenceFailureError, DomainEvaluationError
from orlimark.functions import InversePowerRep, PolynomialRep, chebyshev_t
from orlimark.harness import _CappedAbs
from orlimark.quadrature import (
    DEFAULT_CONFIG,
    SINGULAR_CONFIG,
    Domain,
    LevelSampler,
    QuadratureConfig,
    _logsumexp,
    as_vectorized,
    distribution,
    integrate,
    integrate_log,
    integrate_unnormalized,
    lp_quasinorm,
    sup_norm,
)

INTERVAL = Domain.interval()
CIRCLE = Domain.circle()


def test_interval_is_normalized():
    assert integrate(lambda x: np.ones_like(x), INTERVAL) == pytest.approx(1.0, rel=1e-12)


def test_polynomial_moments():
    # normalized measure dx/2 on [-1,1]: even moments are 1/(k+1)
    for k in (2, 4, 8):
        got = integrate(lambda x, k=k: x**k, INTERVAL)
        assert got == pytest.approx(1.0 / (k + 1), rel=1e-12)


def test_circle_mean_of_sin_squared():
    got = integrate(lambda t: np.sin(t) ** 2, CIRCLE)
    assert got == pytest.approx(0.5, rel=1e-12)


def test_unnormalized_integral():
    got = integrate_unnormalized(lambda x: x**2, 0.0, 2.0)
    assert got == pytest.approx(8.0 / 3.0, rel=1e-12)
    assert integrate_unnormalized(lambda x: x, 1.0, 1.0) == 0.0


def test_log_mode_matches_linear():
    f = PolynomialRep([2.0, 0.0, 1.0])  # 2 + x^2 > 0
    lin = integrate(f, INTERVAL)
    logv = integrate_log(lambda x: np.log(f(x)), INTERVAL)
    assert logv == pytest.approx(math.log(lin), abs=1e-12)


def test_log_mode_handles_huge_values():
    # exp(600) overflows double; the log-sum-exp path must not
    got = integrate_log(lambda x: np.full_like(x, 600.0), INTERVAL)
    assert got == pytest.approx(600.0, abs=1e-12)


def test_log_mode_all_neg_inf_returns_neg_inf():
    got = integrate_log(lambda x: np.full_like(x, -np.inf), INTERVAL)
    assert got == -math.inf


def test_integrable_singularity():
    # int_{-1}^{1} (1-x)^{-1/2} dx/2 = sqrt(2)/... closed form: [−2(1−x)^{1/2}]/2
    f = InversePowerRep(0.5)
    got = integrate(f, INTERVAL, SINGULAR_CONFIG)
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
    # a threshold equal to a sampled value
    grid = np.linspace(INTERVAL.lo, INTERVAL.hi, LevelSampler.PANELS + 1)
    w = float(np.abs(f(grid))[12345])
    assert sampler.measure_above(w) == pytest.approx(exact(w), abs=1e-10)
    assert sampler.measure_above(0.0) == pytest.approx(1.0, abs=1e-10)
    assert sampler.measure_above(sup) == 0.0
    assert sampler.measure_above(2.0 * sup) == 0.0


def test_level_sampler_plateaus():
    const = LevelSampler(PolynomialRep([0.7]), INTERVAL)
    assert list(const.measure_above_batch([0.0, 0.69, 0.7, 1.0])) == [1.0, 1.0, 0.0, 0.0]
    # (1 - x)^(-1/2) capped at 100 as the tail analysis samples it: the
    # measure above w < cap is w^(-2)/2, and nothing lies above the plateau
    capped = LevelSampler(_CappedAbs(InversePowerRep(0.5), 100.0), INTERVAL)
    ws = np.array([1.5, 3.0, 10.0, 50.0, 99.0])
    assert np.allclose(capped.measure_above_batch(ws), ws**-2 / 2.0, rtol=0.0, atol=1e-10)
    assert capped.measure_above(100.0) == 0.0
    assert capped.measure_above(0.5) == 1.0


def test_level_sampler_matches_mask_reference():
    # every panel tested against every threshold, crossings summed in panel
    # order: the run-based search must reproduce it bit for bit
    members = [
        PolynomialRep([0.1, 0.3, 1.0, -0.5]),
        chebyshev_t(9),
        _CappedAbs(InversePowerRep(0.5), 3.0),
        lambda x: np.minimum(np.abs(np.sin(7.0 * x)), 0.6),
    ]
    for f in members:
        sampler = LevelSampler(f, INTERVAL, panels=512)
        xs = np.linspace(INTERVAL.lo, INTERVAL.hi, 513)
        vals = np.abs(as_vectorized(f)(xs))
        ws = np.concatenate([np.linspace(0.0, 1.1 * vals.max(), 41), vals[::37]])
        mask = vals[:, None] > ws[None, :]
        full = (mask[:-1] & mask[1:]).sum(axis=0).astype(float) * (INTERVAL.length / 512)
        ci, cj = np.nonzero(mask[:-1] ^ mask[1:])
        lo_above = mask[ci, cj]
        roots = sampler._refine(xs[ci], xs[ci + 1], lo_above, ws[cj])
        partial = np.zeros(ws.size)
        np.add.at(partial, cj, np.where(lo_above, roots - xs[ci], xs[ci + 1] - roots))
        expect = (full + partial) * INTERVAL.density
        assert np.array_equal(sampler.measure_above_batch(ws), expect)


def test_convergence_failure_carries_estimate():
    # slope 1e16 concentrates all mass within ~1e-16 of the right endpoint;
    # a capped depth cannot settle the estimate, but the partial answer must
    # carry the right sign and order of magnitude
    def log_f(x):
        return 1e16 * np.asarray(x)

    capped = QuadratureConfig(rel_tol=1e-12, max_depth=12)
    with pytest.raises(ConvergenceFailureError) as info:
        integrate_log(log_f, INTERVAL, capped)
    assert info.value.best_estimate is not None
    assert info.value.best_estimate > 1e15
    assert info.value.error_bound is not None


def test_config_budget_is_respected():
    loose = QuadratureConfig(rel_tol=1e-4, max_depth=20)
    f = PolynomialRep([0.0, 0.0, 0.0, 0.0, 1.0])
    a = integrate(f, INTERVAL, loose)
    b = integrate(f, INTERVAL, DEFAULT_CONFIG)
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
