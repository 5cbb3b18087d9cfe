"""Property suites: homogeneity, monotonicity, Chebyshev, scale invariance.

Hypothesis budgets are kept small because each example runs adaptive
quadrature; the deterministic acceptance suite re-checks the same laws on
fixed corpora.
"""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from orlimark.conjugate import power_log, psi
from orlimark.functions import PolynomialRep
from orlimark.harness import markov_ratio
from orlimark.norms import NormContext, g_norm, lorentz_norm, luxemburg_norm, orlicz_spec
from orlimark.quadrature import Domain, LevelSampler, distribution, lp_quasinorm

INTERVAL = Domain.interval()
PHI2 = power_log(2.0)
CTX = NormContext()

coeff = st.floats(min_value=-2.0, max_value=2.0, allow_nan=False, allow_infinity=False)


def nonzero_poly(coeffs):
    p = PolynomialRep(coeffs)
    return p if p.degree >= 0 and max(abs(c) for c in coeffs) > 1e-3 else None


poly_strategy = (
    st.lists(coeff, min_size=1, max_size=5)
    .map(nonzero_poly)
    .filter(lambda p: p is not None)
)

scale_strategy = st.floats(min_value=0.1, max_value=10.0, allow_nan=False)


@settings(max_examples=20, deadline=None)
@given(f=poly_strategy, c=scale_strategy)
def test_luxemburg_homogeneity(f, c):
    n = CTX.orlicz(PHI2)
    base = luxemburg_norm(f, n)
    scaled = luxemburg_norm(PolynomialRep([c * v for v in f.coeffs]), n)
    assert scaled == pytest.approx(c * base, rel=1e-8)


@settings(max_examples=12, deadline=None)
@given(f=poly_strategy, c=scale_strategy)
def test_g_norm_homogeneity(f, c):
    cache = CTX.conjugates(PHI2)
    base = g_norm(f, PHI2, cache=cache)
    scaled = g_norm(PolynomialRep([c * v for v in f.coeffs]), PHI2, cache=cache)
    assert scaled == pytest.approx(c * base, rel=1e-8)


@settings(max_examples=10, deadline=None)
@given(f=poly_strategy, c=scale_strategy)
# levels next to 0 put w = 0 at a quadrature node, where w^(b-1) = 1 at b = 1
@example(f=PolynomialRep([2.2250738585072014e-308, 1.5625]), c=1.0)
def test_lorentz_homogeneity(f, c):
    base = lorentz_norm(f, 2.0, 1.0)
    scaled = lorentz_norm(PolynomialRep([c * v for v in f.coeffs]), 2.0, 1.0)
    assert scaled == pytest.approx(c * base, rel=1e-8)


@settings(max_examples=20, deadline=None)
@given(f=poly_strategy)
def test_lyapunov_monotone_in_p(f):
    # normalized measure: p -> ||f||_p is nondecreasing
    ps = (0.5, 1.0, 2.0, 4.0, 8.0, 16.0)
    values = [lp_quasinorm(f, p, INTERVAL) for p in ps]
    for lo, hi in zip(values, values[1:]):
        assert hi >= lo * (1.0 - 1e-9)


@settings(max_examples=15, deadline=None)
@given(f=poly_strategy, frac=st.floats(min_value=0.05, max_value=0.95), p=st.sampled_from([1.0, 2.0]))
def test_chebyshev_inequality(f, frac, p):
    sampler = LevelSampler(f, INTERVAL)
    if sampler.sup_estimate <= 0.0:
        return
    w = frac * sampler.sup_estimate
    t = distribution(f, w, INTERVAL, sampler)
    bound = (lp_quasinorm(f, p, INTERVAL) / w) ** p
    assert t <= bound * (1.0 + 1e-9) + 1e-12


@settings(max_examples=8, deadline=None)
@given(
    f=st.lists(coeff, min_size=2, max_size=4).map(nonzero_poly).filter(
        lambda p: p is not None and p.degree >= 1
    )
)
def test_markov_ratio_scale_invariant(f):
    spec = orlicz_spec(PHI2)
    a = markov_ratio(f, spec, ctx=CTX)
    b = markov_ratio(PolynomialRep([1e3 * v for v in f.coeffs]), spec, ctx=CTX)
    assert b == pytest.approx(a, rel=1e-8)


@settings(max_examples=20, deadline=None)
@given(p=st.floats(min_value=1.0, max_value=100.0), m=st.sampled_from([1.0, 2.0, 4.0]))
def test_psi_closed_form_random_points(p, m):
    if p < max(1.0, m / 2.0):
        return
    expect = (p / m) ** (1.0 / m) * math.exp(-1.0 / m)
    assert psi(power_log(m), p) == pytest.approx(expect, rel=1e-6)


@settings(max_examples=15, deadline=None)
@given(
    u=st.floats(min_value=0.01, max_value=3.0),
    v=st.floats(min_value=0.01, max_value=3.0),
)
def test_orlicz_n_midpoint_convexity(u, v):
    n = CTX.orlicz(PHI2)
    left = float(n.n_eval(np.array([(u + v) / 2.0]))[0])
    right = (float(n.n_eval(np.array([u]))[0]) + float(n.n_eval(np.array([v]))[0])) / 2.0
    assert left <= right + 1e-9 * (1.0 + abs(right))
