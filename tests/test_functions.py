"""Function representations: evaluation, derivatives, serialization, poles."""

import math
from fractions import Fraction

import numpy as np
import pytest

from orlimark import functions
from orlimark.conjugate import power_log
from orlimark.errors import DegenerateInputError, PoleProximityError, RejectedInputError
from orlimark.functions import (
    GapRep,
    InversePowerRep,
    PolynomialRep,
    RationalRep,
    TrigPolynomialRep,
    chebyshev_t,
    check_no_poles,
    derivative,
    from_text,
    jacobi22,
    random_family,
    to_text,
)
from orlimark.norms import g_norm_info, luxemburg_norm
from orlimark.quadrature import Domain, LevelSampler, lp_quasinorm


def _jacobi22_exact(n: int) -> list[Fraction]:
    """Reference P_n^(2,2) in exact monomial coefficients (Rodrigues formula).

    The n-th derivative of (1 - x^2)^(n+2), divided exactly by (1 - x^2)^2
    and scaled by (-1)^n / (2^n n!).
    """
    top = [Fraction(0)] * (2 * (n + 2) + 1)
    for k in range(n + 2 + 1):
        top[2 * k] = Fraction((-1) ** k * math.comb(n + 2, k))
    deriv = [Fraction(0)] * (len(top) - n)
    for j in range(n, len(top)):
        if top[j] != 0:
            deriv[j - n] = top[j] * math.perm(j, n)
    # divide by (x^2 - 1)^2 = x^4 - 2x^2 + 1; monic so the quotient is exact
    divisor = [Fraction(1), Fraction(0), Fraction(-2), Fraction(0), Fraction(1)]
    rem = list(deriv)
    q = [Fraction(0)] * (len(rem) - 4)
    for i in range(len(rem) - 1, 3, -1):
        c = rem[i]
        q[i - 4] = c
        if c != 0:
            for j, d in enumerate(divisor):
                rem[i - 4 + j] -= c * d
    assert not any(rem[:4]), "exact division failed"
    scale = Fraction((-1) ** n, 2**n * math.factorial(n))
    return [c * scale for c in q]


class TestPolynomial:
    def test_eval_matches_numpy(self):
        rng = np.random.default_rng(5)
        c = rng.standard_normal(7)
        p = PolynomialRep(c)
        xs = np.linspace(-1, 1, 31)
        assert np.allclose(p(xs), np.polynomial.polynomial.polyval(xs, c))

    def test_degree_trims_trailing_zeros(self):
        assert PolynomialRep([1.0, 2.0, 0.0, 0.0]).degree == 1
        assert PolynomialRep([0.0]).degree == -1

    def test_derivative_drops_degree(self):
        p = PolynomialRep([1.0, -2.0, 0.0, 4.0])
        dp = p.derivative()
        assert dp.degree == p.degree - 1
        assert dp.coeffs == (-2.0, 0.0, 12.0)

    def test_zero_polynomial_evaluates_to_zero(self):
        p = PolynomialRep([0.0, 0.0])
        assert p(0.3) == 0.0
        assert p.derivative().degree == -1

    def test_rejects_nonfinite_coeffs(self):
        with pytest.raises(Exception):
            PolynomialRep([1.0, math.inf])


class TestJacobi:
    def test_value_at_one_is_binomial(self):
        # P_n^{(2,2)}(1) = C(n+2, 2)
        for n in (1, 3, 7, 15, 40, 80, 200):
            expect = (n + 1) * (n + 2) / 2
            assert float(jacobi22(n)(1.0)) == pytest.approx(expect, rel=1e-12)

    def test_high_degree_eval_matches_exact_rational(self):
        # degree 40 has monomial coefficients ~1e12; the Clenshaw path must
        # stay at roundoff level where naive Horner loses ~12 digits
        exact = _jacobi22_exact(40)
        p = jacobi22(40)
        for xr in (Fraction(1, 3), Fraction(-9, 10), Fraction(99, 100)):
            want = float(sum(c * xr**k for k, c in enumerate(exact)))
            assert float(p(float(xr))) == pytest.approx(want, rel=1e-12)

    def test_orthogonality_weighted(self):
        # 64-point Gauss-Legendre is exact up to degree 127; the integrands
        # reach degree 4 + 7 + 12 = 23
        xs, ws = np.polynomial.legendre.leggauss(64)
        for m, n in ((0, 1), (2, 5), (3, 4), (7, 12)):
            pm, pn = jacobi22(m), jacobi22(n)
            val = 0.5 * np.dot(ws, (1 - xs**2) ** 2 * pm(xs) * pn(xs))
            assert abs(val) < 1e-10

    def test_recurrence_agrees_with_exact(self):
        # the monomial coefficients derived from the Chebyshev recurrence
        # must match the exact Rodrigues construction to near machine precision
        p41 = jacobi22(41)
        exact = [float(c) for c in _jacobi22_exact(41)]
        assert np.allclose(p41.coeffs, exact, rtol=1e-10, atol=0.0)

    def test_high_degree_matches_mpmath(self):
        # 50-digit reference values of P_n^(2,2) on 41 points
        import mpmath

        xs = np.linspace(-1.0, 1.0, 41)
        with mpmath.workdps(50):
            for n in (80, 150, 200):
                want = np.array([float(mpmath.jacobi(n, 2, 2, mpmath.mpf(float(x)))) for x in xs])
                err = np.max(np.abs(jacobi22(n)(xs) - want)) / np.max(np.abs(want))
                assert err <= 1e-12, (n, err)

    def test_degree_bounds(self):
        for bad in (-1, 201, 3.5):
            with pytest.raises(ValueError):
                jacobi22(bad)


def test_chebyshev_matches_cosine():
    t = chebyshev_t(12)
    thetas = np.linspace(0.0, math.pi, 25)
    assert np.allclose(t(np.cos(thetas)), np.cos(12 * thetas), atol=1e-12)


class TestTrig:
    def test_eval(self):
        q = TrigPolynomialRep([0.5, 1.0, 0.0], [0.0, -2.0])
        ts = np.linspace(0, 2 * math.pi, 17)
        want = 0.5 + np.cos(ts) - 2.0 * np.sin(2 * ts)
        assert np.allclose(q(ts), want)

    def test_derivative(self):
        q = TrigPolynomialRep([0.0, 0.0, 3.0], [1.0, 0.0])
        dq = q.derivative()
        ts = np.linspace(0, 2 * math.pi, 17)
        want = np.cos(ts) - 6.0 * np.sin(2 * ts)
        assert np.allclose(dq(ts), want)

    def test_degree_trim(self):
        q = TrigPolynomialRep([1.0, 0.0, 0.0], [2.0, 0.0])
        assert q.degree == 1

    def test_coeff_length_mismatch(self):
        with pytest.raises(ValueError):
            TrigPolynomialRep([1.0, 0.0], [0.0, 0.0])


class TestRational:
    def test_degree_is_max_of_parts(self):
        q = RationalRep([1.0], [1.0, 0.0, 1.0])
        assert q.degree == 2
        assert RationalRep([0.0, 0.0, 0.0, 2.0], [1.0]).degree == 3

    def test_eval(self):
        q = RationalRep([1.0], [1.0, 0.0, 1.0])
        xs = np.linspace(-1, 1, 9)
        assert np.allclose(q(xs), 1.0 / (1.0 + xs**2))

    def test_derivative_quotient_rule(self):
        q = RationalRep([1.0], [1.0, 0.0, 1.0])
        dq = q.derivative()
        xs = np.linspace(-0.9, 0.9, 9)
        want = -2.0 * xs / (1.0 + xs**2) ** 2
        assert np.allclose(dq(xs), want, atol=1e-14)

    def test_pole_proximity_raises_on_eval(self):
        q = RationalRep([1.0], [0.0, 1.0])
        with pytest.raises(PoleProximityError):
            q(0.0)

    def test_zero_denominator_rejected(self):
        with pytest.raises(DegenerateInputError):
            RationalRep([1.0], [0.0])


@pytest.mark.parametrize(
    "f",
    [PolynomialRep([0.3, -1.2, 0.5, 0.9, -0.4]), RationalRep([0.2, 1.0, -0.5], [1.5, 0.0, 1.0])],
    ids=["polynomial", "rational"],
)
def test_break_points_computed_once_per_domain(f, monkeypatch, ctx):
    solves = []
    real_zeros = functions._real_zeros

    def counted(series):
        solves.append(series)
        return real_zeros(series)

    monkeypatch.setattr(functions, "_real_zeros", counted)
    phi = power_log(2.0)
    dom = f.natural_domain
    luxemburg_norm(f, ctx.orlicz(phi))
    once = len(solves)
    assert once > 0
    g_norm_info(f, phi, cache=ctx.conjugates(phi))
    lp_quasinorm(f, 3.0, dom)
    LevelSampler(f, dom)
    xs = f.break_points(dom)
    assert len(solves) == once
    assert not xs.flags.writeable
    with pytest.raises(ValueError):
        xs[0] = 0.0
    half = Domain("interval", -0.5, 0.5)
    inner = f.break_points(half)
    assert len(solves) == 2 * once
    assert (inner[0], inner[-1]) == (-0.5, 0.5)
    assert f.break_points(half) is inner and f.break_points(dom) is xs


class TestPoleCertificate:
    def test_pole_free(self):
        q = RationalRep([1.0], [0.5, 0.0, 1.0])
        cert = check_no_poles(q)
        assert cert
        # |den| is least at one of its break points: the true minimum 0.5
        assert cert.certified_min == pytest.approx(0.5, rel=1e-12)

    def test_interior_root_detected(self):
        q = RationalRep([1.0], [-0.25, 0.0, 1.0])  # roots at +-1/2
        cert = check_no_poles(q)
        assert not cert
        assert cert.witness is not None
        assert abs(abs(cert.witness) - 0.5) < 1e-2


class TestGap:
    def test_degree_is_exponent_sum(self):
        g = GapRep([(0.0, 2.0, 1.5), (0.3, 1.0, 2.5)])
        assert g.degree == 4.0

    def test_degree_additivity(self):
        a = GapRep([(0.0, 2.0, 1.5)])
        b = GapRep([(0.5, 1.0, 3.0)])
        joined = GapRep(list(a.factors) + list(b.factors))
        assert joined.degree == a.degree + b.degree

    def test_eval_is_product_of_moduli(self):
        g = GapRep([(0.0, 2.0, 1.0)])
        xs = np.linspace(-1, 1, 9)
        assert np.allclose(g(xs), np.sqrt(xs**2 + 4.0))

    def test_log_derivative_matches_finite_difference(self):
        g = GapRep([(0.2, 0.7, 2.0), (-0.4, 1.1, 1.5)])
        dg = derivative(g, 1)
        xs = np.linspace(-0.8, 0.8, 7)
        h = 1e-6
        fd = (g(xs + h) - g(xs - h)) / (2 * h)
        assert np.allclose(dg(xs), fd, rtol=1e-7)

    def test_only_first_order(self):
        g = GapRep([(0.0, 2.0, 1.5)])
        with pytest.raises(RejectedInputError):
            derivative(g, 2)

    def test_real_simple_root_on_interval_rejected(self):
        # b=0, a inside, r=1: the derivative jumps at the root
        g = GapRep([(0.3, 0.0, 1.0)])
        with pytest.raises(RejectedInputError):
            derivative(g, 1)

    def test_exponent_below_one_rejected(self):
        with pytest.raises(ValueError):
            GapRep([(0.0, 1.0, 0.5)])


def test_negative_derivative_order_rejected():
    trig = TrigPolynomialRep([0.5, 1.0], [2.0])
    rat = RationalRep(PolynomialRep([1.0, 2.0]), PolynomialRep([3.0, 0.0, 1.0]))
    for rep, order in ((trig, -1), (rat, -2), (PolynomialRep([1.0, 2.0]), -1)):
        with pytest.raises(ValueError, match="nonnegative"):
            rep.derivative(order)
        with pytest.raises(ValueError, match="nonnegative"):
            derivative(rep, order)


def test_polynomial_derivative_total_degree_drop():
    for rep in (jacobi22(6), chebyshev_t(9)):
        assert derivative(rep, 1).degree == rep.degree - 1


def test_inverse_power_log_abs():
    f = InversePowerRep(0.4)
    xs = np.linspace(-1, 0.99, 9)
    assert np.allclose(f.log_abs(xs), -0.4 * np.log(1.0 - xs))
    assert np.isinf(f(1.0))


class TestSerialization:
    def test_round_trip_all_kinds(self):
        reps = [
            PolynomialRep([0.5, -1.25, 3.0]),
            TrigPolynomialRep([1.0, 0.5], [0.25]),
            RationalRep([1.0, 2.0], [4.0, 0.0, 1.0]),
            GapRep([(0.1, 2.0, 1.5), (-0.2, 0.5, 3.0)]),
        ]
        for rep in reps:
            assert from_text(to_text(rep)) == rep

    def test_whitespace_and_comma_both_split(self):
        assert from_text("poly: 1.0 0.0 -1.0") == from_text("poly:1.0,0.0,-1.0")

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            from_text("spline: 1.0")

    def test_missing_prefix(self):
        with pytest.raises(ValueError):
            from_text("1.0, 2.0")

    def test_malformed_number(self):
        with pytest.raises(ValueError):
            from_text("poly: 1.0, zebra")


class TestRandomFamily:
    def test_deterministic(self):
        a = random_family("polynomial", 6, seed=11)
        b = random_family("polynomial", 6, seed=11)
        assert a == b

    def test_seed_sensitivity(self):
        a = random_family("polynomial", 6, seed=11)
        b = random_family("polynomial", 6, seed=12)
        assert a != b

    def test_kinds(self):
        assert random_family("polynomial", 4, seed=0).kind == "polynomial"
        assert random_family("trig", 4, seed=0).kind == "trig"
        assert random_family("rational", 4, seed=0).kind == "rational"
        assert random_family("gap", 4, seed=0).kind == "gap"

    def test_rational_members_are_pole_free(self):
        for n in (2, 5, 9):
            q = random_family("rational", n, seed=3)
            assert check_no_poles(q)
