"""Function representations: evaluation, derivatives, serialization, poles."""

import math
from fractions import Fraction

import numpy as np
import pytest

from orlimark import functions
from orlimark.conjugate import power_log
from orlimark.errors import CoefficientOverflowError, DegenerateInputError, PoleProximityError, RejectedInputError
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
from orlimark.harness import build_corpus
from orlimark.norms import g_norm_info, lorentz_norm, luxemburg_norm
from orlimark.quadrature import Domain, LevelSampler, lp_quasinorm, sup_norm


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

    def test_coefficient_errors_name_their_cause(self):
        with pytest.raises(RejectedInputError, match="NaN coefficient"):
            PolynomialRep([1.0, math.nan])
        for c in (math.inf, -math.inf, 1e301):
            with pytest.raises(CoefficientOverflowError):
                PolynomialRep([1.0, c])
        # a computed NaN is an overflow: here inf - inf in both numerator coefficients
        with np.errstate(over="ignore", invalid="ignore"), pytest.raises(CoefficientOverflowError):
            RationalRep([1e200, 1e200], [1e200, 1e200]).derivative()

    @pytest.mark.parametrize("basis", ["monomial", "chebyshev"])
    def test_evaluation_is_numpys_bit_for_bit(self, basis):
        # Horner and Clenshaw run in polyval's and chebval's order, on Python
        # floats up to _FLOAT_POINTS points and in place on arrays above:
        # every value, its type and shape are numpy's, at signed zeros,
        # subnormals, overflow, inf and NaN too, for 0-d x and for 1-d and
        # n-d x of every size up to twice the cut-over and one more
        rng = np.random.default_rng(23)
        special = [0.0, -0.0, 1.0, -1.0, 5e-324, -2.5e-310, 1e300, math.inf, -math.inf, math.nan]
        if basis == "monomial":
            kernel, ref = lambda x, c: functions._horner(x, tuple(c.tolist())), np.polynomial.polynomial.polyval
        else:
            kernel, ref = functions._clenshaw, np.polynomial.chebyshev.chebval

        def check(got, want, *where):
            assert type(got) is type(want) and np.shape(got) == np.shape(want), where
            assert np.asarray(got).tobytes() == np.asarray(want).tobytes(), where

        for degree in range(41):
            c = rng.uniform(-1.0, 1.0, degree + 1)
            f = PolynomialRep(c) if basis == "monomial" else PolynomialRep(np.polynomial.chebyshev.cheb2poly(c), cheb=c)
            for x in [*special, np.array(special), rng.uniform(-1.5, 1.5, (3, 5)), rng.uniform(-1.0, 1.0, 1)]:
                with np.errstate(all="ignore"):
                    check(f(x), ref(np.asarray(x, dtype=float), c), degree, x)
        # coefficients of 1e300 overflow part-way at x = 3 or -10, and in
        # Clenshaw the overflow's inf - inf is NaN
        big = [np.full(9, 1e300), 1e300 * rng.choice([-1.0, 1.0], 21)]
        pool = np.concatenate([special, [3.0, -10.0], rng.uniform(-1.5, 1.5, 2 * functions._FLOAT_POINTS)])
        # what the float path gave at |x| <= 10 from finite coefficients
        overflowed = set()
        for c in [rng.uniform(-1.0, 1.0, degree + 1) for degree in (0, 1, 2, 7, 26)] + big:
            for n in range(1, 2 * functions._FLOAT_POINTS + 2):
                xs = rng.permutation(pool)[:n]
                for shape in ((n,), (n, 1), (2, n)):
                    x = np.resize(xs, shape)
                    with np.errstate(all="ignore"):
                        got, want = kernel(x, c), ref(x, c)
                    check(got, want, c.size, shape)
                    if x.size <= functions._FLOAT_POINTS:
                        at = np.abs(x) <= 10.0
                        overflowed |= {kind for kind, hit in (("inf", np.isinf(got[at])), ("nan", np.isnan(got[at]))) if hit.any()}
        assert overflowed == ({"inf"} if basis == "monomial" else {"inf", "nan"})


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

    @pytest.mark.parametrize("label", [f"rational-{n:02d}" for n in range(1, 7)])
    def test_derivative_over_one_power_of_q_per_order(self, label):
        # the r-th derivative is N_r / q^(r+1); a denominator squared at
        # every order plants roots of p'q - pq' of multiplicity up to
        # 2^(r+1) - 1, whose spread hides the true critical points
        q = dict(build_corpus(7))[label]
        dom = Domain.interval()
        xs = np.linspace(-1.0, 1.0, 2**16 + 1)
        for r in (1, 2, 3, 4):
            d = q.derivative(r)
            assert d.den.degree == (r + 1) * q.den.degree
            # Lorentz at p = b = 2 is L2, through the level sets' break points
            assert lorentz_norm(d, 2.0, 2.0) == pytest.approx(lp_quasinorm(d, 2.0, dom), rel=1e-10)
            assert sup_norm(d) >= float(np.max(np.abs(d(xs)))) * (1.0 - 1e-9), r

    @pytest.mark.parametrize("r", [5, 6])
    def test_high_order_critical_points(self, r):
        # N_r / q^(r+1) has the critical points of N_r' q - (r+1) N_r q':
        # p'q - pq' of it carries q^r besides, whose multiple roots at the
        # poles spread and moved its real roots off the maxima of |f|
        xs = np.linspace(-1.0, 1.0, 2**16 + 1)
        misses = []
        for degree in range(2, 7):
            for seed in range(40):
                d = random_family("rational", degree, seed).derivative(r)
                if sup_norm(d) < float(np.max(np.abs(d(xs)))) * (1.0 - 1e-9):
                    misses.append((degree, seed))
        assert misses == []

    def test_derivative_of_a_derivative_keeps_the_base(self):
        # the derivative of N_2 / q^3 is N_3 / q^4, as q's third derivative
        q = dict(build_corpus(7))["rational-10"]
        d = q.derivative(1).derivative(2)
        xs = np.linspace(-1.0, 1.0, 33)
        assert np.allclose(d(xs), q.derivative(3)(xs), rtol=1e-12, atol=0.0)
        assert d.den.degree == 4 * q.den.degree
        assert sup_norm(d) == pytest.approx(sup_norm(q.derivative(3)), rel=1e-12)

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
def test_break_points_computed_once_per_representation(f, monkeypatch, ctx):
    # every norm, the quadrature entry points and f.break_points() itself
    # read one array, computed on f's natural domain by the first of them
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
    LevelSampler(f)
    xs = f.break_points()
    assert len(solves) == once
    assert f.break_points() is xs
    assert (xs[0], xs[-1]) == (dom.lo, dom.hi)
    assert not xs.flags.writeable
    with pytest.raises(ValueError):
        xs[0] = 0.0


_cheb = np.polynomial.chebyshev
_mono = np.polynomial.polynomial


def _kernel_inputs():
    """Random coefficient vectors of degree 0 to 40, each also with trailing
    zeros (a signed one among them), with signed zeros inside and scaled by
    1e200 and 1e-200."""
    rng = np.random.default_rng(39)
    out = []
    for n in range(41):
        c = rng.standard_normal(n + 1)
        holes = c.copy()
        holes[rng.random(n + 1) < 0.3] = -0.0 if n % 2 else 0.0
        out += [c, np.concatenate([c, [0.0, -0.0][: 1 + n % 2]]), holes, 1e200 * c, 1e-200 * c]
    return out + [np.zeros(1), np.array([-0.0]), np.array([0.0, -0.0])]


def _same(got, want):
    return got.dtype == want.dtype and got.shape == want.shape and got.tobytes() == want.tobytes()


class TestKernels:
    """The break points' kernels give numpy.polynomial's results bit for bit:
    value bytes, dtype and shape (numpy.polynomial is their oracle here)."""

    @pytest.mark.parametrize(
        "kernel, oracle",
        [
            (functions._poly2cheb, _cheb.poly2cheb),
            (functions._chebder, _cheb.chebder),
            (functions._polyder, _mono.polyder),
            (functions._chebroots, _cheb.chebroots),
            (functions._polyroots, _mono.polyroots),
            (functions._cheb2poly, _cheb.cheb2poly),
            (functions._polymulx, _mono.polymulx),
        ],
        ids=["poly2cheb", "chebder", "polyder", "chebroots", "polyroots", "cheb2poly", "polymulx"],
    )
    def test_unary(self, kernel, oracle):
        for c in _kernel_inputs():
            with np.errstate(all="ignore"):
                assert _same(kernel(c), oracle(c)), c

    def test_chebmulx_in_place(self):
        # x times a nonzero trimmed series, in place in one more entry
        for c in _kernel_inputs():
            t = functions._trimseq(c)
            if not t.any():
                continue
            res = np.append(t, 0.0)
            with np.errstate(all="ignore"):
                functions._chebmulx(res, t.size)
                assert _same(res, _cheb.chebmulx(c)), c

    def test_complex_polyroots(self):
        rng = np.random.default_rng(40)
        for n in range(1, 41):
            c = rng.standard_normal(n + 1) + 1j * rng.standard_normal(n + 1)
            for z in (c, np.concatenate([c, [0j]])):
                assert _same(functions._polyroots(z), _mono.polyroots(z)), z

    @pytest.mark.parametrize(
        "kernel, oracle",
        [
            (functions._polymul, _mono.polymul),
            (functions._polyadd, _mono.polyadd),
            # the library subtracts by adding the negation
            (lambda c1, c2: functions._polyadd(c1, -c2), _mono.polysub),
        ],
        ids=["polymul", "polyadd", "polysub"],
    )
    def test_binary(self, kernel, oracle):
        cs = _kernel_inputs()
        for i, c1 in enumerate(cs):
            for c2 in (cs[(7 * i + 3) % len(cs)], cs[(11 * i + 5) % len(cs)]):
                with np.errstate(all="ignore"):
                    assert _same(kernel(c1, c2), oracle(c1, c2)), (c1, c2)


def _reference_break_points(f):
    """f's break points by numpy.polynomial's series objects and functions,
    as the library took them before its kernels: their oracle."""
    P, C = np.polynomial.Polynomial, np.polynomial.Chebyshev

    def top(c):
        keep = np.flatnonzero(np.abs(c) > np.finfo(float).eps * np.max(np.abs(c), initial=0.0))
        return int(keep[-1]) if keep.size else 0

    def real_zeros(series):
        c = _cheb.poly2cheb(series.coef) if isinstance(series, P) else series.coef
        roots = _cheb.chebroots(c[: top(c) + 1]) if top(c) else np.zeros(0)
        return roots.real[np.abs(roots.imag) <= 1e-4]

    def circle_zeros(t):
        a, b = np.asarray(t.cos_coeffs), np.concatenate([[0.0], t.sin_coeffs])
        n = top(np.maximum(np.abs(a), np.abs(b)))
        half = (a[1 : n + 1] - 1j * b[1 : n + 1]) / 2.0
        z = _mono.polyroots(np.concatenate([np.conj(half)[::-1], a[:1], half])) if n else np.zeros(0)
        return np.angle(z[np.abs(np.abs(z) - 1.0) <= 1e-4])

    def log_derivative(factors):
        nums, dens = [], []
        for a, b, r in factors:
            line = P([-a, 1.0])
            nums.append(P([r]) if b == 0.0 else r * line)
            dens.append(line if b == 0.0 else P([a * a + b * b, -2.0 * a, 1.0]))
        return sum(n * math.prod(dens[:j] + dens[j + 1 :]) for j, n in enumerate(nums)), math.prod(dens)

    if isinstance(f, PolynomialRep):
        g = C(f._cheb if f._cheb is not None else _cheb.poly2cheb(f.coeffs or (0.0,)))
        return functions._breaks(f, real_zeros(g), real_zeros(g.deriv()))
    if isinstance(f, TrigPolynomialRep):
        return functions._breaks(f, np.mod(np.concatenate([circle_zeros(f), circle_zeros(f.derivative())]), 2.0 * np.pi))
    if isinstance(f, RationalRep):
        p, s, k = P(f.num.coeffs or (0.0,)), P(f._den_base[0]), f._den_base[1]
        return functions._breaks(f, real_zeros(p), real_zeros(p.deriv() * s - k * (p * s.deriv())))
    if isinstance(f, GapRep):
        return functions._breaks(f, [a for a, b, _r in f.factors if b == 0.0], real_zeros(log_derivative(f.factors)[0]))
    num, den = log_derivative(f.rep.factors)
    crit = num * num + num.deriv() * den - num * den.deriv()
    return functions._breaks(f, [a for a, b, _r in f.rep.factors if b == 0.0], real_zeros(num), real_zeros(crit))


def test_break_points_are_numpys_bit_for_bit():
    # the kernels replace numpy.polynomial's series objects without moving a
    # bit: the corpus, its derivatives up to r = 4 and random members
    fs = []
    for label, f in build_corpus(7):
        top = 1 if isinstance(f, GapRep) else 4  # a GapDerivative is the last
        for r in range(top + 1):
            fs.append((f"{label}^({r})", f))
            f = f.derivative() if r < top else None
    fs += [(f"{kind}-{n}-{seed}", random_family(kind, n, seed)) for kind in functions.RANDOM_FAMILIES for n in range(1, 11) for seed in (0, 1)]
    fs += [("jacobi22(60)'", jacobi22(60).derivative()), ("T_30", chebyshev_t(30))]
    differ = [label for label, f in fs if not _same(f.break_points(), _reference_break_points(f))]
    assert not differ


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

    def test_real_node_adds_no_break_points_beside_it(self):
        # a real node's term of the log-derivative is r / (x - a); carried as
        # r (x - a) / (x - a)^2 it left near-double roots of N^2 + N'D - ND'
        # 3e-8 either side of the node, where neither f nor f' vanishes
        dg = derivative(GapRep([(0.1, 0.0, 2.0), (-0.5, 0.4, 1.5)]), 1)
        assert np.array_equal(dg.break_points(), [-1.0, 0.1, 1.0])


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


def test_inverse_power_exponent_must_be_finite():
    # the exponent feeds the closed-form rest past the singular end
    for q in (math.inf, math.nan, 0.0):
        with pytest.raises(ValueError, match="exponent"):
            InversePowerRep(q)


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
