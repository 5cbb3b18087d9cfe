"""Inequality harness: constants, sweeps, rational checks, tails, corpus."""

import dataclasses
import math

import mpmath as mp
import numpy as np
import pytest

from orlimark import harness
from orlimark.conjugate import log_power, power_log
from orlimark.errors import DegenerateInputError, RejectedInputError
from orlimark.functions import (
    GapRep,
    InversePowerRep,
    PolynomialRep,
    RationalRep,
    TrigPolynomialRep,
    chebyshev_t,
    derivative,
    jacobi22,
    random_family,
)
from orlimark.harness import (
    bernstein_trig_check,
    build_corpus,
    d_constant,
    d_constant_log,
    equivalence_band,
    extremal_search,
    gap_check,
    k_constant,
    lp_rational_check,
    markov_ratio,
    markov_sweep,
    rational_orlicz_check,
    tail_check,
    markov_factor_log,
)
from orlimark.harness import _loglog_slope, _t_quantile
from orlimark.norms import NormContext, evaluate_norm, gnorm_spec, lorentz_spec, lp_spec, orlicz_spec, sup_ratio_from, v_quasinorm
from orlimark.quadrature import QuadratureConfig, lp_quasinorm


def sin_n(n: int) -> TrigPolynomialRep:
    b = np.zeros(n)
    b[n - 1] = 1.0
    return TrigPolynomialRep(np.zeros(n + 1), b)


class TestConstants:
    @pytest.mark.parametrize("r", [math.nan, math.inf, 2.5, 0])
    def test_order_must_be_an_integer(self, r):
        for check in (d_constant, d_constant_log):
            with pytest.raises(ValueError, match="derivative order"):
                check(r)

    def test_k4_closed_form(self):
        assert k_constant(4.0) == pytest.approx((49.0 * math.pi) ** 0.25, rel=1e-14)

    def test_k_formula(self):
        p = 6.0
        expect = (4.0 * math.pi * (p + 3.0) ** 2 / (p * math.sin(2.0 * math.pi / p))) ** (1.0 / p)
        assert k_constant(p) == pytest.approx(expect, rel=1e-14)

    def test_k_requires_p_above_two(self):
        with pytest.raises(ValueError):
            k_constant(2.0)

    def test_d_constant_formula(self):
        r = 1
        expect = math.exp(1.0 / math.e) * math.factorial(r) * (4.0 / 3.0) ** (r + 0.25) * (r + 0.25) ** (r + 0.25)
        assert d_constant(r) == pytest.approx(expect, rel=1e-12)

    def test_d_constant_log_consistent(self):
        for r in (1, 2, 3, 10):
            assert d_constant_log(r) == pytest.approx(math.log(d_constant(r)), rel=1e-12)

    def test_d_constant_past_twenty_is_the_log_form(self):
        assert d_constant(30) == math.exp(d_constant_log(30))

    def test_d_constant_overflow_is_inf(self):
        # log D(100) = 854.9, past exp's range
        assert d_constant(100) == math.inf

    def test_d_constant_rejects_bad_order(self):
        with pytest.raises(ValueError):
            d_constant(0)
        with pytest.raises(ValueError):
            d_constant(1.5)


class TestMarkovRatio:
    def test_l2_jacobi2_oracle(self, ctx):
        # ||d/dx (2x^2-1)||_2 / ||2x^2-1||_2 = 4 sqrt(5/7)
        got = markov_ratio(PolynomialRep([-1.0, 0.0, 2.0]), lp_spec(2.0), ctx=ctx)
        assert got == pytest.approx(4.0 * math.sqrt(5.0 / 7.0), rel=1e-10)

    def test_scale_invariance(self, phi2, ctx):
        f = jacobi22(4)
        g = PolynomialRep([1e3 * c for c in f.coeffs])
        a = markov_ratio(f, orlicz_spec(phi2), ctx=ctx)
        b = markov_ratio(g, orlicz_spec(phi2), ctx=ctx)
        assert b == pytest.approx(a, rel=1e-8)

    def test_zero_rejected(self, ctx):
        with pytest.raises(DegenerateInputError):
            markov_ratio(PolynomialRep([0.0]), lp_spec(2.0), ctx=ctx)

    @pytest.mark.parametrize("b", [1.5, math.inf])
    def test_lorentz_equimeasurable_sines(self, b, ctx):
        # n cos(nx) is equimeasurable with n sin(nx), so the Lorentz ratio is
        # n; the zeros of sin(nx), rounding-level values of |f|, share one
        # critical value
        for n in (1, 5, 17, 40):
            assert markov_ratio(sin_n(n), lorentz_spec(3.0, b), ctx=ctx) == pytest.approx(n, rel=1e-13, abs=0.0)

    def test_orlicz_jacobi_in_monomials(self, phi2, ctx):
        # Horner's noise in the monomial basis keeps the modular's quadrature
        # from settling at the Jensen end, l = slope ||f||_1, where |f| / l is
        # largest; the Luxemburg solve must not integrate there
        c = np.asarray(jacobi22(20).coeffs)
        for coeffs in (c, c / np.linalg.norm(c)):
            got = markov_ratio(PolynomialRep(coeffs), orlicz_spec(phi2), ctx=ctx)
            assert got == pytest.approx(85.61506088529612, rel=1e-10)

    def test_l4_jacobi_high_degree(self, ctx):
        # the L4 Markov ratio of P_n^(2,2) grows with n and stays below the
        # sharp bound k(4) n^2; a degree-80 value below the degree-40 one
        # means the polynomial itself is wrong
        spec = lp_spec(4.0)
        at_40 = markov_ratio(jacobi22(40), spec, ctx=ctx)
        for n in (80, 200):
            got = markov_ratio(jacobi22(n), spec, ctx=ctx)
            assert at_40 < got < k_constant(4.0) * n**2, (n, got)


class TestMarkovSweep:
    def test_l4_jacobi_small(self, phi2, ctx):
        rep = markov_sweep(phi2, "jacobi22", range(2, 9), norm=lp_spec(4.0), ctx=ctx)
        assert len(rep.rows) == 7
        assert rep.min_margin > 0.0
        assert rep.c5_estimate > 0.0
        assert rep.slope_ci[0] <= rep.slope <= rep.slope_ci[1]

    def test_orlicz_bound_uses_markov_factor(self, phi2, ctx):
        rep = markov_sweep(phi2, "jacobi22", range(2, 7), norm=orlicz_spec(phi2), ctx=ctx)
        expect_log = markov_factor_log(phi2, ctx)
        for row in rep.rows:
            assert math.log(row.bound) == pytest.approx(expect_log + 2.0 * math.log(row.n), rel=1e-12)
            assert row.ratio <= row.bound

    def test_other_families_run(self, phi2, ctx):
        for family in ("chebyshev", "random-poly"):
            rep = markov_sweep(phi2, family, range(2, 7), norm=lp_spec(4.0), ctx=ctx, seed=5)
            assert all(r.ratio > 0.0 for r in rep.rows)
            assert rep.min_margin > 0.0

    def test_norm_of_another_phi_rejected(self, ctx):
        # a g-norm of z^2 beside the bound column of z would mix two phi
        with pytest.raises(ValueError, match="another phi"):
            markov_sweep(power_log(1.0), "chebyshev", range(2, 5), norm=gnorm_spec(power_log(2.0)), ctx=ctx)

    def test_degrees_must_be_integers(self, phi2, ctx):
        # 2.5 is no degree, and truncating it to 2 would sweep the wrong range
        with pytest.raises(ValueError, match="degree"):
            markov_sweep(phi2, "jacobi22", [2.5, 3, 4, 5, 6], norm=lp_spec(4.0), ctx=ctx)

    def test_degree_zero_row(self, phi2, ctx):
        rep = markov_sweep(phi2, "chebyshev", range(0, 3), norm=lp_spec(4.0), ctx=ctx)
        row = rep.rows[0]
        assert (row.n, row.ratio, row.bound, row.margin) == (0, 0.0, 0.0, 0.0)

    @pytest.mark.parametrize("norm", [lorentz_spec(2.0, 2.0), lp_spec(2.0)], ids=["lorentz", "lp2"])
    def test_norm_without_a_constant_has_no_bound(self, phi2, ctx, norm):
        # no proven constant: the ratio is recorded and the bound is +inf
        rep = markov_sweep(phi2, "chebyshev", range(1, 4), norm=norm, ctx=ctx)
        assert all(row.ratio > 0.0 and row.bound == row.margin == math.inf for row in rep.rows)

    def test_overflowing_bound_is_inf(self, ctx):
        # the factor of z^4 is e^162758, so every bound overflows to +inf
        phi = power_log(4.0)
        assert markov_factor_log(phi, ctx) == pytest.approx(162758.05, rel=1e-6)
        rep = markov_sweep(phi, "chebyshev", range(1, 4), ctx=ctx)
        assert all(row.ratio > 0.0 and row.bound == row.margin == math.inf for row in rep.rows)

    def test_lp_sweep_needs_no_psi(self, ctx):
        # h*(4) of log(1 + z)^1.05 diverges, and only the orlicz and gnorm
        # bounds use psi(4): the L4 sweep holds under that phi
        rep = markov_sweep(log_power(0.05), "chebyshev", range(2, 5), norm=lp_spec(4.0), ctx=ctx)
        assert all(0.0 < row.ratio < row.bound < math.inf for row in rep.rows)


@pytest.mark.parametrize("q", [0.6, 0.9, 0.975, 0.995])
def test_t_quantile_matches_mpmath(q):
    # the Student-t quantile at dof 1 to 399 (the sweep's is at 0.975),
    # against a 30-digit root of the incomplete beta
    half = mp.mpf(1) / 2
    with mp.workdps(30):
        for dof in range(1, 400):
            got = _t_quantile(dof, q)
            ref = mp.findroot(lambda t: mp.betainc(half, half * dof, 0, t * t / (dof + t * t), regularized=True) - (2 * mp.mpf(q) - 1), mp.mpf(got))
            assert abs(got - ref) <= 1e-13 * ref, (dof, got)


class TestBernsteinTrig:
    def test_sine_equality(self, ctx):
        for n in (1, 5, 12):
            q = sin_n(n)
            margin = bernstein_trig_check(q, lp_spec(2.0), ctx=ctx)
            bound = n * evaluate_norm(q, lp_spec(2.0), ctx=ctx)
            assert abs(margin) <= 1e-8 * max(bound, 1.0)

    def test_random_trig_orlicz(self, phi2, ctx):
        rng = np.random.default_rng(2)
        for n in (3, 8):
            q = TrigPolynomialRep(rng.standard_normal(n + 1), rng.standard_normal(n))
            dnorm = evaluate_norm(q.derivative(), orlicz_spec(phi2), ctx=ctx)
            margin = bernstein_trig_check(q, orlicz_spec(phi2), ctx=ctx)
            assert margin >= -1e-8 * dnorm

    def test_constant_is_exact_zero(self, ctx):
        q = TrigPolynomialRep([3.0], [])
        assert bernstein_trig_check(q, lp_spec(2.0), ctx=ctx) == 0.0


class TestRationalChecks:
    def test_lp_margin_positive(self):
        q = RationalRep([1.0], [1.0, 0.0, 1.0])
        chk = lp_rational_check(q, 4.0, 1)
        assert chk.margin > 0.0
        assert chk.gamma == pytest.approx(0.8)

    def test_polynomial_as_rational(self):
        q = RationalRep([0.0, 1.0, 2.0], [1.0])
        chk = lp_rational_check(q, 4.0, 1)
        assert chk.margin > 0.0

    def test_requires_p_at_least_four(self):
        q = RationalRep([1.0], [1.0, 0.0, 1.0])
        with pytest.raises(ValueError):
            lp_rational_check(q, 3.0, 1)

    def test_infinite_p_is_named(self):
        # at p = inf the exponent p / (p r + 1) would be NaN; p itself is at fault
        q = RationalRep([1.0], [1.0, 0.0, 1.0])
        with pytest.raises(ValueError, match="finite p"):
            lp_rational_check(q, math.inf, 1)

    def test_pole_rejection(self):
        q = RationalRep([1.0], [-0.25, 0.0, 1.0])
        with pytest.raises(RejectedInputError):
            lp_rational_check(q, 4.0, 1)

    def test_orlicz_margin_positive(self, phi2, ctx):
        q = RationalRep([1.0], [2.0, 0.0, 1.0])
        chk = rational_orlicz_check(q, phi2, 1, ctx=ctx)
        assert chk.margin > 0.0
        assert math.isfinite(chk.lhs)

    def test_degree_scaling_grows_margin(self, phi2, ctx):
        den = PolynomialRep([2.0, 0.0, 1.0])
        fam = [RationalRep(PolynomialRep(chebyshev_t(n).coeffs), den) for n in (1, 2, 3)]
        margins = [rational_orlicz_check(q, phi2, 1, ctx=ctx).margin for q in fam]
        assert margins == sorted(margins)


def test_lp_checks_take_a_context():
    # both L_p checks take their norms from evaluate_norm at the context's rel_tol, bit for bit
    ctx = NormContext(QuadratureConfig(rel_tol=1e-8))
    q = random_family("rational", 4, 7)
    for r in (1, 2):
        chk = lp_rational_check(q, 4, r, ctx=ctx)
        assert chk.lhs == evaluate_norm(derivative(q, r), lp_spec(chk.gamma), ctx)
        assert chk.rhs == d_constant(r) * chk.degree**r * evaluate_norm(q, lp_spec(4.0), ctx)
    base = GapRep([(0.3, 0.5, 1.0), (-0.6, 1.0, 1.0)])
    rep = gap_check(base, 2, [2, 3], ctx=ctx)
    for row, n in zip(rep.rows, (2.0, 3.0)):
        member = GapRep([(a, b, r * n / base.degree) for a, b, r in base.factors])
        ratio = evaluate_norm(derivative(member, 1), lp_spec(2.0), ctx) / evaluate_norm(member, lp_spec(2.0), ctx)
        assert (row.n, row.ratio, row.scaled) == (n, ratio, ratio / n**2)


@pytest.mark.parametrize(
    "check",
    [
        lambda f: lp_rational_check(f, 4.0, 1),
        lambda f: rational_orlicz_check(f, power_log(2.0), 1),
        lambda f: bernstein_trig_check(f, lp_spec(2.0)),
        lambda f: gap_check(f, 2.0, [1, 2]),
    ],
    ids=["lp_rational_check", "rational_orlicz_check", "bernstein_trig_check", "gap_check"],
)
def test_check_rejects_another_representation(check):
    # each check reads its own representation's fields (the denominator,
    # the degree), so a bare callable is rejected before any is read
    with pytest.raises(RejectedInputError, match="needs a"):
        check(lambda x: x**2 + 1)


class TestGapCheck:
    def test_scaled_ratio_bounded(self):
        base = GapRep([(0.3, 0.5, 2.0), (-0.6, 1.0, 2.0)])
        rep = gap_check(base, 4.0, [4, 6, 8, 12, 16, 20])
        assert math.isfinite(rep.max_scaled)
        # boundedness shows as a non-growing trend; powered copies of a fixed
        # base approach linear ratio growth so decay is expected
        assert rep.trend_slope <= 0.1

    def test_single_smooth_factor(self):
        rep = gap_check(GapRep([(0.0, 2.0, 1.0)]), 2.0, [1, 2, 3, 4, 5])
        assert all(math.isfinite(r.ratio) for r in rep.rows)

    def test_exponent_below_start_rejected(self):
        # scaling a mixed-exponent product down to degree 2 would push the
        # unit factor below order 1
        base = GapRep([(0.0, 1.0, 1.0), (0.5, 1.0, 2.0)])
        with pytest.raises(ValueError):
            gap_check(base, 2.0, [2, 6])


class TestTail:
    def test_forward_and_converse(self, ctx):
        rep = tail_check(InversePowerRep(0.5), m=2.0, r=1, u_max=200.0, ctx=ctx)
        assert math.isfinite(rep.prefactor) and rep.prefactor > 0.0
        assert rep.max_violation <= 1e-12
        assert math.isfinite(rep.converse_norm) and rep.converse_norm > 0.0
        assert rep.beta_exponent_model == pytest.approx(-1.5)

    def test_beta_norms_match_closed_form(self, ctx):
        # the converse fit takes ||f||_beta at beta = p / (p + 1) up to
        # 128/129, s = q beta = 0.893; each is (2^-s / (1 - s))^(1 / beta)
        f = InversePowerRep(0.9)
        ps = np.array([8.0, 16.0, 32.0, 64.0, 128.0])
        betas = ps / (ps + 1.0)
        exact = (2.0 ** (-0.9 * betas) / (1.0 - 0.9 * betas)) ** (1.0 / betas)
        got = np.array([lp_quasinorm(f, float(b), f.natural_domain, ctx.cfg) for b in betas])
        np.testing.assert_allclose(got, exact, rtol=1e-12, atol=0.0)
        rep = tail_check(f, m=2.0, r=1, ctx=ctx)
        expect = _loglog_slope(1.0 - betas, exact / rep.normalizer)[0]
        assert rep.beta_exponent_measured == pytest.approx(expect, abs=1e-12)

    def test_normalizer_matches_closed_form(self, ctx):
        # v_quasinorm(f, power_log(2), 1) of (1 - x)^-1/2 peaks at p = 4:
        # ||f||_(4/5) = (2^-0.4 / 0.6)^(5/4) over psi(4) = sqrt(2 / e)
        phi = power_log(2.0)
        value = v_quasinorm(InversePowerRep(0.5), phi, 1.0, cache=ctx.conjugates(phi, p_lo=4.0))
        assert value == pytest.approx((2.0**-0.4 / 0.6) ** 1.25 / math.sqrt(2.0 / math.e), rel=1e-12)

    def test_bounded_function_trivial_tail(self, ctx):
        rep = tail_check(PolynomialRep([0.0, 1.0]), m=2.0, r=1, u_max=50.0, ctx=ctx)
        # T vanishes past the (normalized) sup, so any prefactor works
        assert rep.max_violation <= 1e-12


class TestExtremal:
    def test_beats_jacobi_seed(self, phi2, ctx):
        poly, value = extremal_search(phi2, 5, restarts=1, ctx=ctx, seed=0)
        seeded = markov_ratio(jacobi22(5), orlicz_spec(phi2), ctx=ctx)
        assert value >= seeded - 1e-6
        assert poly.degree == 5

    def test_value_below_markov_factor_bound(self, phi2, ctx):
        _poly, value = extremal_search(phi2, 3, restarts=1, ctx=ctx, seed=1)
        bound = math.exp(markov_factor_log(phi2, ctx)) * 9.0
        assert value <= bound

    def test_degree_one_prefers_odd(self, phi2, ctx):
        # symmetric norms push the constant term of the maximizer to zero
        poly, _value = extremal_search(phi2, 1, restarts=3, ctx=ctx, seed=4)
        c = np.asarray(poly.coeffs)
        assert abs(c[0]) <= 0.2 * abs(c[1])

    def test_restarts_must_be_an_integer(self, phi2, ctx):
        with pytest.raises(ValueError, match="restarts"):
            extremal_search(phi2, 2, restarts=math.nan, ctx=ctx)

    def test_deterministic(self, phi2, ctx):
        a = extremal_search(phi2, 2, restarts=2, ctx=ctx, seed=9)[1]
        b = extremal_search(phi2, 2, restarts=2, ctx=ctx, seed=9)[1]
        assert a == b


class TestCorpus:
    def test_build_corpus_composition(self):
        corpus = build_corpus(seed=7)
        assert len(corpus) == 60
        labels = [lbl for lbl, _f in corpus]
        assert len(set(labels)) == 60
        assert sum(1 for lbl in labels if lbl.startswith("poly")) == 30
        assert sum(1 for lbl in labels if lbl.startswith("gap")) == 10
        assert sum(1 for lbl in labels if lbl.startswith("rational")) == 10
        assert sum(1 for lbl in labels if lbl.startswith("trig")) == 10

    def test_corpus_deterministic(self):
        a = build_corpus(seed=7)
        b = build_corpus(seed=7)
        assert all(fa == fb for (_la, fa), (_lb, fb) in zip(a, b))

    def test_small_corpus(self, small_corpus):
        assert len(small_corpus) == 8


class TestEquivalenceBand:
    def test_small_corpus_clean(self, phi2, ctx, small_corpus):
        band = equivalence_band(small_corpus, phi2, ctx=ctx)
        assert band.violations == 0
        assert band.empirical_lo >= 1.0 / band.c3 - 1e-6

    def test_rows_report_both_edges(self, phi2, ctx, small_corpus):
        band = equivalence_band(small_corpus, phi2, ctx=ctx)
        for row in band.rows:
            assert row.lower_ok and row.upper_ok
            assert row.b_norm > 0.0 and row.g_norm > 0.0

    def test_verdicts_follow_the_edges(self, phi2, ctx, monkeypatch, small_corpus):
        # edges moved into the corpus's own spread of log B/G put members in
        # every class: under C3^-1 (a violation), over C4 but under e^2 C4
        # (a fallback), and over e^2 C4 (a violation)
        corpus = small_corpus
        logs = [row.log_ratio for row in equivalence_band(corpus, phi2, ctx=ctx).rows]
        real = harness.equivalence_constants

        def band_at(lower_log, upper_log):
            def moved(n_func):
                return dataclasses.replace(real(n_func), g_over_b=math.exp(-lower_log), b_over_g_log=upper_log)

            monkeypatch.setattr(harness, "equivalence_constants", moved)
            return equivalence_band(corpus, phi2, ctx=ctx)

        # the two constant members sit at log B/G = 0, the next at 3e-5 and
        # the largest at 0.159, the one past 0.1
        band = band_at(1e-5, 0.1)
        low, high = sum(x < 1e-5 for x in logs), sum(x > 0.1 for x in logs)
        assert low == 2 and high == 1
        assert (band.violations, band.fallback_count, band.violations == 0) == (low, high, False)
        assert [not row.lower_ok for row in band.rows] == [x < 1e-5 for x in logs]
        assert [row.used_fallback for row in band.rows] == [x > 0.1 for x in logs]
        # e^2 C4 at 0.1: every member is over C4, and the one past 0.1 is a violation
        band = band_at(0.0, 0.1 - 2.0)
        assert (band.violations, band.fallback_count, band.violations == 0) == (high, len(logs) - high, False)
        assert not any(row.upper_ok for row in band.rows)


class TestSandwich:
    """The band's sandwich R <= G <= factor * R, R the sup over p >= 4,
    on its rows."""

    def test_displayed_factor_fails_on_constants(self, phi2, ctx):
        # the constant function is the equality case: G / R = psi(4) / psi(1)
        # = 4^(1/2) for z^2, above the displayed factor max(1, psi(4)) = 1;
        # the corrected factor max(1, psi(4) / min psi) is that ratio, and
        # holds with near equality
        f = PolynomialRep([1.0])
        band = equivalence_band([("one", f)], phi2, ctx=ctx)
        (row,) = band.rows
        assert row.sandwich_lower_margin >= 0.0
        assert row.displayed_margin < 0.0
        assert row.corrected_margin >= 0.0
        assert (band.displayed_misses, band.corrected_misses) == (1, 0)
        assert band.factor_corrected == pytest.approx(2.0, rel=1e-12)
        assert row.restricted_sup == sup_ratio_from(f, phi2, 4.0, cache=ctx.conjugates(phi2, p_lo=4.0))

    def test_generic_member_within_corrected(self, phi2, ctx):
        (row,) = equivalence_band([("quad", PolynomialRep([0.1, 1.0, -0.4]))], phi2, ctx=ctx).rows
        assert row.sandwich_lower_margin >= 0.0 and row.corrected_margin >= 0.0
