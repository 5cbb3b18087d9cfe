"""Norm layer: N-splice, Luxemburg, grand-Lebesgue scans, Lorentz, V, constants."""

import math

import mpmath as mp
import numpy as np
import pytest
from scipy.optimize import brentq

from orlimark import norms
from orlimark.conjugate import ConjugateCache, golden_max, log_power, power_log, psi_log
from orlimark.errors import (
    ConvergenceFailureError,
    DomainEvaluationError,
    RejectedInputError,
    ScanDivergenceError,
)
from orlimark.functions import InversePowerRep, PolynomialRep
from orlimark.harness import build_corpus
from orlimark.norms import (
    EquivalenceConstants,
    NormContext,
    construct_N,
    equivalence_constants,
    evaluate_norm,
    evaluate_norm_info,
    g_norm,
    g_norm_info,
    gnorm_spec,
    lorentz_norm,
    lorentz_spec,
    lp_spec,
    luxemburg_norm,
    orlicz_spec,
    sup_ratio_from,
    v_quasinorm,
    v_quasinorm_info,
    vnorm_spec,
    weighted_lorentz_g,
)
from orlimark.norms import _brentq, _luxemburg_detail
from orlimark.quadrature import DEFAULT_CONFIG, Domain, integrate_log, lp_quasinorm

INTERVAL = Domain.interval()

# closed-form splice constants: C1 solves u phi'(u) = 1, C2 = exp(phi(C1))/C1
PHI2_C1 = 1.0 / math.sqrt(2.0)
PHI2_C2 = 2.3316439815971246
PHI1_C1 = 1.0
PHI1_C2 = math.e


# the (xtol, rtol) pairs of the library's two root solves: the splice knee
# and the Luxemburg root
ROOT_TOLERANCES = [(1e-15, 8.9e-16), (1e-12, 8.9e-16)]


def _bracketed_problems(seed, count):
    """Seeded random f(x) = polynomial + 0.3 sin(5x) with a sign change on [a, b]."""
    rng = np.random.default_rng(seed)
    problems = []
    while len(problems) < count:
        coeffs = rng.normal(size=int(rng.integers(2, 7)))
        a, b = np.sort(rng.uniform(-3.0, 3.0, size=2))

        def f(x, c=tuple(coeffs)):
            return float(np.polynomial.polynomial.polyval(x, c)) + 0.3 * math.sin(5.0 * x)

        if f(a) * f(b) < 0.0:
            problems.append((f, float(a), float(b)))
    return problems


class TestBrentq:
    @pytest.mark.parametrize("xtol,rtol", ROOT_TOLERANCES)
    def test_matches_scipy_bit_for_bit(self, xtol, rtol):
        for f, a, b in _bracketed_problems(seed=7, count=1000):
            assert _brentq(f, a, b, xtol, rtol) == brentq(f, a, b, xtol=xtol, rtol=rtol), (a, b)

    @pytest.mark.parametrize("xtol,rtol", ROOT_TOLERANCES)
    def test_zero_at_an_endpoint_is_returned(self, xtol, rtol):
        assert _brentq(lambda x: x - 1.0, 1.0, 3.0, xtol, rtol) == 1.0
        assert _brentq(lambda x: x - 3.0, 1.0, 3.0, xtol, rtol) == 3.0

    def test_no_convergence_raises_with_last_iterate(self):
        probes = []

        def f(x):
            probes.append(x)
            return math.sin(5.0 * x) + x

        with pytest.raises(ConvergenceFailureError) as info:
            _brentq(f, -2.0, 1.5, 1e-15, 8.9e-16, maxiter=3)
        assert len(probes) == 2 + 3
        assert info.value.best_estimate == probes[-1]

    def test_nan_raises_at_its_abscissa(self):
        # the first step bisects [0, 2] and lands in the NaN region at x = 1
        def f(x):
            return math.nan if 0.5 < x < 1.5 else x - 1.0

        with pytest.raises(DomainEvaluationError) as info:
            _brentq(f, 0.0, 2.0, 1e-12, 8.9e-16)
        assert info.value.abscissa == 1.0

    def test_same_sign_bracket_rejected(self):
        with pytest.raises(RejectedInputError):
            _brentq(lambda x: x * x + 1.0, -1.0, 2.0, 1e-12, 8.9e-16)


class TestSplice:
    def test_phi2_constants(self, phi2):
        n = construct_N(phi2)
        assert n.splice_point == pytest.approx(PHI2_C1, rel=1e-10)
        assert n.linear_slope == pytest.approx(PHI2_C2, rel=1e-10)

    def test_phi1_constants(self, phi1):
        n = construct_N(phi1)
        assert n.splice_point == pytest.approx(PHI1_C1, rel=1e-10)
        assert n.linear_slope == pytest.approx(PHI1_C2, rel=1e-10)

    def test_n_properties(self, phi2):
        n = construct_N(phi2)
        us = np.linspace(1e-6, 5.0, 200)
        vals = n.n_eval(us)
        # N(u)/u nondecreasing and midpoint convexity on the sample grid
        slopes = vals / us
        assert np.all(np.diff(slopes) >= -1e-9)
        mid = n.n_eval((us[:-1] + us[1:]) / 2.0)
        assert np.all(mid <= (vals[:-1] + vals[1:]) / 2.0 + 1e-9)

    def test_no_overflow_for_huge_arguments(self, phi2):
        n = construct_N(phi2)
        # log N stays finite-valued arithmetic even when u = exp(1e6)
        out = n.n_log_from_log_u(np.array([1e6]))
        assert np.isfinite(out).all() or np.all(out > 0)


class TestLuxemburg:
    def test_constant_hits_linear_branch(self, phi2, ctx):
        # B(1) = C2 exactly: the modular of a constant solves on the chord
        n = ctx.orlicz(phi2)
        assert luxemburg_norm(PolynomialRep([1.0]), n) == pytest.approx(PHI2_C2, rel=1e-9)

    def test_zero(self, phi2, ctx):
        assert luxemburg_norm(PolynomialRep([0.0]), ctx.orlicz(phi2)) == 0.0

    def test_defining_property(self, phi2, ctx):
        # at the returned l*, the modular must sit within 1e-6 of one
        n = ctx.orlicz(phi2)
        f = PolynomialRep([0.3, 1.0, -0.7])
        value, residual, ok = _luxemburg_detail(f, n, INTERVAL, DEFAULT_CONFIG)
        assert ok

        def log_integrand(x):
            with np.errstate(divide="ignore"):
                return n.n_log_from_log_u(np.log(np.abs(f(x)) / value))

        modular = math.exp(integrate_log(log_integrand, INTERVAL.lo, INTERVAL.hi)) * INTERVAL.density
        assert 1.0 - 1e-6 <= modular <= 1.0 + 1e-6

    def test_residual_postcondition(self, phi2, ctx):
        n = ctx.orlicz(phi2)
        for coeffs in ([1.0, 2.0], [0.0, 0.0, 5.0], [2.0, -1.0, 0.5, 0.25]):
            _value, residual, ok = _luxemburg_detail(
                PolynomialRep(coeffs), n, INTERVAL, DEFAULT_CONFIG
            )
            assert ok
            assert abs(residual) <= 1e-8

    def test_fast_orlicz_function(self, ctx):
        # phi_{4,0} makes the modular explode far from the root; the solver
        # must still converge through the sign-only fallback
        phi4 = power_log(4.0)
        n = ctx.orlicz(phi4)
        value = luxemburg_norm(PolynomialRep([0.0, 0.0, 3.0]), n)
        assert value > 0.0


class TestGNorm:
    def test_constant_value(self, phi2, ctx):
        # G(1) = 1/psi(1) = C2 by the tangency identity
        got = g_norm(PolynomialRep([1.0]), phi2, cache=ctx.conjugates(phi2))
        assert got == pytest.approx(PHI2_C2, rel=1e-6)

    def test_scan_result_fields(self, phi2, ctx):
        info = g_norm_info(PolynomialRep([0.0, 1.0]), phi2, cache=ctx.conjugates(phi2))
        assert info.value > 0.0
        assert info.p_star >= 1.0
        assert info.tolerance_met

    def test_scan_winner_is_consistent(self, phi2, ctx):
        f = PolynomialRep([0.5, 0.0, 1.0])
        info = g_norm_info(f, phi2, cache=ctx.conjugates(phi2))
        from orlimark.conjugate import psi_log

        direct = lp_quasinorm(f, info.p_star, INTERVAL) * math.exp(-psi_log(phi2, info.p_star))
        assert info.value == pytest.approx(direct, rel=1e-9)

    def test_zero(self, phi2, ctx):
        assert g_norm(PolynomialRep([0.0]), phi2, cache=ctx.conjugates(phi2)) == 0.0

    def test_divergent_scan_raises(self, phi2, ctx):
        # (1-x)^{-0.3} has ||f||_p = inf for p >= 10/3, so the sup diverges
        with pytest.raises(ScanDivergenceError):
            g_norm(InversePowerRep(0.3), phi2, cache=ctx.conjugates(phi2))

    def test_divergent_v_scan_raises(self, phi2, ctx):
        # (1-x)^{-1.5} has ||f||_beta = inf for beta >= 2/3, and with r = 1
        # every scanned beta = p / (p + 1) is at least 0.8
        with pytest.raises(ScanDivergenceError):
            v_quasinorm(InversePowerRep(1.5), phi2, 1.0, cache=ctx.conjugates(phi2, p_lo=4.0))

    @staticmethod
    def _edge_case(p_peak):
        """x^8 against power_log(m), with m chosen so the ratio peaks at p_peak.

        log(||x^8||_p / psi(p)) = -log(8p + 1)/p - (log(p/m) - 1)/m has its
        only maximum where log(8p + 1)/p - 8/(8p + 1) = 1/m; over p >= 1 a
        peak below 1 clamps to the edge p = 1.  Returns f, phi, the maximizing
        p >= 1 and the maximum, both to 40 digits for the float m in use.
        """
        with mp.workdps(40):
            peak = mp.mpf(p_peak)
            m = float(1 / (mp.log(8 * peak + 1) / peak - 8 / (8 * peak + 1)))
            mm = mp.mpf(m)
            if peak > 1:
                p_star = mp.findroot(lambda p: mp.log(8 * p + 1) / p - 8 / (8 * p + 1) - 1 / mm, peak)
            else:
                p_star = mp.mpf(1)
            value = mp.exp(-mp.log(8 * p_star + 1) / p_star - (mp.log(p_star / mm) - 1) / mm)
        return PolynomialRep([0.0] * 8 + [1.0]), power_log(m), p_star, value

    @pytest.mark.parametrize("p_peak", ["0.999", "1.0001", "1.01", "1.2"])
    def test_closed_form_peak_near_the_edge(self, p_peak):
        # a peak just inside p > 1 must still be polished; one below it
        # stays exactly on the edge
        f, phi, p_star, value = self._edge_case(p_peak)
        info = g_norm_info(f, phi)
        assert info.tolerance_met
        assert abs(info.value / value - 1) <= 1e-12
        assert abs(info.p_star / p_star - 1) <= 1e-7
        if p_star == 1:
            assert info.p_star == 1.0

    @pytest.mark.parametrize("p_peak, most, least", [("0.999", 2, 0), ("1.2", math.inf, 40)])
    def test_edge_winner_skips_the_polish(self, p_peak, most, least, monkeypatch):
        # the edge probe costs two conjugate solves; an interior peak still
        # pays for the whole golden polish
        f, phi, _p_star, _value = self._edge_case(p_peak)
        cache = ConjugateCache(phi)
        calls = []
        solve = norms.young_fenchel_or_inf

        def counted(*args, **kw):
            calls.append(args)
            return solve(*args, **kw)

        monkeypatch.setattr(norms, "young_fenchel_or_inf", counted)
        g_norm_info(f, phi, cache=cache)
        assert least <= len(calls) <= most

    @pytest.mark.parametrize(
        "m, value, p_star, extensions",
        [
            (200.0, 0.988057896166384, 2000.4739732549451, 1),
            (1000.0, 0.9974523520414863, 11774.930833972616, 2),
        ],
    )
    def test_grid_extension(self, m, value, p_star, extensions):
        # x^30 against a steep weight peaks beyond the initial grid, so the
        # scan has to extend the grid once or twice before it stops rising
        info = g_norm_info(PolynomialRep([0.0] * 30 + [1.0]), power_log(m))
        assert info.extensions == extensions
        assert info.tolerance_met
        assert info.value == pytest.approx(value, rel=1e-12)
        assert info.p_star == pytest.approx(p_star, rel=1e-9)


class TestSupRatioFrom:
    @pytest.mark.parametrize("label", [f"poly-0{i}" for i in range(1, 7)])
    def test_scan_starts_at_p_lo(self, label, phi2):
        # the default cache starts at p_lo, so the ratio at p = 4 itself
        # bounds the sup from below
        f = dict(build_corpus(7))[label]
        got = sup_ratio_from(f, phi2, 4.0)
        assert got == sup_ratio_from(f, phi2, 4.0, cache=ConjugateCache(phi2, p_lo=4.0))
        assert got >= lp_quasinorm(f, 4.0, INTERVAL) * math.exp(-psi_log(phi2, 4.0)) * (1 - 1e-12)

    def test_cache_below_p_lo_rejected(self, phi2, ctx):
        f = PolynomialRep([0.5, 0.0, 1.0])
        with pytest.raises(ValueError, match="p_lo"):
            sup_ratio_from(f, phi2, 4.0, cache=ctx.conjugates(phi2))
        with pytest.raises(ValueError, match="p_lo"):
            v_quasinorm_info(f, phi2, 1.0, cache=ctx.conjugates(phi2))


class TestVQuasinorm:
    def test_constant_value(self, phi2, ctx):
        # V(1) = 1/psi(4): beta(p) -> sup at the left endpoint p = 4
        expect = 1.1658219907985623
        got = v_quasinorm(PolynomialRep([1.0]), phi2, 1.0, cache=ctx.conjugates(phi2, p_lo=4.0))
        assert got == pytest.approx(expect, rel=1e-6)

    def test_info_fields(self, phi2, ctx):
        info = v_quasinorm_info(
            PolynomialRep([0.0, 1.0]), phi2, 1.0, cache=ctx.conjugates(phi2, p_lo=4.0)
        )
        assert info.value > 0.0
        assert info.p_star >= 4.0
        assert info.tolerance_met

    def test_singular_member_finite(self, phi2, ctx):
        # (1-x)^{-1/2} with r=1: beta(p) < 1 keeps every scanned norm finite
        got = v_quasinorm(InversePowerRep(0.5), phi2, 1.0, cache=ctx.conjugates(phi2, p_lo=4.0))
        assert math.isfinite(got) and got > 0.0


class TestLorentz:
    def test_diagonal_matches_lp(self):
        f = PolynomialRep([0.0, 1.0])
        for p in (1.0, 2.0, 3.0):
            expect = (1.0 / (p + 1.0)) ** (1.0 / p)
            assert lorentz_norm(f, p, p) == pytest.approx(expect, rel=1e-6)

    def test_constant_all_parameters(self):
        f = PolynomialRep([2.0])
        for b in (1.0, 2.0, math.inf):
            assert lorentz_norm(f, 2.0, b) == pytest.approx(2.0, rel=1e-6)

    def test_sup_variant(self):
        f = PolynomialRep([0.0, 1.0])
        # sup_x x * (1-x)^{1/2} at x = 2/3
        expect = (2.0 / 3.0) * (1.0 / 3.0) ** 0.5
        assert lorentz_norm(f, 2.0, math.inf) == pytest.approx(expect, rel=1e-6)

    def test_zero(self):
        assert lorentz_norm(PolynomialRep([0.0]), 2.0, 1.0) == 0.0

    @pytest.mark.parametrize("k", [1, 3, 8])
    def test_power_beta_closed_form(self, k):
        # T(w) = 1 - w^(1/k) for x^k, so b * int w^(b-1) T^(p/b) dw is
        # b k B(kb, p/b + 1): the convention (b int w^(b-1) T^(p/b))^(1/b)
        # pinned off the diagonal
        f = PolynomialRep([0.0] * k + [1.0])
        for p, b in ((1.0, 2.5), (1.5, 1.0), (2.0, 3.0), (3.0, 1.5), (4.0, 2.0), (6.0, 1.25)):
            log_beta = math.lgamma(k * b) + math.lgamma(p / b + 1.0) - math.lgamma(k * b + p / b + 1.0)
            expect = b * k * math.exp(log_beta)
            assert lorentz_norm(f, p, b) ** b == pytest.approx(expect, rel=1e-9)

    @pytest.mark.parametrize("k", [1, 3, 8])
    def test_power_weak_closed_form(self, k):
        # sup over u = w^(1/k) of u^k (1 - u)^(1/p) sits at u = kp/(kp + 1)
        f = PolynomialRep([0.0] * k + [1.0])
        for p in (1.0, 2.0, 3.5, 10.0):
            expect = (k * p / (k * p + 1.0)) ** k * (k * p + 1.0) ** (-1.0 / p)
            assert lorentz_norm(f, p, math.inf) == pytest.approx(expect, rel=1e-12)

    def test_unbounded_rejected(self):
        with pytest.raises(DomainEvaluationError):
            lorentz_norm(InversePowerRep(0.5), 1.5, 1.0)

    @pytest.mark.parametrize(("c", "p"), [(1e-5, 80.0), (1e-20, 20.0)])
    def test_diagonal_at_extreme_scales(self, c, p):
        # |f|^(b - 1) T^(p/b) leaves double range here; ||f||_(p,p) = ||f||_p holds
        f = PolynomialRep([0.0, c])
        assert lorentz_norm(f, p, p) == pytest.approx(lp_quasinorm(f, p, INTERVAL), rel=1e-12, abs=0.0)

    @pytest.mark.parametrize("c", [1e100, 1e-100])
    def test_homogeneous_at_extreme_scales(self, c):
        coeffs = [0.0, 1.0, -0.4]
        got = lorentz_norm(PolynomialRep([c * v for v in coeffs]), 2.0, 8.0)
        assert got == pytest.approx(c * lorentz_norm(PolynomialRep(coeffs), 2.0, 8.0), rel=1e-12, abs=0.0)


def _mp_lp_norms(coeffs, ps):
    """30-digit ||f||_p for integer p: f^p integrated exactly between the
    real roots of f, which are refined from float seeds by mpmath."""
    with mp.workdps(30):
        c = [mp.mpf(v) for v in coeffs]

        def poly(x):
            return mp.polyval(c[::-1], x)

        seeds = np.polynomial.polynomial.polyroots(coeffs)
        seeds = [r.real for r in seeds if abs(r.imag) < 1e-3 and abs(r.real) < 1.01]
        cuts = sorted({mp.findroot(poly, mp.mpf(x0)) for x0 in seeds})
        cuts = [x for x in cuts if -1 < x < 1]
        # every sign change of f on a fine grid is one of the cuts
        grid = np.polynomial.polynomial.polyval(np.linspace(-1.0, 1.0, 2**14 + 1), coeffs)
        assert int(np.sum(grid[1:] * grid[:-1] < 0.0)) == len(cuts)
        edges = [mp.mpf(-1)] + cuts + [mp.mpf(1)]
        out = []
        power = [mp.mpf(1)]
        for p in range(1, max(ps) + 1):
            power = [
                mp.fsum(power[i] * c[k - i] for i in range(len(power)) if 0 <= k - i < len(c))
                for k in range(len(power) + len(c) - 1)
            ]
            if p in ps:
                prim = [mp.mpf(0)] + [a / (i + 1) for i, a in enumerate(power)]
                vals = [mp.polyval(prim[::-1], x) for x in edges]
                total = mp.fsum(abs(b - a) for a, b in zip(vals, vals[1:]))
                out.append(float((total / 2) ** (mp.mpf(1) / p)))
    return out


def test_lorentz_diagonal_matches_mpmath():
    # ||f||_(p,p) = ||f||_p on the 30 corpus polynomials, against 30 digits
    worst = 0.0
    for label, f in build_corpus(7)[:30]:
        for p, ref in zip((1, 2, 3), _mp_lp_norms(list(f.coeffs), (1, 2, 3))):
            worst = max(worst, abs(lorentz_norm(f, float(p), float(p)) - ref) / ref)
    assert worst <= 1e-10


def test_lorentz_diagonal_off_polynomials_matches_mpmath():
    # gap-03 is monotone with a critical point just past x = 1, which bends T
    # near its lower end; trig-05 has kinks of |f| at its zeros
    corpus = dict(build_corpus(7))
    gap, trig = corpus["gap-03"], corpus["trig-05"]
    with mp.workdps(20):
        gap_ref = mp.quad(lambda x: mp.fprod(((x - a) ** 2 + b * b) ** (mp.mpf(r) / 2) for a, b, r in gap.factors), [-1, 1])
        trig_mp = _mp_function(trig)
        trig_ref = mp.quad(lambda x: abs(trig_mp(x)), [float(x) for x in trig.break_points(trig.natural_domain)])
    assert lorentz_norm(gap, 1.0, 1.0) == pytest.approx(float(gap_ref / 2), rel=1e-10)
    assert lorentz_norm(trig, 1.0, 1.0) == pytest.approx(float(trig_ref / (2 * mp.pi)), rel=1e-10)


def _mp_function(f):
    """A polynomial, trig or rational member as an mpmath function of x."""
    if f.kind == "polynomial":
        c = [mp.mpf(v) for v in f.coeffs][::-1]
        return lambda x: mp.polyval(c, x)
    if f.kind == "trig":
        a, b = [mp.mpf(v) for v in f.cos_coeffs], [mp.mpf(v) for v in f.sin_coeffs]

        def trig(x):
            # a_k cos(kx) + b_k sin(kx) = a_k Re z^k + b_k Im z^k, z = e^(ix)
            e, z, total = mp.expj(x), mp.mpf(1), a[0]
            for k in range(1, len(a)):
                z *= e
                total += a[k] * z.real + b[k - 1] * z.imag
            return total

        return trig
    num, den = [mp.mpf(v) for v in f.num.coeffs][::-1], [mp.mpf(v) for v in f.den.coeffs][::-1]
    return lambda x: mp.polyval(num, x) / mp.polyval(den, x)


def _mp_cuts(f):
    return [mp.mpf(float(x)) for x in f.break_points(f.natural_domain)]


def test_lp_quasinorm_matches_mpmath():
    # every polynomial, trig and rational member of the corpus, against a
    # 20-digit quad split at the member's break points: |f| has a kink at
    # each zero of f, which the adaptive rule must start from
    for label, f in build_corpus(7):
        if f.kind not in ("polynomial", "trig", "rational"):
            continue
        g, values = _mp_function(f), {}

        def abs_f(x):
            # the quads for the three p share their nodes
            if x not in values:
                values[x] = abs(g(x))
            return values[x]

        cuts = _mp_cuts(f)
        for p in (1, 2, 3):
            with mp.workdps(20):
                mean = mp.quad(lambda x: abs_f(x) ** p, cuts, method="gauss-legendre") / (cuts[-1] - cuts[0])
                ref = float(mean ** (mp.mpf(1) / p))
            rel = abs(lp_quasinorm(f, float(p), f.natural_domain) - ref) / ref
            assert rel <= 1e-12, (label, p, rel)


def _mp_phi(phi):
    """The growth function of power_log(m) (r = 0) or log_power(nu) in mpmath."""
    if phi.family == "power-log":
        assert phi.r == 0.0
        return lambda u: u ** mp.mpf(phi.m)
    return lambda u: mp.log1p(u) ** (1 + mp.mpf(phi.nu))


@pytest.mark.parametrize("label", ["trig-06", "poly-19", "rational-05"])
def test_luxemburg_matches_mpmath(label, ctx):
    # members with interior zeros; the modular N(|f| / l) is integrated by a
    # 20-digit quad split at the break points and where |f| / l crosses the
    # knee, and its root l is found by mpmath
    f = dict(build_corpus(7))[label]
    g, cuts = _mp_function(f), _mp_cuts(f)
    for phi in (power_log(1.0), power_log(2.0), log_power(1.0)):
        n = ctx.orlicz(phi)
        got = luxemburg_norm(f, n)
        with mp.workdps(20):
            growth = _mp_phi(phi)
            knee, slope = mp.mpf(n.splice_point), mp.mpf(n.linear_slope)

            def modular(l):
                level = knee * l
                pts = list(cuts)
                for a, b in zip(cuts, cuts[1:]):
                    # |f| is monotone between break points: at most one crossing
                    if (abs(g(a)) - level) * (abs(g(b)) - level) < 0:
                        pts.append(mp.findroot(lambda x: abs(g(x)) - level, (a, b), solver="anderson"))

                def big_n(x):
                    u = abs(g(x)) / l
                    return slope * u if u <= knee else mp.exp(growth(u))

                return mp.quad(big_n, sorted(pts), method="gauss-legendre") / (cuts[-1] - cuts[0])

            start = (mp.mpf(got), mp.mpf(got) * (1 + mp.mpf(1e-6)))
            ref = float(mp.findroot(lambda l: modular(l) - 1, start, solver="secant"))
        assert got == pytest.approx(ref, rel=1e-9), phi.label


@pytest.mark.parametrize("label", ["trig-06", "poly-19", "rational-05"])
def test_g_norm_is_the_exact_ratio_at_p_star(label, ctx):
    # the scan's cached-node evaluator starts from the break points as well,
    # so the fast value it may report is the exact ratio at p_star to
    # rounding, not only to the scan's 1e-6 agreement test
    f = dict(build_corpus(7))[label]
    for phi in (power_log(1.0), power_log(2.0), log_power(1.0)):
        info = g_norm_info(f, phi, cache=ctx.conjugates(phi))
        exact = lp_quasinorm(f, info.p_star, f.natural_domain) * math.exp(-psi_log(phi, info.p_star))
        assert info.value == pytest.approx(exact, rel=1e-12), phi.label


class TestWeightedLorentzG:
    def test_constant(self, phi2, ctx):
        got = weighted_lorentz_g(PolynomialRep([1.0]), phi2, 1.0, cache=ctx.conjugates(phi2))
        assert got == pytest.approx(PHI2_C2, rel=1e-4)

    def test_zero(self, phi2, ctx):
        assert weighted_lorentz_g(PolynomialRep([0.0]), phi2, 2.0, cache=ctx.conjugates(phi2)) == 0.0

    def test_positive_on_generic_member(self, phi2, ctx):
        got = weighted_lorentz_g(
            PolynomialRep([0.5, -1.0, 2.0]), phi2, 2.0, cache=ctx.conjugates(phi2)
        )
        assert math.isfinite(got) and got > 0.0

    @pytest.mark.parametrize("c", [1e160, 1e-160])
    def test_homogeneous_at_extreme_scales(self, phi2, ctx, c):
        coeffs = [0.0, 1.0, -0.4]
        base = weighted_lorentz_g(PolynomialRep(coeffs), phi2, 2.0, cache=ctx.conjugates(phi2))
        got = weighted_lorentz_g(PolynomialRep([c * v for v in coeffs]), phi2, 2.0, cache=ctx.conjugates(phi2))
        assert got == pytest.approx(c * base, rel=1e-12, abs=0.0)

    @pytest.mark.parametrize("m", [2.0, 8.0, 50.0])
    def test_eighth_power(self, m, ctx):
        # T(w) = 1 - w^(1/8) has infinite slope at w = 0
        phi = power_log(m)
        got = weighted_lorentz_g(PolynomialRep([0.0] * 8 + [1.0]), phi, 2.0, cache=ctx.conjugates(phi))
        assert math.isfinite(got) and got > 0.0
        if m != 2.0:
            return

        def log_ratio(log_p):
            # log of ||x^8||_(p,2) / psi(p), from ||x^8||^2 = 16 B(16, p/2 + 1)
            p = math.exp(log_p)
            log_beta = math.lgamma(16.0) + math.lgamma(p / 2.0 + 1.0) - math.lgamma(p / 2.0 + 17.0)
            return 0.5 * (math.log(16.0) + log_beta) - psi_log(phi, p)

        grid = np.log(np.geomspace(1.0, 1e4, 801))
        vals = [log_ratio(x) for x in grid]
        k = int(np.argmax(vals))
        _x, best = golden_max(log_ratio, grid[max(k - 1, 0)], grid[min(k + 1, grid.size - 1)], tol=1e-14)
        assert got == pytest.approx(math.exp(max(best, vals[k])), rel=1e-9)


class TestEquivalenceConstants:
    def test_phi2_frozen_values(self, phi2, ctx):
        consts = equivalence_constants(ctx.orlicz(phi2))
        assert isinstance(consts, EquivalenceConstants)
        assert consts.g_over_b == pytest.approx(1.0, rel=1e-12)
        assert consts.b_over_g_log == pytest.approx(405.4287934927351, rel=1e-9)
        assert consts.split_index == pytest.approx(5.0, rel=1e-6)
        # both series underflow to zero: first gap is h(5)-h(6) ~ -1e5
        assert consts.series_sum == 0.0
        assert consts.series_sum_alt == 0.0

    def test_exponential_form(self, phi2, ctx):
        consts = equivalence_constants(ctx.orlicz(phi2))
        assert consts.b_over_g == pytest.approx(math.exp(consts.b_over_g_log), rel=1e-12)
        assert consts.b_over_g > math.exp(2.0)

    def test_phi4_log_finite_exp_overflows(self, ctx):
        phi4 = power_log(4.0)
        consts = equivalence_constants(ctx.orlicz(phi4))
        assert math.isfinite(consts.b_over_g_log)
        assert consts.b_over_g == math.inf

    def test_c3_lower_edge_is_tight(self, phi2, ctx):
        # the tangency identity makes constants exact equality cases, so the
        # lower edge 1/C3 with C3 = max(1, C1, 1/C2) is attained
        consts = equivalence_constants(ctx.orlicz(phi2))
        b = luxemburg_norm(PolynomialRep([1.0]), ctx.orlicz(phi2))
        g = g_norm(PolynomialRep([1.0]), phi2, cache=ctx.conjugates(phi2))
        assert b / g >= 1.0 / consts.g_over_b - 1e-6


class TestDispatch:
    def test_all_spec_kinds(self, phi2, ctx):
        f = PolynomialRep([0.2, 1.0])
        pairs = [
            (lp_spec(2.0), lp_quasinorm(f, 2.0, INTERVAL)),
            (orlicz_spec(phi2), luxemburg_norm(f, ctx.orlicz(phi2))),
            (gnorm_spec(phi2), g_norm(f, phi2, cache=ctx.conjugates(phi2))),
            (lorentz_spec(2.0, 2.0), lorentz_norm(f, 2.0, 2.0)),
            (vnorm_spec(phi2, 1.0), v_quasinorm(f, phi2, 1.0, cache=ctx.conjugates(phi2, p_lo=4.0))),
        ]
        for spec, direct in pairs:
            assert evaluate_norm(f, spec, ctx=ctx) == pytest.approx(direct, rel=1e-9)

    def test_info_reports_scan_maximizer(self, phi2, ctx):
        f = PolynomialRep([0.2, 1.0])
        for spec in (lp_spec(2.0), orlicz_spec(phi2), lorentz_spec(2.0, 2.0)):
            info = evaluate_norm_info(f, spec, ctx=ctx)
            assert info.p_star is None
            assert info.tolerance_met
            assert info.extensions == 0
        scans = [
            (gnorm_spec(phi2), g_norm_info(f, phi2, cache=ctx.conjugates(phi2))),
            (vnorm_spec(phi2, 1.0), v_quasinorm_info(f, phi2, 1.0, cache=ctx.conjugates(phi2, p_lo=4.0))),
        ]
        for spec, direct in scans:
            info = evaluate_norm_info(f, spec, ctx=ctx)
            assert info.p_star == direct.p_star
            assert info.value == direct.value

    def test_labels_are_informative(self, phi2):
        assert "2" in lp_spec(2.0).label
        assert "orlicz" in orlicz_spec(phi2).label

    def test_context_caches(self, phi2):
        local = NormContext()
        assert local.orlicz(phi2) is local.orlicz(phi2)
        assert local.conjugates(phi2) is local.conjugates(phi2)
