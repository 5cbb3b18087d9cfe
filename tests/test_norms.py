"""Norm layer: N-splice, Luxemburg, grand-Lebesgue scans, Lorentz, V, constants."""

import copy
import functools
import math
import warnings

import mpmath as mp
import numpy as np
import pytest
from scipy.optimize import brentq

from orlimark import conjugate, norms, quadrature
from orlimark.conjugate import ConjugateCache, custom_phi, exp_or_inf, golden_max, log_power, power_log, psi_log, tabulated_phi
from orlimark.errors import (
    ConstructionError,
    ConvergenceFailureError,
    DomainEvaluationError,
    RejectedInputError,
    ScanDivergenceError,
)
from orlimark.functions import (
    GapDerivative,
    GapRep,
    InversePowerRep,
    PolynomialRep,
    RationalRep,
    TrigPolynomialRep,
    derivative,
    jacobi22,
    random_family,
)
from orlimark.harness import build_corpus, equivalence_band, markov_ratio
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
from orlimark.quadrature import DEFAULT_CONFIG, Domain, _bracketed_root, lp_quasinorm, sup_norm

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
            return np.polynomial.polynomial.polyval(x, c) + 0.3 * np.sin(5.0 * x)

        if f(a) * f(b) < 0.0:
            problems.append((f, float(a), float(b)))
    return problems


def _recorded_steps(monkeypatch):
    """A list that records each step of ``_bracketed_root`` from now on:
    whether it runs on floats, and whether an end value that regula falsi
    reads has been scaled to +-0 in a lane whose g there is not 0."""
    steps, step = [], quadrature._root_step

    def recorded(ops, evaluate, state):
        gn, gp, sn, sp = (np.asarray(v) for v in state[2:6])
        steps.append((ops is quadrature._ON_FLOATS, bool(np.any(((sn == 0.0) & (gn != 0.0)) | ((sp == 0.0) & (gp != 0.0))))))
        return step(ops, evaluate, state)

    monkeypatch.setattr(quadrature, "_root_step", recorded)
    return steps


def _solve(f, a, b, tol):
    """The bracket [a, b] collapsed around a root of the scalar f, one lane:
    (x_neg, x_pos, f(x_neg), f(x_pos))."""
    f_a, f_b = float(f(a)), float(f(b))
    if f_a > 0.0:
        a, b, f_a, f_b = b, a, f_b, f_a
    ends = _bracketed_root(
        lambda x, _lanes: np.array([float(f(x[0]))]), np.array([a]), np.array([b]), np.array([f_a]), np.array([f_b]), tol
    )
    return tuple(float(v[0]) for v in ends)


class TestBrentq:
    """The one bracketed root solver, against scipy's brentq."""

    @pytest.mark.parametrize("xtol,rtol", ROOT_TOLERANCES)
    def test_within_tolerance_of_scipy(self, xtol, rtol):
        single = 0
        for f, a, b in _bracketed_problems(seed=7, count=1000):
            tol = xtol + rtol * max(abs(a), abs(b))
            x_neg, x_pos, g_neg, g_pos = _solve(f, a, b, tol)
            assert f(x_neg) == g_neg <= 0.0 <= g_pos == f(x_pos), (a, b)
            assert abs(x_pos - x_neg) <= tol, (a, b)
            # with several roots in [a, b] the two solvers may settle on different ones
            if np.count_nonzero(np.diff(np.sign(f(np.linspace(a, b, 4001))))) == 1:
                single += 1
                root = brentq(f, a, b, xtol=xtol, rtol=rtol)
                x = x_neg if -g_neg < g_pos else x_pos
                assert abs(x - root) <= xtol + rtol * abs(root), (a, b)
        assert single > 800

    def test_lanes_are_independent(self, monkeypatch):
        # lanes that finish at different steps return, lane by lane, the bits
        # of solving each alone, after as many calls of g: 40 seeded problems
        # with their own tol, a first step onto an exact zero, a lane that
        # the stop test ends uncollapsed, an infinite end value at the
        # negative end, at the positive end and at both, a decreasing
        # bracket, a zero at an end, values of the smallest subnormal, whose
        # Anderson-Bjorck scale underflows an end value to +-0 that a later
        # step divides by, and a bracket of zero width, from 0 to -0 at tol
        # 0 around a jump of g through 0 there, whose first point, a zero
        # of g, is the clip of zeros of both signs.  Alone, a lane runs on
        # floats; among the others, on arrays until it is the last one live
        problems = _bracketed_problems(seed=11, count=40)
        fs = [f for f, _a, _b in problems] + [
            lambda x: x - 0.5,
            lambda x: math.log(x) - math.log(13.3),
            lambda x: 1.0 - 1.0 / x if x else -math.inf,
            lambda x: 1.0 / (1.0 - x) - 3.0 if x < 1.0 else math.inf,
            lambda x: math.log(x / (1.0 - x)) - 0.7 if 0.0 < x < 1.0 else math.copysign(math.inf, x - 0.5),
            lambda x: math.exp(-x) - 0.3,
            lambda x: math.copysign(5e-324, x - 0.3),
            lambda x: -math.copysign(1.0, x) if x else 0.0,
            lambda x: x - 2.0,
        ]
        ends = [(a, b) if f(a) < 0.0 else (b, a) for f, a, b in problems]
        ends += [(0.0, 1.0), (10.0, 20.0), (0.0, 2.0), (0.0, 1.0), (0.0, 1.0), (3.0, 0.0), (0.0, 1.0), (0.0, -0.0), (1.0, 2.0)]
        x_neg, x_pos = (np.array(v) for v in zip(*ends))
        g_neg, g_pos = (np.array([float(f(x)) for f, x in zip(fs, xs)]) for xs in (x_neg, x_pos))
        # the library's tolerances, xtol + rtol max(|a|, |b|), one a lane
        xtol, rtol = np.array(ROOT_TOLERANCES)[np.arange(len(fs)) % 2].T
        tol = xtol + rtol * np.maximum(np.abs(x_neg), np.abs(x_pos))
        # the zero-width bracket: g's limits at its ends, and tol 0
        g_neg[-2], g_pos[-2], tol[-2] = -1.0, 1.0, 0.0
        calls = np.zeros(len(fs), dtype=int)
        steps = _recorded_steps(monkeypatch)

        def g(x, lanes, at=None):
            lanes = lanes if at is None else np.full(lanes.shape, at)
            np.add.at(calls, lanes, 1)
            return np.array([float(fs[i](v)) for v, i in zip(x, lanes)])

        def stop(x_neg, x_pos):
            return (np.abs(x_pos - x_neg) <= 1e-3) & (np.minimum(x_neg, x_pos) >= 10.0)

        together = np.stack(_bracketed_root(g, x_neg.copy(), x_pos.copy(), g_neg.copy(), g_pos.copy(), tol, stop))
        together_calls, together_steps = calls.copy(), steps.copy()
        for i in range(len(fs)):
            calls[:], steps[:] = 0, []
            alone = np.stack(_bracketed_root(lambda x, lanes: g(x, lanes, at=i), *(v[i : i + 1].copy() for v in (x_neg, x_pos, g_neg, g_pos)), tol[i], stop))
            assert together[:, i].tobytes() == alone[:, 0].tobytes(), i
            assert calls[i] == together_calls[i], i
            assert all(on_floats for on_floats, _scaled in steps), i
            if i == len(fs) - 3:
                # the subnormal lane alone
                assert any(scaled for _on_floats, scaled in steps)
        assert together_calls[-9] == 1 and tuple(together[:, -9]) == (0.5, 0.5, 0.0, 0.0)
        assert 1e-12 < abs(together[1, -8] - together[0, -8]) <= 1e-3
        assert together_calls[-1] == 0 and tuple(together[:, -1]) == (2.0, 2.0, 0.0, 0.0)
        # np.minimum(0, -0) and np.maximum(0, -0) are both -0
        assert together_calls[-2] == 1 and together[:, -2].tobytes() == np.array([-0.0, -0.0, 0.0, 0.0]).tobytes()
        collapsed = np.arange(len(fs)) != len(fs) - 8
        assert np.all(np.abs(together[1] - together[0])[collapsed] <= tol[collapsed])
        assert len(set(together_calls[:-1])) > 5
        # the subnormal lane underflows among the others, on arrays, and the
        # call ends with one lane on floats for several steps
        assert any(scaled for on_floats, scaled in together_steps if not on_floats)
        assert sum(on_floats for on_floats, _scaled in together_steps) >= 5

    @pytest.mark.parametrize("xtol,rtol", ROOT_TOLERANCES)
    def test_zero_at_an_endpoint_is_returned(self, xtol, rtol):
        assert _solve(lambda x: x - 1.0, 1.0, 3.0, xtol + 3.0 * rtol) == (1.0, 1.0, 0.0, 0.0)
        assert _solve(lambda x: x - 3.0, 1.0, 3.0, xtol + 3.0 * rtol) == (3.0, 3.0, 0.0, 0.0)

    def test_no_convergence_raises_with_last_iterate(self):
        # a jump at 1/3 with no zero never collapses to a zero-width bracket:
        # the solve stops at its step cap, on one of the two doubles around it
        probes = []

        def f(x):
            probes.append(x)
            return 1.0 if x > 1.0 / 3.0 else -1.0

        with pytest.raises(ConvergenceFailureError) as info:
            _solve(f, 0.0, 1.0, 0.0)
        assert len(probes) == 2 + quadrature._MAX_ROOT_STEPS
        assert info.value.best_estimate in (1.0 / 3.0, np.nextafter(1.0 / 3.0, 1.0))

    def test_nan_raises_at_its_abscissa(self):
        # the first step of [0, 2] lands in the NaN region at x = 1
        def f(x):
            return math.nan if 0.5 < x < 1.5 else x - 1.0

        with pytest.raises(DomainEvaluationError) as info:
            _solve(f, 0.0, 2.0, 1e-12)
        assert info.value.abscissa == 1.0

    def test_float_selections_are_numpys(self):
        # a lone lane's where, minimum, maximum, isfinite and division give
        # numpy's values on every pair of special and ordinary floats: NaN
        # where numpy's is, and otherwise the same bits, signed zeros and
        # infinities included
        values = [0.0, -0.0, 1.0, -1.0, 2.5, -5e-324, 5e-324, 1e308, math.inf, -math.inf, math.nan]
        pairs = [(a, b) for a in values for b in values]
        arguments = {"where": [(a > b, a, b) for a, b in pairs], "isfinite": [(a,) for a in values]}
        for lone, lanes in zip(quadrature._ON_FLOATS, quadrature._ON_ARRAYS):
            for args in arguments.get(lanes.__name__, pairs):
                with np.errstate(all="ignore"):
                    want = lanes(*(np.array([v]) for v in args))[0].item()
                got = lone(*args)
                assert type(got) is type(want), (lanes.__name__, args)
                if got != got:
                    assert want != want, (lanes.__name__, args)
                else:
                    assert np.array([got]).tobytes() == np.array([want]).tobytes(), (lanes.__name__, args)

    def test_nan_raises_alike_alone_and_among_others(self):
        # the sixth step of [0, 2] lands in the NaN region: alone, on floats,
        # and beside a lane still live then, on arrays, the solve raises at
        # the same abscissa after the same calls of g
        fs = [lambda x: math.nan if 0.79 < x < 0.8 else x**3 - 0.5, lambda x: math.copysign(5e-324, x - 0.3)]
        for lanes in ([0], [0, 1]):
            probes = []

            def g(x, live, lanes=lanes):
                probes.extend(float(v) for v, i in zip(x, live) if lanes[i] == 0)
                return np.array([fs[lanes[i]](float(v)) for v, i in zip(x, live)])

            ends = (np.array(v)[lanes] for v in ([0.0, 0.0], [2.0, 1.0], [-0.5, -5e-324], [7.5, 5e-324]))
            with pytest.raises(DomainEvaluationError) as info:
                _bracketed_root(g, *ends, 1e-15)
            assert info.value.abscissa == 0.7950596479768969 == probes[-1]
            assert len(probes) == 6

    def test_step_cap_gives_the_same_best_estimate_alone_and_among_others(self):
        # a jump without a zero never collapses to zero width: alone (on
        # floats), first of two such lanes (on arrays) and last live after a
        # lane that converges (on arrays, then floats), it reaches the step
        # cap after as many calls of g, with the same best estimate
        fs = [lambda x: 1.0 if x > 1.0 / 3.0 else -1.0, lambda x: 1.0 if x > 0.6 else -1.0, lambda x: x - 0.25]
        estimates = []
        for lanes in ([0], [0, 1], [2, 0]):
            calls = [0]

            def g(x, live, lanes=lanes):
                calls[0] += sum(lanes[i] == 0 for i in live)
                return np.array([fs[lanes[i]](float(v)) for v, i in zip(x, live)])

            ends = (np.array(v)[lanes] for v in ([0.0, 0.0, 0.0], [1.0, 1.0, 1.0], [-1.0, -1.0, -0.25], [1.0, 1.0, 0.75]))
            with pytest.raises(ConvergenceFailureError) as info:
                _bracketed_root(g, *ends, 0.0)
            assert calls[0] == quadrature._MAX_ROOT_STEPS
            estimates.append(info.value.best_estimate)
        assert estimates[0] in (1.0 / 3.0, np.nextafter(1.0 / 3.0, 1.0))
        assert estimates[1] == estimates[0] == estimates[2]

    def test_same_sign_bracket_rejected(self):
        with pytest.raises(RejectedInputError):
            _solve(lambda x: x * x + 1.0, -1.0, 2.0, 1e-12)


# the weighted weak norm's exchange of suprema is checked for these: the
# closed-form families and a table whose knee is one of its points
EXCHANGE_PHIS = [
    power_log(1.0),
    power_log(2.0),
    log_power(1.0),
    tabulated_phi([0.25, 0.5, 1.0, 2.0, 4.0, 8.0], [0.0625, 0.25, 1.0, 4.0, 16.0, 1000.0]),
]
KNEE_PHIS = [power_log(1.0), power_log(2.0), power_log(4.0), power_log(1.0, 3.0), power_log(3.0, 1.0), power_log(8.0, 2.0), log_power(1.0), log_power(2.0)]


def mp_dh(phi, y):
    """h'(y) of a power-log or log-power phi in mpmath."""
    if phi.family == "log-power":
        soft = mp.log1p(mp.exp(y))
        return (1 + mp.mpf(phi.nu)) * soft ** mp.mpf(phi.nu) / (1 + mp.exp(-y))
    m, r = mp.mpf(phi.m), mp.mpf(phi.r)
    big = mp.exp(m + abs(r)) + mp.exp(y)
    h = mp.exp(m * y) * mp.log(big) ** (-m * r)
    return m * h * (1 - r * mp.exp(y) / (big * mp.log(big)))


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
        vals = np.exp(n.n_log_from_log_u(np.log(us)))
        # N(u)/u nondecreasing and midpoint convexity on the sample grid
        slopes = vals / us
        assert np.all(np.diff(slopes) >= -1e-9)
        mid = np.exp(n.n_log_from_log_u(np.log((us[:-1] + us[1:]) / 2.0)))
        assert np.all(mid <= (vals[:-1] + vals[1:]) / 2.0 + 1e-9)

    def test_no_overflow_for_huge_arguments(self, phi2):
        n = construct_N(phi2)
        # log N stays finite-valued arithmetic even when u = exp(1e6)
        out = n.n_log_from_log_u(np.array([1e6]))
        assert np.isfinite(out).all() or np.all(out > 0)

    @pytest.mark.parametrize("phi", KNEE_PHIS, ids=lambda phi: phi.label)
    def test_knee_matches_mpmath(self, phi):
        # the knee solves h'(log u) = 1; a 40-digit root of that equation
        n = construct_N(phi)
        with mp.workdps(40):
            y = mp.findroot(lambda t: mp_dh(phi, t) - 1, mp.mpf(math.log(n.splice_point)))
            knee = mp.exp(y)
            assert abs(n.splice_point - knee) <= 1e-13 * knee

    def test_custom_knee_by_complex_step(self):
        # z^2.5 maps complex input to complex values, so its h' is a complex
        # step and its knee 2.5^(-0.4) as close as the closed-form families'
        n = construct_N(custom_phi(lambda z: np.asarray(z) ** 2.5))
        assert abs(n.splice_point - 2.5**-0.4) <= 1e-13 * 2.5**-0.4

    def test_table_knee_is_its_kink(self):
        # h' steps from 0.27 to 1.08 at y = log 0.5, so the knee is that
        # point and the slope is e^h(log 0.5) / 0.5 = 2 e^(1/4)
        n = construct_N(tabulated_phi([0.25, 0.5, 1.0, 2.0, 4.0, 8.0], [0.0625, 0.25, 1.0, 4.0, 16.0, 1000.0]))
        assert n.splice_point == 0.5
        assert abs(n.linear_slope - 2.0 * math.exp(0.25)) <= 1e-15

    def test_table_knee_stops_at_its_kink(self, monkeypatch):
        # the solve stops once its bracket holds one kink, the maximizer:
        # 4 evaluations of h', where collapsing the bracket onto the kink
        # took 62
        calls, dh = [0], conjugate.PhiSpec.dh

        def counted(self, y):
            calls[0] += 1
            return dh(self, y)

        monkeypatch.setattr(conjugate.PhiSpec, "dh", counted)
        n = construct_N(tabulated_phi([0.25, 0.5, 1.0, 2.0, 4.0, 8.0], [0.0625, 0.25, 1.0, 4.0, 16.0, 1000.0]))
        assert n.splice_point == 0.5
        assert calls[0] < 62 / 2

    def test_no_knee_names_its_maximizer(self):
        # the knee of z^2 log(e^7 + z)^-10 lies at y*(1) = 12.56, past log 1000
        with pytest.raises(ConstructionError, match=r"no knee .*: y\*\(1\) = 12\.5"):
            construct_N(power_log(2.0, 5.0))

    @pytest.mark.parametrize("m", [200.0, 5000.0])
    def test_steep_phi_passes_the_spot_check_quietly(self, m):
        # log N overflows to +inf at the top of the monotonicity sample of
        # power_log(m >= 200): an inf after an inf is no fall, where a
        # difference of neighbours took inf - inf = NaN with a RuntimeWarning
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            n = construct_N(power_log(m))
        assert 0.0 < n.splice_point < 1.0

    def test_nonmonotone_phi_raises(self):
        # z^2 up to z = 10, falling beyond: N falls past the knee
        with pytest.raises(ConstructionError, match="is not monotone"):
            construct_N(custom_phi(lambda z: np.where(np.real(z) < 10.0, z**2, 100.0 - (z - 10.0))))

    @pytest.mark.parametrize(
        "phi",
        [
            power_log(2.0),
            log_power(1.0),
            custom_phi(lambda z: np.asarray(z) ** 2.5),
            tabulated_phi([0.25, 0.5, 1.0, 2.0, 4.0, 8.0], [0.0625, 0.25, 1.0, 4.0, 16.0, 1000.0]),
        ],
        ids=["power-log", "log-power", "custom", "tabulated"],
    )
    def test_n_log_takes_h_above_the_knee_only(self, phi, monkeypatch):
        # the linear branch fills log N and h is evaluated only above the
        # knee and at NaN, with the values of evaluating both everywhere
        n = construct_N(phi)
        knee = n.log_splice
        lu = np.concatenate([np.linspace(knee - 3.0, knee + 3.0, 61), [knee, np.nextafter(knee, math.inf), 1e6, -1e6, math.inf, -math.inf, math.nan]])
        with np.errstate(all="ignore"):
            want = np.where(lu <= knee, n.log_slope + lu, phi.h(lu))
        sizes, h = [], conjugate.PhiSpec.h
        monkeypatch.setattr(conjugate.PhiSpec, "h", lambda self, y: sizes.append(np.size(y)) or h(self, y))
        got = n.n_log_from_log_u(lu)
        assert got.tobytes() == want.tobytes()
        assert sizes == [np.count_nonzero(~(lu <= knee))]
        for v, w in zip(lu, want):
            one = n.n_log_from_log_u(np.float64(v))
            assert isinstance(one, np.ndarray) and one.shape == () and one.tobytes() == w.tobytes()

    def test_table_knee_at_the_clamp(self):
        # h' steps from 0 to 2 / log 2 at the start of the clamp at zero,
        # y = -log(2) / 2, where h = 0
        n = construct_N(tabulated_phi([1.0, 2.0, 4.0, 8.0], [1.0, 3.0, 9.0, 27.0]))
        assert n.splice_point == pytest.approx(2.0**-0.5, rel=1e-15)
        assert n.linear_slope == pytest.approx(2.0**0.5, rel=1e-15)


class TestLuxemburg:
    def test_constant_hits_linear_branch(self, phi2, ctx):
        # B(1) = C2 exactly: the modular of a constant solves on the chord
        n = ctx.orlicz(phi2)
        assert luxemburg_norm(PolynomialRep([1.0]), n) == pytest.approx(PHI2_C2, rel=1e-9)

    def test_zero(self, phi2, ctx):
        assert luxemburg_norm(PolynomialRep([0.0]), ctx.orlicz(phi2)) == 0.0

    @staticmethod
    def _log_modular(f, n, value):
        """The log N-modular of f / value, integrated afresh on [-1, 1]."""

        def log_integrand(x):
            with np.errstate(divide="ignore"):
                return n.n_log_from_log_u(np.log(np.abs(f(x)) / value))

        nodes = quadrature._NodeStore(log_integrand, quadrature._initial_edges(INTERVAL.lo, INTERVAL.hi, ()))
        return quadrature._adaptive(nodes, lambda g: g, DEFAULT_CONFIG)[0] + math.log(INTERVAL.density)

    def test_defining_property(self, phi2, ctx):
        # at the returned l*, the modular must sit within 1e-6 of one
        n = ctx.orlicz(phi2)
        f = PolynomialRep([0.3, 1.0, -0.7])
        modular = math.exp(self._log_modular(f, n, luxemburg_norm(f, n)))
        assert 1.0 - 1e-6 <= modular <= 1.0 + 1e-6

    def test_residual_postcondition(self, phi2, ctx):
        # the log modular at the returned root is within the solve's 1e-8
        n = ctx.orlicz(phi2)
        for coeffs in ([1.0, 2.0], [0.0, 0.0, 5.0], [2.0, -1.0, 0.5, 0.25]):
            f = PolynomialRep(coeffs)
            assert abs(self._log_modular(f, n, luxemburg_norm(f, n))) <= 1e-8

    @pytest.mark.parametrize("c", [1.0, 0.37, 5e3, -2.5])
    def test_constant_takes_no_modular_integral(self, c, phi2, ctx, monkeypatch):
        # |c| / l stays on the linear branch of N, where the modular is
        # slope ||f||_1 / l in closed form: the norm is slope ||f||_1, from
        # the one integral a solve starts with, the L1 one, which the node
        # store takes and the modulars of norms do not
        adaptive, calls = norms._adaptive, []

        def l1_only(*args):
            calls.append(args)
            if len(calls) > 1:
                raise AssertionError("the modular was integrated")
            return adaptive(*args)

        n = ctx.orlicz(phi2)
        # a copy of f of its own, whose store takes its L1 integral afresh
        l1 = lp_quasinorm(PolynomialRep([c]), 1.0, INTERVAL)
        f = PolynomialRep([c])
        for module in (quadrature, norms):
            monkeypatch.setattr(module, "_adaptive", l1_only)
        value = luxemburg_norm(f, n)
        assert len(calls) == 1
        assert value == n.linear_slope * l1
        assert value == pytest.approx(n.linear_slope * abs(c), rel=1e-15, abs=0.0)

    def test_failed_jensen_bound_raises(self, phi2, ctx, monkeypatch):
        # an L1 norm 10% too large puts the modular at the Jensen bound below
        # one; the L1 integral is the first a solve takes
        adaptive, calls = norms._adaptive, []

        def l1_high(*args):
            calls.append(args)
            value, *rest = adaptive(*args)
            return (value + math.log(1.1) if len(calls) == 1 else value), *rest

        # the node store takes the L1 integral, norms the modulars
        for module in (quadrature, norms):
            monkeypatch.setattr(module, "_adaptive", l1_high)
        with pytest.raises(ConvergenceFailureError, match="at the Jensen bound") as info:
            luxemburg_norm(PolynomialRep([0.3, 1.0, -0.7]), ctx.orlicz(phi2))
        assert info.value.error_bound >= 1e-8

    def test_residual_above_budget_raises(self, phi2, ctx, monkeypatch):
        # an exact modular that jumps by 0.01 in log where it crosses one:
        # the bracket collapses onto the jump, and no root meets the 1e-8
        # budget; the first integral, the L1 one, is left as it is
        adaptive, calls = norms._adaptive, []

        def jumping(*args):
            calls.append(args)
            value, *rest = adaptive(*args)
            if len(calls) > 1:
                value += 0.01 if value > math.log(INTERVAL.length) else -0.01
            return value, *rest

        # the node store takes the L1 integral, norms the modulars
        for module in (quadrature, norms):
            monkeypatch.setattr(module, "_adaptive", jumping)
        with pytest.raises(ConvergenceFailureError, match="leaves the log modular") as info:
            luxemburg_norm(PolynomialRep([0.3, 1.0, -0.7]), ctx.orlicz(phi2))
        assert info.value.error_bound == pytest.approx(0.01, rel=1e-6)

    @pytest.mark.parametrize("offset", [0.5, -0.5, 1e-6, -1e-6])
    @pytest.mark.parametrize("coeffs", [[0.3, 1.0, -0.7], [0.0, 0.0, 3.0], [1.0, 2.0]])
    def test_model_off_reaches_the_exact_solve(self, offset, coeffs, phi2, ctx, monkeypatch):
        # a cached-node model off by a constant stops agreeing with the exact
        # signs; the exact solve on the narrowed bracket finishes the root
        f, n = PolynomialRep(coeffs), ctx.orlicz(phi2)
        expected = luxemburg_norm(f, n)
        log_mean, root, model_evals, exact_solves = quadrature._NodeRule.log_mean, norms._root, [], []

        def model_off(self, log_integrand):
            model_evals.append(1)
            return log_mean(self, log_integrand) + offset

        def solve(fn, *args):
            # a solve that never evaluates the model is the exact one
            before = len(model_evals)
            out = root(fn, *args)
            if len(model_evals) == before:
                exact_solves.append(args)
            return out

        monkeypatch.setattr(quadrature._NodeRule, "log_mean", model_off)
        monkeypatch.setattr(norms, "_root", solve)
        value = luxemburg_norm(f, n)
        assert len(exact_solves) == 1
        assert value == pytest.approx(expected, rel=1e-12, abs=0.0)

    def test_resolved_keeps_its_root_without_a_bracket(self, phi2, ctx, monkeypatch):
        # from the rule's second join on, which joins the crossings at the
        # model's first root, the model is raised by 1 + |log I|: it is
        # positive at all four ends of resolved's two brackets, neither
        # changes sign, and resolved returns that root; the exact solve then
        # finishes the norm of a copy of f with a store of its own
        n = ctx.orlicz(phi2)
        expected = luxemburg_norm(PolynomialRep([0.3, -1.2, 0.5]), n)
        join, log_mean, joins, raised = quadrature._NodeRule.join, quadrature._NodeRule.log_mean, [], []

        def counted(self, *ends):
            joins.append(len(ends))
            join(self, *ends)

        def model_raised(self, log_integrand):
            m = log_mean(self, log_integrand)
            if len(joins) < 2:
                return m
            raised.append(m + 1.0 + np.abs(m))
            return raised[-1]

        monkeypatch.setattr(quadrature._NodeRule, "join", counted)
        monkeypatch.setattr(quadrature._NodeRule, "log_mean", model_raised)
        value = luxemburg_norm(PolynomialRep([0.3, -1.2, 0.5]), n)
        # resolved's queries: the model at its root, then at the four ends
        assert joins[1] == 1 and [m.size for m in raised[:2]] == [1, 4]
        assert (raised[1] > 0.0).all()
        assert value == pytest.approx(expected, rel=1e-12, abs=0.0)

    @staticmethod
    def _patched_solve(monkeypatch, offset, shift=0.0, scale=1.0):
        """Patch the model of log I up by ``offset`` and every exact log I to
        scale * log I + shift; returns the list that collects the t of each
        exact integral, up to a constant: minus the integrand's log at a node
        value of -1000, on the linear branch of N, is t + 1000 - log slope."""
        log_mean, adaptive, ts = quadrature._NodeRule.log_mean, norms._adaptive, []
        log_density = math.log(INTERVAL.density)

        def model_off(self, log_integrand):
            return log_mean(self, log_integrand) + offset

        def exact(nodes, transform, *args):
            ts.append(-float(transform(np.array([-1000.0]))[0]))
            value, *rest = adaptive(nodes, transform, *args)
            return (value + log_density) * scale + shift - log_density, *rest

        monkeypatch.setattr(quadrature._NodeRule, "log_mean", model_off)
        monkeypatch.setattr(norms, "_adaptive", exact)
        return ts

    @staticmethod
    def _near_jensen(n, k=50, excess=1e-4):
        """1 + A x^(2k), whose sup over its mean exceeds knee * slope by
        ``excess`` relative: |f| / l crosses the knee only within about
        1e-4 / k of the ends, so the root lies within 1e-13 of the Jensen
        end, and t_lo < t_k."""
        ratio = n.splice_point * n.linear_slope * (1.0 + excess)
        a = (ratio - 1.0) / (1.0 - ratio / (2 * k + 1))
        return [1.0] + [0.0] * (2 * k - 1) + [a]

    @pytest.mark.parametrize("offset", [-0.5, 0.5])
    def test_jensen_end_returns_the_bound(self, offset, phi2, ctx, monkeypatch):
        # exact log I 1e-9 low reads below zero at the Jensen end, within the
        # 1e-8 that quadrature noise is allowed: the Jensen bound is the norm.
        # A model 0.5 low puts the root at the Jensen end in the first round;
        # one 0.5 high reads above zero on the whole bracket, so no round
        # integrates, and the first step down, -v_b = t_k - t_lo, reaches it
        n = ctx.orlicz(phi2)
        coeffs = self._near_jensen(n)
        expected = luxemburg_norm(PolynomialRep(coeffs), n)
        jensen = n.linear_slope * lp_quasinorm(PolynomialRep(coeffs), 1.0)
        ts = self._patched_solve(monkeypatch, offset, shift=-1e-9)
        value = luxemburg_norm(PolynomialRep(coeffs), n)
        assert len(ts) == 1
        assert value == jensen
        assert value == pytest.approx(expected, rel=1e-12, abs=0.0)

    def test_step_down_doubles_its_step(self, phi2, ctx, monkeypatch):
        # exact log I scaled by 0.3 keeps its root but falls more slowly than
        # d log I / dt <= -1 promises: a model 0.1 high leaves every round's
        # integral above the root, and from there each step down of -v_b
        # stays above it too, so the step doubles until one crosses
        f, n = PolynomialRep([0.3, 1.0, -0.7]), ctx.orlicz(phi2)
        expected = luxemburg_norm(PolynomialRep([0.3, 1.0, -0.7]), n)
        ts = self._patched_solve(monkeypatch, 0.1, scale=0.3)
        value = luxemburg_norm(f, n)
        steps = np.diff(ts)
        assert any(second == pytest.approx(2.0 * first, rel=1e-9) and first < 0.0 for first, second in zip(steps, steps[1:]))
        assert value == pytest.approx(expected, rel=1e-12, abs=0.0)

    @pytest.mark.parametrize("degree", [120, 200])
    def test_high_degree_takes_few_exact_integrals(self, degree, phi2, ctx, monkeypatch):
        # at the Jensen end the modular of a high-degree polynomial explodes;
        # the model keeps the exact integrals near the root, where they
        # converge; the node store takes the L1 integral, norms the modulars
        adaptive, calls, failures = norms._adaptive, [], []

        def counted(*args):
            calls.append(args)
            try:
                return adaptive(*args)
            except ConvergenceFailureError as err:
                failures.append(err)
                raise

        monkeypatch.setattr(norms, "_adaptive", counted)
        for f in (jacobi22(degree), derivative(jacobi22(degree), 1)):
            calls.clear()
            assert luxemburg_norm(f, ctx.orlicz(phi2)) > 0.0
            assert len(calls) <= 4
        assert not failures

    def test_fast_orlicz_function(self, ctx):
        # phi_{4,0} makes the modular explode far from the root, where the
        # model keeps the exact integrals away
        phi4 = power_log(4.0)
        n = ctx.orlicz(phi4)
        value = luxemburg_norm(PolynomialRep([0.0, 0.0, 3.0]), n)
        assert value > 0.0


class TestNodeStoreRow:
    """Consecutive norms of one function continue its node store, matched
    by identity, and take each exact L_p integral once, with the bits of
    the same norms taken cold."""

    @pytest.mark.parametrize("phi", [power_log(2.0), log_power(1.0)], ids=lambda phi: phi.label)
    def test_row_matches_cold_norms(self, phi, ctx):
        row = {
            "B": lambda f: luxemburg_norm(f, ctx.orlicz(phi)),
            "G": lambda f: g_norm_info(f, phi, cache=ctx.conjugates(phi)).value,
            "R": lambda f: sup_ratio_from(f, phi, 4.0, cache=ctx.conjugates(phi, p_lo=4.0)),
        }
        for label, f in build_corpus(7):
            cold = {name: norm(copy.deepcopy(f)) for name, norm in row.items()}
            for order in ("BGR", "RGB"):
                g = copy.deepcopy(f)
                assert {name: row[name](g) for name in order} == cold, (label, order)

    def test_band_takes_one_l1_integral_per_member(self, phi2, ctx, monkeypatch):
        # the L1 integral is B's Jensen bound and G's floor at p = 1: the
        # node store takes it once for both
        adaptive, l1 = quadrature._adaptive, []
        probe = np.array([-2.0, 0.5])

        def counted(nodes, transform, cfg, *breaks):
            if not breaks and np.array_equal(transform(probe), probe):
                l1.append(nodes)
            return adaptive(nodes, transform, cfg, *breaks)

        for module in (quadrature, norms):
            monkeypatch.setattr(module, "_adaptive", counted)
        corpus = build_corpus(7)
        equivalence_band(corpus, phi2, ctx)
        assert len(l1) == len(corpus)

    def test_equal_functions_keep_stores_of_their_own(self):
        # == ignores cheb, which Clenshaw evaluates to other bits than Horner
        # evaluates the monomial coefficients
        with_cheb = jacobi22(10)
        plain = PolynomialRep(with_cheb.coeffs)
        assert plain == with_cheb
        assert lp_quasinorm(plain, 2.0) != lp_quasinorm(with_cheb, 2.0)
        assert quadrature._abs_nodes(plain) is not quadrature._abs_nodes(with_cheb)
        assert quadrature._abs_nodes(with_cheb) is quadrature._abs_nodes(with_cheb)
        assert lp_quasinorm(with_cheb, 2.0) == lp_quasinorm(jacobi22(10), 2.0)
        assert lp_quasinorm(plain, 2.0) == lp_quasinorm(PolynomialRep(with_cheb.coeffs), 2.0)


class TestGNorm:
    def test_constant_value(self, phi2, ctx):
        # G(1) = 1/psi(1) = C2 by the tangency identity
        got = g_norm(PolynomialRep([1.0]), phi2, cache=ctx.conjugates(phi2))
        assert got == pytest.approx(PHI2_C2, rel=1e-6)

    def test_scan_result_fields(self, phi2, ctx):
        info = g_norm_info(PolynomialRep([0.0, 1.0]), phi2, cache=ctx.conjugates(phi2))
        assert info.value > 0.0
        assert info.p_star >= 1.0

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

    @pytest.mark.parametrize("q", [1.0, 1.5, 2.0, 3.0])
    def test_v_scan_at_q_equal_r_raises(self, phi2, ctx, q):
        # at r = q, ||(1 - x)^-q||_beta = 2^-q (p q + 1)^(q + 1/p) is finite
        # for every scanned beta = p / (p q + 1) < 1/q but grows like p^q,
        # and psi of power_log(2) like p^(1/2): the supremum is infinite.
        # The growth secant reads q exactly at 1 and 2, an ulp above at 1.5
        # and 3, and the scan raises on the boundary at all four
        with pytest.raises(ScanDivergenceError, match="grows without bound as beta rises to 1/q = 1/r"):
            v_quasinorm_info(InversePowerRep(q), phi2, q, cache=ctx.conjugates(phi2, p_lo=4.0))

    @pytest.mark.parametrize("r", [1.0, 2.0])
    @pytest.mark.parametrize("s", [0.9, 0.99, 0.999, 0.9999])
    def test_v_scan_below_q_equal_r_is_certified_or_raises(self, phi2, ctx, r, s):
        # ||(1 - x)^-q||_beta = 2^-q (1 - q beta)^(-1/beta), beta = p / (p r + 1),
        # and psi(p) = (p/2)^(1/2) e^(-1/2) for power_log(2) at p >= 1; below
        # q = r the supremum over p >= 4 is finite, at a p that rises without
        # bound as q / r = s rises to 1 (near p = 1e4 at s = 0.9999, past the
        # first grid). The evaluator's rows take the singular end's rest, so
        # the scan returns the supremum to 1e-8
        q = r * s

        def log_ratio(p):
            beta = p / (p * r + 1.0)
            return -q * math.log(2.0) - math.log1p(-q * beta) / beta - 0.5 * (math.log(p / 2.0) - 1.0)

        def slope(p):
            # d log_ratio / dp, through d beta / dp = 1 / (p r + 1)^2
            beta = p / (p * r + 1.0)
            d_beta = math.log1p(-q * beta) / beta**2 + q / (beta * (1.0 - q * beta))
            return d_beta / (p * r + 1.0) ** 2 - 0.5 / p

        ps = np.geomspace(4.0, 1e9, 4001)
        k = int(np.argmax([log_ratio(p) for p in ps]))
        a, b = ps[max(k - 1, 0)], ps[k + 1]  # slope > 0 at a unless a = 4, < 0 at b
        for _ in range(200):
            mid = math.sqrt(a * b)
            a, b = (mid, b) if slope(mid) > 0.0 else (a, mid)
        want = math.exp(log_ratio(a))
        got = v_quasinorm_info(InversePowerRep(q), phi2, r, cache=ctx.conjugates(phi2, p_lo=4.0)).value
        assert abs(got / want - 1.0) <= 1e-8

    @pytest.mark.parametrize("q, m", [(3e-4, 2.0), (1e-4, 1e6)])
    def test_singular_end_past_the_grid_raises(self, q, m):
        # ||(1 - x)^-q||_p is infinite from p = 1/q on, beyond the first
        # grid's top 1024: the grid maximum below (2.3319 at q = 3e-4,
        # 1.0000455 at q = 1e-4) certified nothing
        with pytest.raises(ScanDivergenceError, match="f is unbounded"):
            g_norm_info(InversePowerRep(q), power_log(m))

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
        assert abs(info.value / value - 1) <= 1e-12
        assert abs(info.p_star / p_star - 1) <= 1e-7
        if p_star == 1:
            assert info.p_star == 1.0

    @pytest.mark.parametrize("p_peak", ["1.0001", "1.2", "3", "20"])
    def test_polish_finds_the_maximizer(self, p_peak):
        # the slope root lands within 1e-9 of the closed-form maximizer:
        # the weight's slope comes from a maximizer y* that is not biased
        # by golden section's ties
        f, phi, p_star, _value = self._edge_case(p_peak)
        assert abs(g_norm_info(f, phi).p_star / p_star - 1) <= 1e-9

    @pytest.mark.parametrize("p_peak, most, least", [("0.999", 2, 0), ("1.2", 20, 3)])
    def test_edge_winner_skips_the_polish(self, p_peak, most, least, monkeypatch):
        # the slope at the edge costs one evaluator query for the moment;
        # an interior peak pays for the derivative root, a few of them;
        # neither solves a conjugate
        f, phi, _p_star, _value = self._edge_case(p_peak)
        cache = ConjugateCache(phi)
        slopes, solves = [], []
        log_norm, solve = quadrature.PowerNormEvaluator.log_norm, conjugate.young_fenchel_lanes

        def counted_log_norm(*args, **kw):
            if kw.get("moment"):
                slopes.append(args)
            return log_norm(*args, **kw)

        def counted_solve(*args, **kw):
            solves.append(args)
            return solve(*args, **kw)

        monkeypatch.setattr(quadrature.PowerNormEvaluator, "log_norm", counted_log_norm)
        monkeypatch.setattr(conjugate, "young_fenchel_lanes", counted_solve)
        g_norm_info(f, phi, cache=cache)
        assert least <= len(slopes) <= most
        assert solves == []

    @pytest.mark.parametrize(
        "m, value, p_near, extensions",
        [
            (200.0, 0.988057896166384, 2000.4739732549451, 1),
            (1000.0, 0.9974523520414863, 11774.930833972616, 2),
        ],
    )
    def test_grid_extension(self, m, value, p_near, extensions):
        # x^30 against a steep weight peaks beyond the initial grid, so the
        # scan has to extend the grid once or twice before it stops rising;
        # log(||x^30||_p / psi(p)) = -log(30p + 1)/p - (log(p/m) - 1)/m has
        # its maximum where log(30p + 1)/p - 30/(30p + 1) = 1/m, found to 40
        # digits from p_near
        info = g_norm_info(PolynomialRep([0.0] * 30 + [1.0]), power_log(m))
        assert info.extensions == extensions
        assert info.value == pytest.approx(value, rel=1e-12)
        with mp.workdps(40):
            p_star = mp.findroot(lambda p: mp.log(30 * p + 1) / p - 30 / (30 * p + 1) - 1 / mp.mpf(m), p_near)
        assert abs(info.p_star / p_star - 1) <= 1e-8

    def test_third_extension_finds_the_peak(self):
        # log(||x||_p / psi(p)) = -log(p + 1)/p - (log(p/m) - 1)/m peaks where
        # log(p + 1)/p - 1/(p + 1) = 1/m: at m = 1000 inside the twice
        # extended grid, whose top is 16,384; at m = 5000 near p = 48,997.86,
        # beyond it, which a third extension reaches before sup|x| = 1 caps
        # the scan
        for m, p_near, extensions in ((1000.0, 8000.0, 2), (5000.0, 48997.86, 3)):
            info = g_norm_info(PolynomialRep([0.0, 1.0]), power_log(m))
            assert info.extensions == extensions
            with mp.workdps(40):
                mm = mp.mpf(m)
                p_star = mp.findroot(lambda p: mp.log(p + 1) / p - 1 / (p + 1) - 1 / mm, p_near)
                value = mp.exp(-mp.log(p_star + 1) / p_star - (mp.log(p_star / mm) - 1) / mm)
            assert abs(info.p_star / p_star - 1) <= 1e-8
            assert abs(info.value / value - 1) <= 1e-12

    @pytest.mark.parametrize("m", [200.0, 1000.0, 5000.0, 2e4, 1e5])
    @pytest.mark.parametrize("n", [1, 8, 30])
    def test_cap_ends_a_rising_scan(self, n, m):
        # log(||x^n||_p / psi(p)) = -log(np + 1)/p - (log(p/m) - 1)/m peaks
        # where log(np + 1)/p - n/(np + 1) = 1/m, up to p = 1.7e6 here: the
        # grid extends until sup|x^n| = 1 caps it, however far that takes it
        info = g_norm_info(PolynomialRep([0.0] * n + [1.0]), power_log(m))
        with mp.workdps(40):
            mm = mp.mpf(m)
            p_star = mp.findroot(lambda p: mp.log(n * p + 1) / p - n / (n * p + 1) - 1 / mm, info.p_star)
            value = mp.exp(-mp.log(n * p_star + 1) / p_star - (mp.log(p_star / mm) - 1) / mm)
        assert abs(info.p_star / p_star - 1) <= 1e-8
        assert abs(info.value / value - 1) <= 1e-12
        assert info.p_cap is None or info.p_star <= info.p_cap

    def test_uncapped_rise_raises(self):
        # ||(1 - x)^(-1/1200)||_p is infinite from p = 1200 on: the growth
        # check raises before any row, as the stated power q = 1/1200 is
        # above r = 0
        with pytest.raises(ScanDivergenceError, match="f is unbounded"):
            g_norm_info(InversePowerRep(1.0 / 1200.0), power_log(1e6))
        # psi of power_log(1e9) is too flat for sup|x| = 1 to cap the scan
        # before the grid's top reaches the ceiling: a budget runs out, as
        # the supremum is at most sup|x| / psi(1), finite
        with pytest.raises(ConvergenceFailureError, match="top of its last grid extension"):
            g_norm_info(PolynomialRep([0.0, 1.0]), power_log(1e9))

    def test_ceiling_reports_the_best_grid_ratio(self):
        with pytest.raises(ConvergenceFailureError, match="top of its last grid extension") as info:
            g_norm_info(PolynomialRep([0.0, 1.0]), power_log(1e9))
        assert type(info.value.best_estimate) is float
        assert math.isfinite(info.value.best_estimate) and info.value.best_estimate > 0.0
        assert info.value.error_bound is None

    def test_failed_evaluator_reports_its_worst_lane(self, phi2):
        # the evaluator integrates its three yardsticks as lanes of one
        # integral; only the top one fails to settle beside the pole, and
        # the error reports that lane's floats
        f = RationalRep(PolynomialRep([1.0]), PolynomialRep([-1.000000001, 1.0]))
        with pytest.raises(ConvergenceFailureError, match="quadrature did not converge") as info:
            g_norm_info(f, phi2)
        assert type(info.value.best_estimate) is float and type(info.value.error_bound) is float
        assert info.value.error_bound == pytest.approx(0.99996, abs=1e-5)

    def test_quadrature_budget_is_not_divergence(self, phi2):
        # 1 / (x - 1 - 1e-9) is bounded by 1e9 on [-1, 1], so every L_p norm
        # is finite; the adaptive integrator runs out of depth near the pole,
        # and the scan raises that failure, not a divergence
        f = RationalRep(PolynomialRep([1.0]), PolynomialRep([-(1.0 + 1e-9), 1.0]))
        with pytest.raises(ConvergenceFailureError, match="quadrature did not converge") as info:
            g_norm_info(f, phi2)
        assert not isinstance(info.value, ScanDivergenceError)

    def test_uncertified_scan_raises(self, phi2, ctx, monkeypatch):
        # cached-node log norms and their moments 1e-3 high move neither the
        # grid winner nor the polish, whose slope is their difference: the
        # scan lands on the same p, and its exact ratio there, unchanged,
        # misses the cached-node one by 1 - e^-0.001 relative
        f, cache = PolynomialRep([0.3, -1.2, 0.5]), ctx.conjugates(phi2)
        want = g_norm_info(f, phi2, cache=cache).value
        log_norm = quadrature.PowerNormEvaluator.log_norm

        def high(self, e, moment=False):
            out = log_norm(self, e, moment)
            return tuple(v + 1e-3 for v in out) if moment else out + 1e-3

        monkeypatch.setattr(quadrature.PowerNormEvaluator, "log_norm", high)
        with pytest.raises(ConvergenceFailureError, match="is not certified") as info:
            g_norm_info(f, phi2, cache=cache)
        assert info.value.best_estimate == want
        assert info.value.error_bound == pytest.approx(-math.expm1(-1e-3), abs=1e-6)

    @pytest.mark.parametrize(
        "zs, phis", [([0.5, 1.0, 2.0, 4.0, 8.0], [0.05, 0.2, 0.9, 4.0, 20.0]), ([1.0, 2.0, 4.0, 8.0], [1.0, 3.0, 9.0, 27.0])]
    )
    def test_table_peaks_at_a_chord_slope(self, zs, phis):
        # h* of a table is linear between its kinks, the chord slopes s_i:
        # h*(p)/p is affine in 1/p there and log||f||_p convex, so an
        # interior maximum of the ratio sits on a kink; x^30 peaks on the
        # last, beyond which h* diverges
        phi = tabulated_phi(zs, phis)
        chords = np.diff(phis) / np.diff(np.log(zs))
        corpus = dict(build_corpus(7))
        interior = 0
        monomials = [PolynomialRep([0.0] * d + [1.0]) for d in (1, 8, 30)]
        for f in monomials + [corpus["poly-02"], corpus["poly-04"]]:
            info = g_norm_info(f, phi)
            if info.p_star != 1.0:
                interior += 1
                assert np.min(np.abs(chords - info.p_star)) <= 4 * np.spacing(info.p_star)
        assert interior >= 3

    def test_extension_leaves_the_shared_cache_as_built(self):
        # x^30 extends the grid for its own scan only: a member scanned after
        # it reads the context's cache as built, as on a fresh context
        phi = power_log(200.0)
        spec, local = gnorm_spec(phi), NormContext()
        assert evaluate_norm_info(PolynomialRep([0.0] * 30 + [1.0]), spec, ctx=local).extensions == 1
        assert local.conjugates(phi).p_hi == 1024.0
        f = dict(build_corpus(7))["rational-02"]
        assert evaluate_norm_info(f, spec, ctx=local) == evaluate_norm_info(f, spec, ctx=NormContext())


# every norm entry point, called on f with the other arguments valid
NATURAL_DOMAIN_ENTRIES = {
    "luxemburg_norm": lambda f: luxemburg_norm(f, construct_N(power_log(2.0))),
    "g_norm": lambda f: g_norm(f, power_log(2.0)),
    "g_norm_info": lambda f: g_norm_info(f, power_log(2.0)),
    "sup_ratio_from": lambda f: sup_ratio_from(f, power_log(2.0), 4.0),
    "v_quasinorm": lambda f: v_quasinorm(f, power_log(2.0), 1.0),
    "v_quasinorm_info": lambda f: v_quasinorm_info(f, power_log(2.0), 1.0),
    "lorentz_norm": lambda f: lorentz_norm(f, 2.0, 3.0),
    "weighted_lorentz_g": lambda f: weighted_lorentz_g(f, power_log(2.0), 2.0),
    "evaluate_norm": lambda f: evaluate_norm(f, lp_spec(2.0)),
    "evaluate_norm_info": lambda f: evaluate_norm_info(f, gnorm_spec(power_log(2.0))),
    "markov_ratio": lambda f: markov_ratio(f, orlicz_spec(power_log(2.0))),
}


@pytest.mark.parametrize("entry", sorted(NATURAL_DOMAIN_ENTRIES))
def test_plain_callable_rejected(entry):
    # every norm is taken on the function's natural domain; a plain
    # callable has none
    with pytest.raises(RejectedInputError, match="natural domain"):
        NATURAL_DOMAIN_ENTRIES[entry](lambda x: x**2 + 1.0)


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

    @pytest.mark.parametrize(
        "p_lo, cached", [(0.0, False), (-1.0, False), (math.inf, False), (math.nan, False), (math.inf, True), (math.nan, True)]
    )
    def test_bad_p_lo_rejected(self, p_lo, cached, phi2, ctx):
        cache = ctx.conjugates(phi2) if cached else None
        with pytest.raises(ValueError, match="p_lo"):
            sup_ratio_from(PolynomialRep([0.5, 0.0, 1.0]), phi2, p_lo, cache=cache)


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

    @pytest.mark.parametrize("scan", [v_quasinorm, v_quasinorm_info])
    def test_infinite_order_rejected(self, scan, phi2, ctx):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="derivative order r"):
                scan(PolynomialRep([0.0, 1.0]), phi2, math.inf, cache=ctx.conjugates(phi2, p_lo=4.0))

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

    @pytest.mark.parametrize("b", [2.0, math.inf])
    def test_infinite_first_index_rejected(self, b):
        with pytest.raises(ValueError, match="first index"):
            lorentz_norm(PolynomialRep([0.3, 1.0, -0.7]), math.inf, b)

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


@pytest.mark.parametrize("p", [1.0, 2.0, 3.0, 7.5])
def test_weak_sine_matches_mpmath(p):
    # |sin x| on the circle: T(w) = (2/pi) arccos(w), and the maximum of
    # w T(w)^(1/p) solves p arccos(w) sqrt(1 - w^2) = w, here to 50 digits
    with mp.workdps(50):
        w = mp.findroot(lambda w: p * mp.acos(w) * mp.sqrt(1 - w * w) - w, mp.mpf("0.7"))
        expect = float(w * (2 / mp.pi * mp.acos(w)) ** (1 / mp.mpf(p)))
    got = lorentz_norm(TrigPolynomialRep([0.0, 0.0], [1.0]), p, math.inf)
    assert got == pytest.approx(expect, rel=1e-12, abs=0.0)


def test_weak_maximum_between_two_probes():
    # f' nearly vanishes on this polynomial's rising piece, so T bends
    # sharply inside the critical interval below 1.87: d log h / ds changes
    # sign twice between two probes, around a maximum 4% above the best probe
    f = random_family("polynomial", 30, 3)
    sampler = quadrature.LevelSampler(f)
    ws = np.linspace(0.0, sampler.sup_estimate, 4001)[1:-1]
    k = int(np.argmax(ws * sampler.measure_above_batch(ws)))
    _w, expect = golden_max(lambda w: w * sampler.measure_above_batch(np.array([w]))[0], ws[k - 1], ws[k + 1], tol=1e-14)
    assert lorentz_norm(f, 1.0, math.inf) == pytest.approx(expect, rel=1e-12, abs=0.0)


def _mp_gap_derivative_weak(gap, p, w_lo, w_hi):
    """max of w T(w)^(1/p) over [w_lo, w_hi] for f = Q' of the GapRep gap,
    by golden section at 30 digits: T sums the parts of the monotone pieces
    of f above w, each crossing refined by mpmath from the pieces' ends."""
    with mp.workdps(30):

        def df(x):
            # Q' by the product rule over the factors ((x - a)^2 + b^2)^(r/2)
            u = [((x - a) ** 2 + b * b) ** (mp.mpf(r) / 2) for a, b, r in gap.factors]
            du = [r * (x - a) * ((x - a) ** 2 + b * b) ** (mp.mpf(r) / 2 - 1) for a, b, r in gap.factors]
            return mp.fsum(du[j] * mp.fprod(u[:j] + u[j + 1 :]) for j in range(len(u)))

        xs = [mp.mpf(float(x)) for x in GapDerivative(gap).break_points()]
        inner = [mp.findroot(lambda x: mp.diff(df, x), x) if abs(df(x)) > 1e-6 else mp.findroot(df, x) for x in xs[1:-1]]
        xs = [xs[0]] + inner + [xs[-1]]

        def t(w):
            total = mp.mpf(0)
            for x0, x1 in zip(xs[:-1], xs[1:]):
                v0, v1 = abs(df(x0)), abs(df(x1))
                if w < min(v0, v1):
                    total += x1 - x0
                elif w < max(v0, v1):
                    root = mp.findroot(lambda x: abs(df(x)) - w, (x0, x1), solver="anderson")
                    total += abs((x1 if v1 > v0 else x0) - root)
            return total / 2

        def h(w):
            return w * t(w) ** (1 / mp.mpf(p))

        a, b = mp.mpf(w_lo), mp.mpf(w_hi)
        ratio = (mp.sqrt(5) - 1) / 2
        c, d = b - ratio * (b - a), a + ratio * (b - a)
        hc, hd = h(c), h(d)
        while b - a > mp.mpf("1e-22"):
            if hc > hd:
                b, d, hd = d, c, hc
                c = b - ratio * (b - a)
                hc = h(c)
            else:
                a, c, hc = c, d, hd
                d = a + ratio * (b - a)
                hd = h(d)
        return float(max(hc, hd))


def test_weak_gap_derivative_matches_mpmath():
    # the derivative of a gap product with a real node: the weak form needs
    # f'' = Q'', which GapDerivative reports
    gap = GapRep([(0.1, 0.0, 2.0), (-0.5, 0.4, 1.5)])
    f = derivative(gap, 1)
    p = 2.0
    ws = np.linspace(0.0, sup_norm(f), 401)[1:-1]
    sampler = quadrature.LevelSampler(f)
    k = int(np.argmax(ws * sampler.measure_above_batch(ws) ** (1.0 / p)))
    expect = _mp_gap_derivative_weak(gap, p, ws[k - 1], ws[k + 1])
    assert lorentz_norm(f, p, math.inf) == pytest.approx(expect, rel=1e-12, abs=0.0)


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
        trig_ref = mp.quad(lambda x: abs(trig_mp(x)), [float(x) for x in trig.break_points()])
    assert lorentz_norm(gap, 1.0, 1.0) == pytest.approx(float(gap_ref / 2), rel=1e-10)
    assert lorentz_norm(trig, 1.0, 1.0) == pytest.approx(float(trig_ref / (2 * mp.pi)), rel=1e-10)


def _mp_function(f):
    """A polynomial, trig or rational member as an mpmath function of x.

    A polynomial that carries Chebyshev coefficients is summed from them by
    Clenshaw's recurrence, as the library evaluates it: from about degree 60
    its monomial coefficients cancel past 20 digits on the interval.
    """
    if f.kind == "polynomial":
        cheb = getattr(f, "_cheb", None)
        if cheb is not None:
            t = [mp.mpf(v) for v in cheb]

            def clenshaw(x):
                b1 = b2 = mp.mpf(0)
                for ck in reversed(t[1:]):
                    b1, b2 = 2 * x * b1 - b2 + ck, b1
                return x * b1 - b2 + t[0]

            return clenshaw
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
    return [mp.mpf(float(x)) for x in f.break_points()]


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
        # twice the solve's 1e-12 in log l
        assert got == pytest.approx(ref, rel=2e-12), phi.label


def _gauss_legendre_luxemburg(f, n, start):
    """The Luxemburg norm of f with no adaptive quadrature: the modular by a
    fixed 64-point Gauss-Legendre rule on every piece between the break
    points of f (the zeros of f and f') and the points where |f| / l crosses
    the knee, each bisected to rounding, and its root l by mpmath."""
    dom = f.natural_domain
    cuts = f.break_points()
    vals = np.abs(f(cuts))
    nodes, weights = np.polynomial.legendre.leggauss(64)

    def modular(l):
        level = n.splice_point * l
        # |f| is monotone on each piece: at most one crossing of the level
        across = (vals[:-1] - level) * (vals[1:] - level) < 0.0
        a, b = cuts[:-1][across], cuts[1:][across]
        a_above = vals[:-1][across] > level
        for _ in range(80):
            mid = 0.5 * (a + b)
            left = (np.abs(f(mid)) > level) == a_above
            a, b = np.where(left, mid, a), np.where(left, b, mid)
        edges = np.sort(np.concatenate([cuts, 0.5 * (a + b)]))
        half = 0.5 * np.diff(edges)
        xs = 0.5 * (edges[1:] + edges[:-1])[:, None] + half[:, None] * nodes[None, :]
        u = np.abs(f(xs)) / l
        with np.errstate(over="ignore"):
            big_n = np.where(u <= n.splice_point, n.linear_slope * u, np.exp(n.phi.h(np.log(u))))
        return float(np.sum(big_n * weights[None, :] * half[:, None])) / dom.length

    return float(mp.findroot(lambda l: modular(float(l)) - 1.0, (mp.mpf(start), mp.mpf(start) * (1 + mp.mpf(1e-6))), solver="secant"))


def test_luxemburg_at_high_degree_matches_gauss_legendre(phi2, ctx):
    # jacobi22(120) and its derivative: 240 monotone pieces, where the
    # modular at the Jensen bound explodes
    n = ctx.orlicz(phi2)
    for f in (jacobi22(120), derivative(jacobi22(120), 1)):
        got = luxemburg_norm(f, n)
        assert got == pytest.approx(_gauss_legendre_luxemburg(f, n, got), rel=2e-12)


@pytest.mark.parametrize("m", [1e3, 1e4])
@pytest.mark.parametrize("degree", [1, 8])
def test_luxemburg_under_steep_phi_matches_mpmath(degree, m):
    # for x^n on [-1, 1], with u = x^n / l and t = u^m above the knee
    # m^(-1/m), the modular is l^(1/n) / n times
    #   slope knee^(1 + 1/n) / (1 + 1/n) + (1/m) int_{1/m}^{l^-m} e^t t^(1/(n m) - 1) dt,
    # slope = e^(1/m) / knee. log N overflows to +inf at the top of the
    # model's first bracket, and tier-1's warning filter fails any overflow
    # warning that row's terms raise
    got = luxemburg_norm(PolynomialRep([0.0] * degree + [1.0]), construct_N(power_log(m)))
    with mp.workdps(30):
        n, mm = mp.mpf(degree), mp.mpf(m)
        knee = mm ** (-1 / mm)
        linear = mp.e ** (1 / mm) / knee * knee ** (1 + 1 / n) / (1 + 1 / n)

        def modular(l):
            tail = mp.quad(lambda t: mp.e**t * t ** (1 / (n * mm) - 1), [1 / mm, 1, l**-mm]) / mm
            return l ** (1 / n) / n * (linear + tail)

        start = (mp.mpf(got), mp.mpf(got) * (1 + mp.mpf(1e-9)))
        ref = float(mp.findroot(lambda l: modular(l) - 1, start, solver="secant"))
    assert got == pytest.approx(ref, rel=2e-12)


# the model settles every seed-7 solve under these phi
MODEL_PHIS = [power_log(1.0), power_log(2.0), log_power(1.0)]
# and leaves three to the exact fallback under each of these, two of which
# (gap-10 and poly-14 under power_log(3, 1)) step down to find log I > 0
LUXEMBURG_PHIS = MODEL_PHIS + [power_log(3.0, 1.0), power_log(20.0)]


@pytest.mark.parametrize("phi", LUXEMBURG_PHIS, ids=lambda phi: phi.label)
def test_luxemburg_corpus_matches_gauss_legendre(phi, ctx):
    # every member of the corpus, to twice the solve's 1e-12 in log l: the
    # exact modulars start from the splice crossings, so no accepted panel
    # straddles the kink of N there
    n = ctx.orlicz(phi)
    for label, f in build_corpus(7):
        got = luxemburg_norm(f, n)
        assert got == pytest.approx(_gauss_legendre_luxemburg(f, n, got), rel=2e-12), label


def test_modular_integrals_take_two_waves(ctx, monkeypatch):
    # an exact modular that starts from the splice crossings settles on its
    # first bisection: two waves, the initial panels and their halves; with
    # the crossings at the model's first root joined to the model, one
    # integral usually settles the solve (starting from the break points
    # alone took 267 integrals of up to nine waves)
    adaptive, waves = norms._adaptive, []

    def counted(nodes, transform, cfg, *breaks):
        waves.append(0)

        def wave(*rows):
            waves[-1] += 1
            return transform(*rows)

        return adaptive(nodes, wave, cfg, *breaks)

    monkeypatch.setattr(norms, "_adaptive", counted)
    modular = []
    for phi in MODEL_PHIS:
        n = ctx.orlicz(phi)
        for _label, f in build_corpus(7):
            waves.clear()
            luxemburg_norm(f, n)
            # the node store takes the L1 integral, norms the modulars
            modular += waves
    assert max(modular) <= 2
    assert len(modular) <= 169


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


@pytest.mark.parametrize("kind", ["gnorm", "vnorm", "weighted-2", "weighted-inf"])
def test_scans_solve_no_conjugate(kind, monkeypatch):
    # a scan reads h* and y* from its cache and parametrizes p by y between
    # grid points; only the cache build solves
    phi = power_log(2.0)
    cache = ConjugateCache(phi, p_lo=4.0 if kind == "vnorm" else 1.0)
    solves = []
    solve = conjugate.young_fenchel_lanes

    def counted(*args, **kw):
        solves.append(args)
        return solve(*args, **kw)

    monkeypatch.setattr(conjugate, "young_fenchel_lanes", counted)
    f = dict(build_corpus(7))["poly-03"]
    scan = {
        "gnorm": lambda: g_norm(f, phi, cache=cache),
        "vnorm": lambda: v_quasinorm(derivative(f, 1), phi, 1.0, cache=cache),
        "weighted-2": lambda: weighted_lorentz_g(f, phi, 2.0, cache=cache),
        "weighted-inf": lambda: weighted_lorentz_g(f, phi, math.inf, cache=cache),
    }[kind]
    assert math.isfinite(scan())
    assert solves == []
    ConjugateCache(phi)
    assert len(solves) == 1


# the corpus members on which the finite-b weighted norm is checked against
# the ratios at several p
_PREMISE_LABELS = ("poly-01", "poly-19", "poly-30", "gap-04", "rational-02", "trig-03")


@functools.cache
def _lorentz_of(label, p, b):
    """lorentz_norm of a corpus member, once for every phi."""
    return lorentz_norm(dict(build_corpus(7))[label], p, b)


class TestWeightedLorentzG:
    def test_constant(self, phi2, ctx):
        got = weighted_lorentz_g(PolynomialRep([1.0]), phi2, 1.0, cache=ctx.conjugates(phi2))
        assert got == pytest.approx(PHI2_C2, rel=1e-4)

    def test_zero(self, phi2, ctx):
        assert weighted_lorentz_g(PolynomialRep([0.0]), phi2, 2.0, cache=ctx.conjugates(phi2)) == 0.0

    @pytest.mark.parametrize("b", [0.0, -1.0, math.nan])
    def test_bad_second_index_rejected(self, b, phi2):
        with pytest.raises(ValueError, match="second index"):
            weighted_lorentz_g(PolynomialRep([0.5, -1.0, 2.0]), phi2, b)

    def test_positive_on_generic_member(self, phi2, ctx):
        got = weighted_lorentz_g(
            PolynomialRep([0.5, -1.0, 2.0]), phi2, 2.0, cache=ctx.conjugates(phi2)
        )
        assert math.isfinite(got) and got > 0.0

    @pytest.mark.parametrize("c", [1e160, 1e-160])
    def test_homogeneous_at_extreme_scales(self, phi2, ctx, c):
        coeffs = [0.0, 1.0, -0.4]
        for b in (2.0, math.inf):
            base = weighted_lorentz_g(PolynomialRep(coeffs), phi2, b, cache=ctx.conjugates(phi2))
            got = weighted_lorentz_g(PolynomialRep([c * v for v in coeffs]), phi2, b, cache=ctx.conjugates(phi2))
            assert got == pytest.approx(c * base, rel=1e-12, abs=0.0), b

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

    @pytest.mark.parametrize("n", [8, 16, 24, 30, 40])
    def test_high_order_zero_closed_form(self, n, ctx):
        # ||x^n||_(p,2)^2 = 2n B(2n, p/2 + 1) and log psi(p) = (log(p/2) - 1)/2
        # under power_log(2); the sup over p >= 1 of their ratio, with
        # mpmath, is at p = 1 unless the log ratio rises there.  The scan's
        # evaluator stops at the cap, where T^(p/2) = (1 - w^(1/n))^(p/2)
        # still settles at w = 0 (a top yardstick at p = 1024 did not, for
        # n >= 24)
        phi = power_log(2.0)
        got = weighted_lorentz_g(PolynomialRep([0.0] * n + [1.0]), phi, 2.0, cache=ctx.conjugates(phi))
        with mp.workdps(40):

            def log_ratio(p):
                return 0.5 * mp.log(2 * n * mp.beta(2 * n, p / 2 + 1)) - (mp.log(p / 2) - 1) / 2

            def slope(p):
                return (mp.digamma(p / 2 + 1) - mp.digamma(2 * n + p / 2 + 1)) / 4 - 1 / (2 * p)

            p_star = mp.mpf(1) if slope(mp.mpf(1)) <= 0 else mp.findroot(slope, (mp.mpf(1), mp.mpf(1e4)), solver="bisect")
            expect = mp.exp(log_ratio(p_star))
        assert abs(got / expect - 1) <= 1e-12

    @pytest.mark.parametrize("m", [2.0, 8.0, 50.0])
    def test_weak_eighth_power_closed_form(self, m, ctx):
        # ||x^8||_(p,inf) = sup_t t^8 (1 - t)^(1/p) = (8p/(8p+1))^8 (8p+1)^(-1/p),
        # and log psi(p) = (log(p/m) - 1)/m, so the log ratio has its one
        # maximum where m log(8p + 1) = p
        phi = power_log(m)
        got = weighted_lorentz_g(PolynomialRep([0.0] * 8 + [1.0]), phi, math.inf, cache=ctx.conjugates(phi))
        with mp.workdps(40):
            mm = mp.mpf(m)
            p = mp.findroot(lambda p: mm * mp.log(8 * p + 1) - p, 6 * mm)
            expect = (8 * p / (8 * p + 1)) ** 8 * (8 * p + 1) ** (-1 / p) * mp.exp(-(mp.log(p / mm) - 1) / mm)
        assert abs(got / expect - 1) <= 1e-12

    @pytest.mark.parametrize("b", [2.0, math.inf])
    def test_weak_cache_must_start_at_one(self, b, phi2, ctx):
        # finite b reads psi(1), b = inf y*(1) and h*(1), from the cache's
        # first grid point
        with pytest.raises(ValueError, match="not at p = 1"):
            weighted_lorentz_g(PolynomialRep([0.5, -1.0, 2.0]), phi2, b, cache=ctx.conjugates(phi2, p_lo=4.0))

    def test_inadmissible_phi_rejected(self):
        # h(y*(1)) = -1/2 for z^2 - 1: psi may fall off p = 1, so neither
        # branch holds; both raise before any computation warns
        phi = custom_phi(lambda z: np.asarray(z) ** 2 - 1.0)
        f = dict(build_corpus(7))["poly-03"]
        for b in (2.0, math.inf):
            with warnings.catch_warnings():
                warnings.simplefilter("error", RuntimeWarning)
                with pytest.raises(RejectedInputError, match="admissible class"):
                    weighted_lorentz_g(f, phi, b)

    @pytest.mark.parametrize("phi", EXCHANGE_PHIS, ids=lambda phi: phi.label)
    def test_finite_b_is_the_ratio_at_one(self, phi, ctx):
        # ||f||_(p,b) does not rise with p and psi(p) does not fall, so the
        # supremum is the exact ratio at p = 1 and bounds the ratio at every
        # other p, each from lorentz_norm and a conjugate solved at p
        cache = ctx.conjugates(phi)
        for label in _PREMISE_LABELS:
            f = dict(build_corpus(7))[label]
            for b in (1.0, 2.0, 4.0):
                got = weighted_lorentz_g(f, phi, b, cache=cache)
                ratios = [_lorentz_of(label, p, b) * math.exp(-psi_log(phi, p)) for p in (1.0, 1.3, 4.0, 32.0, 200.0)]
                assert got == pytest.approx(ratios[0], rel=1e-15, abs=0.0), (label, b)
                assert all(got >= r * (1.0 - 1e-12) for r in ratios[1:]), (label, b)

    def test_finite_b_scans_nothing(self, phi2, ctx, monkeypatch):
        # one exact layer cake: no p scan and no cached-node evaluator
        calls = []
        scan, build = norms._g_scan, quadrature.PowerNormEvaluator.__init__

        def counted_scan(*args, **kw):
            calls.append("scan")
            return scan(*args, **kw)

        def counted_build(*args, **kw):
            calls.append("evaluator")
            return build(*args, **kw)

        monkeypatch.setattr(norms, "_g_scan", counted_scan)
        monkeypatch.setattr(quadrature.PowerNormEvaluator, "__init__", counted_build)
        for b in (1.0, 2.0, 4.0):
            assert weighted_lorentz_g(dict(build_corpus(7))["poly-03"], phi2, b, cache=ctx.conjugates(phi2)) > 0.0
        assert calls == []

    @pytest.mark.parametrize("phi", EXCHANGE_PHIS, ids=lambda phi: phi.label)
    def test_weak_exchange_matches_double_sup(self, phi, ctx):
        # sup_p sup_w w T(w)^(1/p) / psi(p), searched on grids of p and w,
        # against the library's sup_w w e^(-Y(log 1/T(w))): the grid search
        # is a lower bound, tight to its resolution
        corpus = dict(build_corpus(7))
        for label in ("poly-19", "rational-02", "trig-03"):
            f = corpus[label]
            got = weighted_lorentz_g(f, phi, math.inf, cache=ctx.conjugates(phi))
            grid = _double_sup(f, phi)
            assert grid * (1.0 - 1e-14) <= got <= grid * (1.0 + 1e-9), label


def _double_sup(f, phi, zooms=6, starts=3):
    """sup over p >= 1 and w of w T(w)^(1/p) / psi(p) by exhaustive search:
    log p on [0, log 1e4] against s on the sampler's level map (256 points a
    critical interval), then, from the best point of each of the ``starts``
    best intervals, ``zooms`` rounds of a 201 x 201 grid on the cells around
    the best point of the round before."""
    k, at = norms._level_map(quadrature.LevelSampler(f))

    def log_ratio(log_p, s):
        w, _dw, log_t = at(s)
        p = np.exp(log_p)
        hstar = conjugate.young_fenchel_lanes(phi, p)[0]
        with np.errstate(divide="ignore"):
            return np.log(w)[None, :] + (log_t[None, :] - hstar[:, None]) / p[:, None]

    log_p, s = np.linspace(0.0, math.log(1e4), 1001), np.linspace(0.0, k, 256 * k + 1)
    vals = log_ratio(log_p, s)
    assert np.argmax(np.max(vals, axis=1)) < log_p.size - 1
    by_interval = np.max(vals, axis=0)[:-1].reshape(k, 256)
    best = -math.inf
    for row in np.argsort(np.max(by_interval, axis=1))[::-1][:starts]:
        j = 256 * row + int(np.argmax(by_interval[row]))
        i, lp, ss = int(np.argmax(vals[:, j])), log_p, s
        for _ in range(zooms):
            lp = np.linspace(lp[max(i - 1, 0)], lp[min(i + 1, lp.size - 1)], 201)
            ss = np.linspace(ss[max(j - 1, 0)], ss[min(j + 1, ss.size - 1)], 201)
            zoomed = log_ratio(lp, ss)
            i, j = np.unravel_index(np.argmax(zoomed), zoomed.shape)
        best = max(best, float(zoomed[i, j]))
    return math.exp(best)


@pytest.mark.parametrize("m", [0.5, 1.0, 2.0, 8.0, 50.0])
def test_dual_weight_closed_form(m):
    # the weighted weak norm's exponent is -Y(x) at x = -log T, with slope
    # Y'(x) d log T / dw; for z^m, y*(1) = -log(m)/m and h(y*(1)) = 1/m, so
    # Y(x) = inf over p >= 1 of (x + h*(p))/p is log(x)/m from x = 1/m on,
    # x + h*(1) below it with h*(1) = -(log(m) + 1)/m, and Y' is 1/(m x), 1
    phi = power_log(m)
    cache = ConjugateCache(phi)
    exponent = norms._dual_weight(phi, cache)
    x = np.concatenate([np.geomspace(1e-6, 1.0 / m, 40), np.geomspace(1.0 / m, 745.0, 400)])
    neg_y, dy = exponent(-x, 1.0)
    y = -neg_y
    upper = x >= 1.0 / m
    expect = np.where(upper, np.log(x) / m, x - (math.log(m) + 1.0) / m)
    assert np.all(np.abs(y - expect) <= 4.0 * np.spacing(np.maximum(1.0, np.abs(expect))))
    assert dy == pytest.approx(np.where(upper, 1.0 / (m * x), 1.0), rel=1e-14, abs=0.0)
    # the two branches meet at x = h(y*(1)), where both are y*(1)
    y1 = float(cache.ystar[0])
    h1 = float(phi.h(y1))
    meet, _dy = exponent(-np.array([np.nextafter(h1, 0.0), h1, np.nextafter(h1, math.inf)]), 1.0)
    assert np.all(np.abs(meet + y1) <= 4.0 * np.spacing(max(1.0, abs(y1))))


def _central_difference(log_value, ps, rel=1e-5):
    step = rel * ps
    return (log_value(ps + step) - log_value(ps - step)) / (2.0 * step)


class TestEvaluatorSlopes:
    """The cached-node evaluator's slope in p against a central difference
    of its own log value: the power mean is an exact derivative of its node
    sums."""

    PS = np.array([1.0, 2.5, 7.0, 30.0, 200.0])

    @pytest.mark.parametrize("label", ["poly-03", "poly-30", "gap-01", "rational-02", "trig-02"])
    def test_power_norm(self, label):
        f = dict(build_corpus(7))[label]
        ev = quadrature.PowerNormEvaluator(quadrature._abs_nodes(f), DEFAULT_CONFIG, yardsticks=(1.0, 32.0, 1024.0))
        log_norm, mean_log_f = ev.log_norm(self.PS, moment=True)
        # d log ||f||_p / dp = (E_pi[log|f|] - log ||f||_p) / p
        assert (mean_log_f - log_norm) / self.PS == pytest.approx(_central_difference(ev.log_norm, self.PS), rel=1e-8)

    @pytest.mark.parametrize("q, r", [(0.9, 1.0), (0.999, 1.0), (1.998, 2.0)])
    def test_singular_end(self, q, r):
        # on (1 - x)^-q the evaluator's rule ends at the singular piece's last
        # node, and each query adds the closed-form rest past it:
        # ||f||_beta = 2^-q (1 - q beta)^(-1/beta), and under the weights of
        # |f|^beta, E[log|f|] = q / (1 - q beta) - q log 2. Built as the
        # v-scan builds it to grid p = 4096, at beta = p / (p r + 1)
        nodes = quadrature._abs_nodes(InversePowerRep(q))
        lo, hi = 4.0 / (4.0 * r + 1.0), 4096.0 / (4096.0 * r + 1.0)
        ev = quadrature.PowerNormEvaluator(nodes, DEFAULT_CONFIG, yardsticks=(lo, 0.5 * (lo + hi), hi))
        ps = np.array([4.0, 100.0, 447.0, 974.0, 3000.0])
        betas = ps / (ps * r + 1.0)
        log_norm, mean_log_f = ev.log_norm(betas, moment=True)
        exact = [math.log(quadrature._power_norm(nodes, b, b, DEFAULT_CONFIG)) for b in betas]
        assert log_norm == pytest.approx(exact, rel=0.0, abs=1e-12)
        assert log_norm == pytest.approx(-q * math.log(2.0) - np.log1p(-q * betas) / betas, rel=0.0, abs=1e-11)
        assert mean_log_f == pytest.approx(q / (1.0 - q * betas) - q * math.log(2.0), rel=1e-11)

    def test_one_adaptive_pass_per_build(self, monkeypatch):
        # the three yardsticks of the power norms share one panel set from
        # one adaptive call
        adaptive, calls = quadrature._adaptive, []

        def counted(*args):
            calls.append(args)
            return adaptive(*args)

        monkeypatch.setattr(quadrature, "_adaptive", counted)
        f = dict(build_corpus(7))["poly-30"]
        quadrature.PowerNormEvaluator(quadrature._abs_nodes(f), DEFAULT_CONFIG, yardsticks=(1.0, 32.0, 1024.0))
        assert len(calls) == 1


class TestSupCap:
    """sup|f| caps every scan: each scanned norm is at most sup|f|, so the
    rows whose bound log sup|f| - psi_log(p) falls short of the exact ratio
    at p_lo cannot win, are not evaluated, and the evaluator stops at the
    grid point after the last row that can."""

    PHIS = [power_log(1.0), power_log(2.0), log_power(1.0)]

    @staticmethod
    def _scans(phi):
        c1, c4 = ConjugateCache(phi), ConjugateCache(phi, p_lo=norms.V_SCAN_P_LO)
        for label, f in build_corpus(7):
            yield f"g {label}", lambda f=f: g_norm_info(f, phi, cache=c1)
            yield f"v {label}", lambda f=f: v_quasinorm_info(derivative(f), phi, 1.0, cache=c4)

    @pytest.mark.parametrize("phi", PHIS, ids=lambda phi: phi.label)
    def test_corpus_matches_the_uncapped_scan(self, phi, monkeypatch):
        # the uncapped scan is the same scan with an infinite sup|f|
        capped = {name: call() for name, call in self._scans(phi)}
        break_values = norms._break_values
        monkeypatch.setattr(norms, "_break_values", lambda f, bounded: (break_values(f, bounded)[0], np.array([math.inf])))
        uncapped = {name: call() for name, call in self._scans(phi)}
        caps = 0
        for name, result in capped.items():
            want = uncapped[name]
            assert (result.extensions, want.p_cap) == (want.extensions, None), name
            assert result.value == pytest.approx(want.value, rel=1e-14, abs=0.0), name
            assert result.p_star == pytest.approx(want.p_star, rel=1e-12), name
            if result.p_cap is not None:
                caps += 1
                assert want.p_star <= result.p_cap, name
        # the cap is active on most g- and v-scans
        assert caps >= len(capped) // 2

    @pytest.mark.parametrize(
        "phi",
        [power_log(1.0), power_log(2.0), power_log(8.0, 2.0), power_log(2.0, 5.0), log_power(1.0), log_power(0.2), *EXCHANGE_PHIS[3:], tabulated_phi([1.0, 2.0, 4.0, 8.0], [1.0, 3.0, 9.0, 27.0])],
        ids=lambda phi: phi.label,
    )
    def test_psi_log_does_not_fall_on_the_grid(self, phi):
        # the premise that makes the cap sound row by row and lets it stop at
        # one row: psi_log(p) = sup_y (y - h(y)/p) does not fall as h >= 0;
        # a table is flat below its clamp, up to rounding, and +inf where h*
        # diverges
        for p_lo in (1.0, norms.V_SCAN_P_LO):
            cache = ConjugateCache(phi, p_lo=p_lo)
            cache.extend()
            psi_log = cache.psi_log_grid
            assert np.isfinite(psi_log[0])
            with np.errstate(invalid="ignore"):
                assert np.all((np.diff(psi_log) >= -4.0 * np.spacing(np.abs(psi_log[1:]))) | np.isposinf(psi_log[1:])), p_lo

    def test_evaluator_stops_after_the_cap(self, monkeypatch):
        # x^8 under power_log(2): sup|f| = 1 and the floor is ||x^8||_1 / psi(1)
        # = (1/9) / e^((log(1/2) - 1)/2), so a row can win only where
        # -(log(p/2) - 1)/2 reaches log of that, at p <= 2 * 81/2 = 81
        tops, queries = [], []
        make, log_norm = quadrature.PowerNormEvaluator.__init__, quadrature.PowerNormEvaluator.log_norm

        def recorded(self, nodes, cfg, yardsticks):
            tops.append(float(yardsticks[-1]))
            make(self, nodes, cfg, yardsticks)

        def queried(self, e, moment=False):
            if not moment:
                queries.append(np.atleast_1d(np.array(e, dtype=float)))
            return log_norm(self, e, moment)

        monkeypatch.setattr(quadrature.PowerNormEvaluator, "__init__", recorded)
        monkeypatch.setattr(quadrature.PowerNormEvaluator, "log_norm", queried)
        phi = power_log(2.0)
        grid = ConjugateCache(phi).grid
        info = g_norm_info(PolynomialRep([0.0] * 8 + [1.0]), phi)
        last = int(np.flatnonzero(grid <= 81.0)[-1])
        assert info.p_cap == grid[last]
        assert tops == [grid[last + 1]]
        assert info.p_star < info.p_cap
        # every row below the cap in one query; the polish asks one point at a time
        assert np.array_equal(queries[0], grid[: last + 1])
        assert all(q.size == 1 for q in queries[1:])


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
        assert exp_or_inf(consts.b_over_g_log) == pytest.approx(math.exp(consts.b_over_g_log), rel=1e-12)
        assert exp_or_inf(consts.b_over_g_log) > math.exp(2.0)

    @pytest.mark.parametrize("phi", KNEE_PHIS, ids=lambda phi: phi.label)
    def test_knee_is_the_conjugate_maximizer_at_one(self, phi):
        # the knee solves u phi'(u) = 1, i.e. h'(log u) = 1, so its log is
        # y*(1) = h*'(1), four below the split
        n = construct_N(phi)
        (_hstar,), (ystar,) = conjugate.young_fenchel_lanes(phi, [1.0])
        assert abs(math.log(n.splice_point) - ystar) <= 1e-12 * (1.0 + abs(ystar))
        consts = equivalence_constants(n)
        assert consts.split_index == 4.0 + max(math.log(n.splice_point), 1.0)
        assert consts.split_index >= ystar + 4.0 - 1e-12

    def test_phi4_log_finite_exp_overflows(self, ctx):
        phi4 = power_log(4.0)
        consts = equivalence_constants(ctx.orlicz(phi4))
        assert math.isfinite(consts.b_over_g_log)
        assert exp_or_inf(consts.b_over_g_log) == math.inf

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

    def test_context_tells_equal_labels_apart(self):
        # every custom phi is labelled "custom" and both tables
        # "tabulated(3 points)"; each must get its own knee and conjugates
        pairs = [
            (custom_phi(lambda z: np.asarray(z) ** 2), custom_phi(lambda z: np.asarray(z) ** 3)),
            (tabulated_phi([1.0, 2.0, 4.0], [1.0, 3.0, 9.0]), tabulated_phi([1.0, 2.0, 4.0], [1.0, 4.0, 16.0])),
        ]
        for pair in pairs:
            local = NormContext()
            for phi in pair:
                assert local.orlicz(phi) == construct_N(phi)
                assert np.array_equal(local.conjugates(phi).hstar, ConjugateCache(phi).hstar)


class TestOneEvaluationPerNode:
    """Within one call, every integral reads one node store: no abscissa of
    f, and no threshold of T, is evaluated twice."""

    LABELS = ["poly-19", "gap-04", "rational-05", "trig-05"]

    @staticmethod
    def _recorded(monkeypatch, cls, name):
        inner, seen = getattr(cls, name), []

        def wrapper(self, x, *args):
            seen.append(np.array(x, dtype=float).ravel())
            return inner(self, x, *args)

        monkeypatch.setattr(cls, name, wrapper)
        return seen

    @pytest.mark.parametrize("label", LABELS)
    def test_abscissae(self, label, monkeypatch, ctx):
        f = dict(build_corpus(7))[label]
        n, cache = ctx.orlicz(power_log(2.0)), ctx.conjugates(power_log(2.0))
        # a gap product's __call__ goes through its log_abs
        seen = self._recorded(monkeypatch, type(f), "log_abs" if hasattr(f, "log_abs") else "__call__")
        for call in (lambda: luxemburg_norm(f, n), lambda: g_norm_info(f, power_log(2.0), cache=cache)):
            seen.clear()
            call()
            xs = np.concatenate(seen)
            assert np.unique(xs).size == xs.size

    @pytest.mark.parametrize("label", LABELS)
    def test_thresholds(self, label, monkeypatch, ctx):
        f = dict(build_corpus(7))[label]
        seen = self._recorded(monkeypatch, quadrature.LevelSampler, "measure_above_batch")
        weighted_lorentz_g(f, power_log(2.0), 2.0, cache=ctx.conjugates(power_log(2.0)))
        ws = np.concatenate(seen)
        assert np.unique(ws).size == ws.size
